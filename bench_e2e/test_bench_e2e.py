"""The benchmark's own tests (not part of the repository's tier-1 suite).

    python3 -m pytest -q bench_e2e/test_bench_e2e.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

from stats import summarize, tail
from tracer import PER_LAYER, fit_phase, per_layer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)


def run_bench(workload, trace, cwd=ROOT, extra=("--smoke",)):
    return subprocess.run(
        [sys.executable, "bench_e2e/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


# ----------------------------------------------------------------------
# Percentile reporting
# ----------------------------------------------------------------------
def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert tail(range(1, 3001)) == (99.0, 2970)  # p99.9 has only 3 beyond
    assert tail(range(1, 20001))[0] == 99.9
    assert tail(range(1, 101)) == (90.0, 90)  # exactly 10 beyond
    assert tail(range(1, 20)) is None


def test_ties_do_not_count_as_beyond():
    assert tail([1.0] * 500) is None
    assert tail([1.0] * 95 + [2.0] * 10) == (90.0, 1.0)


def test_summarize_states_sample_count_and_scales():
    got = summarize([0.001, 0.002, 0.003], scale=1000.0)
    assert got == {"n": 3, "p50": 2.0, "tail_p": None, "tail": None}
    assert summarize([])["n"] == 0


# ----------------------------------------------------------------------
# Trainer.fit phase attribution
# ----------------------------------------------------------------------
def test_fit_phase_rules():
    assert fit_phase(["rare.fit"], 0) == "baseline"
    assert fit_phase(["rare.fit"], 1) == "warm"
    assert fit_phase(["rare.fit", "env.step"], 2) == "co_train"
    assert fit_phase(["rare.fit"], 2) == "final"
    assert fit_phase([], 0) == "warm"  # serving artifact warm-up


def test_per_layer_step_self_and_miss_fraction():
    snap = {
        "spans": {
            "env.step": {"calls": 4, "total_s": 10.0, "self_s": 1.0},
            "core.rewire": {"calls": 6, "total_s": 0.5, "self_s": 0.5},
        },
        "nested": {
            "env.step>gnn.fit.co_train": {"calls": 2, "total_s": 3.0},
            "env.step>gnn.evaluate": {"calls": 4, "total_s": 2.0},
            "env.step>core.rewire": {"calls": 6, "total_s": 0.5},
        },
        "sizes": {},
    }
    values = per_layer(snap, num_envs=2)
    assert values["env.step_self_s"] == 5.0  # rewire time stays in self
    assert values["env.rewire_miss_frac"] == 0.75
    assert values["serve.batch_width_mean"] == 0.0


def test_traced_fit_attributes_every_phase():
    proc = subprocess.run(
        [sys.executable, "bench_e2e/fit_child.py", "fit-sparse-train", "0",
         "0", "--smoke", "--trace"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    trace = json.loads(proc.stdout.splitlines()[-1])["trace"]
    spans, nested = trace["spans"], trace["nested"]
    for phase in ("baseline", "warm", "final"):
        assert spans[f"gnn.fit.{phase}"]["calls"] == 1
    bursts = spans["gnn.fit.co_train"]["calls"]
    assert bursts >= 1
    assert nested["env.step>gnn.fit.co_train"]["calls"] == bursts
    assert spans["rare.fit"]["calls"] == 1


# ----------------------------------------------------------------------
# Smoke legs: the one command, both modes, every workload
# ----------------------------------------------------------------------
@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload",
                         [w["name"] for w in BENCHMARK["workloads"]])
def test_smoke_leg(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    specs = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in specs} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_per_layer_list_matches_benchmark_json():
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(PER_LAYER)


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench_e2e",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = run_bench("fit-rl-vec", 0, cwd=tmp_path, extra=())
    assert proc.returncode != 0
    assert "correct" not in proc.stdout

"""Overhead benchmark for the telemetry subsystem's disabled path.

The observability contract (``docs/observability.md``): with telemetry
off — the default — every instrumentation point costs one attribute
check, so the hot paths may regress by at most 2%.  This bench makes
that claim executable from two directions:

* **micro** — times the disabled no-op primitives directly (a disabled
  ``span()`` context manager, a disabled ``count()``, a disabled
  ``observe()``, and the ``get_telemetry().enabled`` check the
  ``Function`` op hook makes per forward and per backward) in a tight
  loop and reports nanoseconds per operation.
* **derived contract** — counts the instrumentation points a single
  ``TopologyEnv.step`` crosses (one step span, one rewire span + memo
  counter, reward and co-training spans) with a generous safety factor, plus the op-hook points per step read off
  the enabled run's ``op.*`` histogram counts, multiplies each by its
  measured no-op cost, and asserts the total is <= 2% of the *measured*
  per-step wall time.
* **macro** — runs the same tiny RL loop with telemetry disabled and
  enabled and reports the ratio (informational: the enabled path is
  allowed to cost more; only the disabled path is contractual).

``BENCH_SKIP_CONTRACT=1`` reports without gating, as in the other
benchmarks.  Results land in ``bench_results/bench_telemetry_overhead.json``.

CLI (used by ``make bench-smoke``):

    PYTHONPATH=src python benchmarks/bench_telemetry_overhead.py
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

import pytest

from repro.bench import save_results
from repro.core import OBS_DIM, RareConfig, TopologyEnv
from repro.datasets import planted_partition_graph
from repro.entropy import RelativeEntropy, build_entropy_sequences
from repro.gnn import Trainer, build_backbone
from repro.graph import random_split
from repro.telemetry import (
    NULL_TELEMETRY,
    Telemetry,
    get_telemetry,
    use_telemetry,
)

#: The observability contract: disabled telemetry costs <= this fraction
#: of a hot-path step.
MAX_OVERHEAD_FRAC = 0.02

#: Instrumentation points one ``TopologyEnv.step`` can cross, counted
#: with a generous margin: the step/rewire/reward/co-train spans and the
#: memo counters (two reward evaluations per step on a record step).
OPS_PER_STEP = 32


def time_noop_ops(iterations: int = 200_000) -> dict:
    """Nanoseconds per disabled-telemetry primitive, loop-cost adjusted."""
    tel = NULL_TELEMETRY

    start = time.perf_counter()
    for _ in range(iterations):
        pass
    baseline = time.perf_counter() - start

    start = time.perf_counter()
    for _ in range(iterations):
        with tel.span("x"):
            pass
    span_s = time.perf_counter() - start - baseline

    start = time.perf_counter()
    for _ in range(iterations):
        tel.count("x")
    count_s = time.perf_counter() - start - baseline

    start = time.perf_counter()
    for _ in range(iterations):
        tel.observe("x", 1.0)
    observe_s = time.perf_counter() - start - baseline

    start = time.perf_counter()
    for _ in range(iterations):
        get_telemetry().enabled
    hook_s = time.perf_counter() - start - baseline

    per = 1e9 / iterations
    return {
        "iterations": iterations,
        "span_ns": max(span_s, 0.0) * per,
        "count_ns": max(count_s, 0.0) * per,
        "observe_ns": max(observe_s, 0.0) * per,
        "hook_ns": max(hook_s, 0.0) * per,
    }


def build_world(num_nodes: int = 60, seed: int = 0):
    """A tiny MDP world shared by the macro measurements."""
    graph = planted_partition_graph(
        num_nodes=num_nodes, num_classes=3, homophily=0.3,
        feature_signal=0.4, num_features=24, seed=seed,
    )
    split = random_split(graph.labels, np.random.default_rng(seed))
    entropy = RelativeEntropy.from_graph(graph, lam=1.0)
    sequences = build_entropy_sequences(graph, entropy, max_candidates=8)
    config = RareConfig(k_max=4, d_max=4, max_candidates=8, horizon=8)
    model = build_backbone(
        "gcn", graph.num_features, graph.num_classes,
        hidden=16, rng=np.random.default_rng(seed),
    )
    trainer = Trainer(model, lr=0.05)
    return graph, sequences, model, trainer, split, config


def time_steps(world, telemetry: Telemetry, steps: int = 64) -> float:
    """Mean seconds per ``TopologyEnv.step`` under ``telemetry``."""
    graph, sequences, model, trainer, split, config = world
    with use_telemetry(telemetry):
        env = TopologyEnv(graph, sequences, model, trainer, split, config,
                          co_train=False, seed=0)
        rng = np.random.default_rng(0)
        actions = [env.action_space.sample(rng)[None] for _ in range(steps)]
        env.reset()
        start = time.perf_counter()
        for action in actions:  # finished episodes autoreset
            env.step(action)
        elapsed = time.perf_counter() - start
    return elapsed / steps


def run_bench(steps: int = 64, iterations: int = 200_000) -> dict:
    micro = time_noop_ops(iterations)
    world = build_world()
    disabled_step_s = min(
        time_steps(world, NULL_TELEMETRY, steps=steps) for _ in range(3)
    )
    enabled = Telemetry(enabled=True)
    enabled_step_s = time_steps(world, enabled, steps=steps)
    # One hook point per op forward and per op backward; env
    # construction runs under the same session, so this over-counts.
    hook_points_per_step = sum(
        hist.count for name, hist in enabled.registry.histograms.items()
        if name.startswith("op.")
    ) / steps

    worst_noop_ns = max(micro["span_ns"], micro["count_ns"],
                        micro["observe_ns"])
    budget_s = MAX_OVERHEAD_FRAC * disabled_step_s
    derived_overhead_s = (
        OPS_PER_STEP * worst_noop_ns
        + hook_points_per_step * micro["hook_ns"]
    ) * 1e-9
    return {
        "micro": micro,
        "ops_per_step": OPS_PER_STEP,
        "hook_points_per_step": hook_points_per_step,
        "disabled_step_s": disabled_step_s,
        "enabled_step_s": enabled_step_s,
        "enabled_over_disabled": enabled_step_s / max(disabled_step_s, 1e-12),
        "derived_overhead_s": derived_overhead_s,
        "overhead_budget_s": budget_s,
        "derived_overhead_frac": derived_overhead_s / max(disabled_step_s,
                                                          1e-12),
    }


def print_report(result: dict) -> None:
    micro = result["micro"]
    print("telemetry overhead")
    print("==================")
    print(f"disabled span()    : {micro['span_ns']:8.1f} ns/op")
    print(f"disabled count()   : {micro['count_ns']:8.1f} ns/op")
    print(f"disabled observe() : {micro['observe_ns']:8.1f} ns/op")
    print(f"disabled op hook   : {micro['hook_ns']:8.1f} ns/op")
    print(f"env step, telemetry off : {1e3 * result['disabled_step_s']:.3f} ms")
    print(f"env step, telemetry on  : {1e3 * result['enabled_step_s']:.3f} ms "
          f"({result['enabled_over_disabled']:.2f}x, informational)")
    print(f"derived disabled overhead: {result['ops_per_step']} ops/step x "
          f"worst no-op + {result['hook_points_per_step']:.1f} op-hook "
          f"points/step x hook = {1e6 * result['derived_overhead_s']:.2f} us "
          f"({100 * result['derived_overhead_frac']:.3f}% of a step; "
          f"budget {100 * MAX_OVERHEAD_FRAC:.0f}%)")


def check_contract(result: dict) -> None:
    """Assert the derived disabled-path overhead stays within 2%."""
    if os.environ.get("BENCH_SKIP_CONTRACT"):
        return
    assert result["derived_overhead_frac"] <= MAX_OVERHEAD_FRAC, (
        f"derived disabled-telemetry overhead "
        f"{100 * result['derived_overhead_frac']:.3f}% of a step exceeds "
        f"the {100 * MAX_OVERHEAD_FRAC:.0f}% budget"
    )


@pytest.mark.slow
def test_telemetry_overhead_contract():
    """Pytest wrapper (slow-marked): the <= 2% disabled budget holds."""
    result = run_bench()
    print_report(result)
    save_results("bench_telemetry_overhead", result)
    check_contract(result)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--steps", type=int, default=64,
                        help="env steps per macro measurement")
    parser.add_argument("--iterations", type=int, default=200_000,
                        help="loop iterations per micro measurement")
    args = parser.parse_args(argv)

    result = run_bench(steps=args.steps, iterations=args.iterations)
    print_report(result)
    path = save_results("bench_telemetry_overhead", result)
    print(f"\nresults saved to {path}")
    check_contract(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())

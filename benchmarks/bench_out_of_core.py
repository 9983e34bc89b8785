"""Out-of-core contract bench: the pipeline from a memmapped bundle.

Persists a planted-partition graph (plus its entropy sidecar) as an
on-disk bundle (:mod:`repro.graph.storage`), then runs the full
entropy -> rewire -> reward pipeline twice in fresh subprocesses:

* **streamed** — ``load_graph_bundle(..., mmap_arrays=True)``: edge keys,
  CSR, features and entropy state stay memory-mapped; shard workers
  stream their row ranges through :class:`ScreenStateLoader`.  The
  reward is the GNN's dense eval-mode forward on the rewired graph and
  on a few single-edge edits of the bundle graph.
* **in-RAM** — the same bundle, the same code path, with
  ``mmap_arrays=False``: every array fully resident.  This twin isolates
  pure streaming overhead — both legs read the identical persisted
  state.

The acceptance contract (ISSUE 8):

* peak RSS attributable to the streamed leg (high-water-mark delta over
  its post-import baseline, measured in its own subprocess) is at most
  ``RSS_BUDGET_FRAC`` (0.5) of the graph's materialised in-RAM footprint
  (``GraphBundle.materialized_nbytes``);
* the streamed wall-clock is at most ``WALL_BUDGET_RATIO`` (1.5x) the
  in-RAM leg's at the same N;
* screening, rewiring and reward outputs of the two legs are
  byte-identical (asserted unconditionally — ``BENCH_SKIP_CONTRACT=1``
  relaxes only the performance gates, never correctness).

Results land in ``bench_results/bench_out_of_core.json``.  CLI (used by
``make bench-out-of-core``; CI runs the small-N variant under a
``ulimit -v`` cap)::

    PYTHONPATH=src python benchmarks/bench_out_of_core.py --n 100000
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time

import numpy as np

import pytest

from repro.bench import format_table, peak_rss_bytes, save_results
from repro.telemetry import Telemetry, use_telemetry

#: The acceptance contract from the out-of-core issue.
RSS_BUDGET_FRAC = 0.5
WALL_BUDGET_RATIO = 1.5
TARGET_N = 100_000

#: Feature width of the benchmark graph.  Chosen so features dominate the
#: materialised footprint (as they do on real datasets) — the quantity the
#: streamed leg must *not* hold resident.
NUM_FEATURES = 512
MEAN_DEGREE = 10.0
NUM_CLASSES = 5
MAX_CANDIDATES = 8
HIDDEN = 32
#: Screen block height, shared by both legs (block grouping shifts scores
#: at the ULP level, so byte-identity requires a common value).  Smaller
#: than the default cap: the ``(block, N)`` scratch is the screen's
#: intrinsic working set and must fit the out-of-core RSS budget.
SCREEN_BLOCK_ROWS = 256
#: Single-edge reward probes after the main rewire (small edits of the
#: memmapped graph, scored densely).
NUM_EDIT_PROBES = 4


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str(a.dtype).encode())
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()[:16]


def make_bundle(path: str, n: int, seed: int) -> dict:
    """Persist the benchmark graph + entropy sidecar; report its sizes."""
    from repro.datasets import planted_partition_graph
    from repro.entropy import RelativeEntropy
    from repro.graph import save_graph_bundle, save_entropy_sidecar
    from repro.graph.storage import GraphBundle

    graph = planted_partition_graph(
        num_nodes=n, num_classes=NUM_CLASSES, homophily=0.4,
        mean_degree=MEAN_DEGREE, num_features=NUM_FEATURES, seed=seed,
    )
    save_graph_bundle(graph, path)
    entropy = RelativeEntropy.from_graph(graph, lam=1.0)
    recipe = {"embedding": "normalize", "max_profile_len": None}
    save_entropy_sidecar(path, entropy, recipe=recipe)
    bundle = GraphBundle.open(path)
    stored = sum(spec["nbytes"] for spec in bundle.meta["arrays"].values())
    return {
        "num_nodes": n,
        "num_edges": int(bundle.meta["num_edges"]),
        "stored_nbytes": int(stored),
        "materialized_nbytes": int(bundle.materialized_nbytes()),
    }


def run_pipeline(bundle_dir: str, mmap_arrays: bool) -> dict:
    """One full entropy -> rewire -> reward pass over the bundle.

    Identical code for both legs; ``mmap_arrays`` is the only difference.
    Returns wall-clock, RSS high-water delta and output digests.
    """
    # Import the full stack *before* the baseline so the RSS delta
    # charges the pipeline, not numpy/scipy module loading.
    from repro.core import rewire_graph
    from repro.entropy import build_entropy_sequences
    from repro.gnn import GCN, evaluate
    from repro.graph import ScreenStateLoader, load_graph_bundle
    from repro.nn import masked_metrics

    rss_baseline = peak_rss_bytes()
    t0 = time.perf_counter()

    graph = load_graph_bundle(bundle_dir, mmap_arrays=mmap_arrays)
    loader = ScreenStateLoader(
        bundle_dir, max_candidates=MAX_CANDIDATES,
        block_rows=SCREEN_BLOCK_ROWS, mmap_arrays=mmap_arrays,
    )
    seqs = build_entropy_sequences(
        graph, None, max_candidates=MAX_CANDIDATES, state_loader=loader,
    )
    k = np.minimum(2, (seqs.remote >= 0).sum(axis=1))
    d = np.minimum(1, graph.degrees())
    rewired = rewire_graph(graph, seqs, k, d)

    model = GCN(
        graph.num_features, graph.num_classes, hidden=HIDDEN,
        rng=np.random.default_rng(7),
    )
    mask = np.arange(graph.num_nodes) % 5 < 3
    logits = model.predict_logits(rewired)
    acc, loss = masked_metrics(logits, rewired.labels, mask)
    # A few single-edge edits of the bundle graph on top of the bulk
    # rewire above.
    probe_metrics = []
    rng = np.random.default_rng(13)
    for _ in range(NUM_EDIT_PROBES):
        u = int(rng.integers(graph.num_nodes - 1))
        v = int(rng.integers(u + 1, graph.num_nodes))
        edited = graph.add_edges([(u, v)])
        probe_metrics.append(evaluate(model, edited, mask))

    wall = time.perf_counter() - t0
    rss_peak = peak_rss_bytes()
    return {
        "mmap": mmap_arrays,
        "wall_s": wall,
        "rss_baseline_bytes": rss_baseline,
        "rss_peak_bytes": rss_peak,
        "rss_delta_bytes": (
            None if rss_peak is None or rss_baseline is None
            else rss_peak - rss_baseline
        ),
        "acc": float(acc),
        "loss": float(loss),
        "digest_screen": _digest(
            seqs.remote, seqs.remote_scores, seqs.flat_neighbors,
            np.concatenate(seqs.neighbor_scores),
        ),
        "digest_rewire": _digest(rewired.edge_keys()),
        "digest_reward": _digest(
            logits, np.array([acc, loss] + [m for pm in probe_metrics
                                            for m in pm]),
        ),
    }


def _run_leg(bundle_dir: str, mmap_arrays: bool) -> dict:
    """Run one pipeline leg in a fresh subprocess (clean RSS high-water)."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--stage",
         "streamed" if mmap_arrays else "inram", "--bundle", bundle_dir],
        capture_output=True, text=True,
        env={**os.environ,
             "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"pipeline leg failed:\n{proc.stdout}\n{proc.stderr}"
        )
    return json.loads(proc.stdout.splitlines()[-1])


def bench(n: int, seed: int, bundle_dir: str | None) -> dict:
    owns_dir = bundle_dir is None
    if owns_dir:
        tmp = tempfile.mkdtemp(prefix="bench_out_of_core_")
        bundle_dir = os.path.join(tmp, "bundle")
    sizes = make_bundle(bundle_dir, n, seed)
    streamed = _run_leg(bundle_dir, mmap_arrays=True)
    inram = _run_leg(bundle_dir, mmap_arrays=False)
    return {**sizes, "streamed": streamed, "inram": inram}


def check_contract(results: dict) -> None:
    """Assert the issue's acceptance contract.

    Byte-identity always holds; the performance gates honour
    ``BENCH_SKIP_CONTRACT=1`` (CI smoke at tiny N, shared runners).
    """
    streamed, inram = results["streamed"], results["inram"]
    for key in ("digest_screen", "digest_rewire", "digest_reward"):
        assert streamed[key] == inram[key], (
            f"streamed vs in-RAM mismatch on {key}: "
            f"{streamed[key]} != {inram[key]}"
        )
    if os.environ.get("BENCH_SKIP_CONTRACT") == "1":
        return
    budget = RSS_BUDGET_FRAC * results["materialized_nbytes"]
    assert streamed["rss_delta_bytes"] is not None
    assert streamed["rss_delta_bytes"] <= budget, (
        f"streamed peak-RSS delta {streamed['rss_delta_bytes'] / 1e6:.1f} MB "
        f"exceeds {RSS_BUDGET_FRAC} x materialised "
        f"({budget / 1e6:.1f} MB)"
    )
    assert streamed["wall_s"] <= WALL_BUDGET_RATIO * inram["wall_s"], (
        f"streamed wall {streamed['wall_s']:.2f}s exceeds "
        f"{WALL_BUDGET_RATIO} x in-RAM ({inram['wall_s']:.2f}s)"
    )


def _table(results: dict) -> str:
    streamed, inram = results["streamed"], results["inram"]
    rows = []
    for label, leg in (("streamed", streamed), ("in-RAM", inram)):
        delta = leg["rss_delta_bytes"]
        rows.append([
            label,
            f"{leg['wall_s']:.2f}s",
            "-" if delta is None else f"{delta / 1e6:.1f}MB",
            leg["digest_screen"][:8],
            leg["digest_reward"][:8],
        ])
    rows.append([
        "budget",
        f"<= {WALL_BUDGET_RATIO}x in-RAM",
        f"<= {RSS_BUDGET_FRAC * results['materialized_nbytes'] / 1e6:.1f}MB",
        "(equal)", "(equal)",
    ])
    title = (
        f"out-of-core pipeline, N={results['num_nodes']} "
        f"(materialised {results['materialized_nbytes'] / 1e6:.1f}MB, "
        f"stored {results['stored_nbytes'] / 1e6:.1f}MB)"
    )
    return format_table(
        title, ["leg", "wall", "rss delta", "screen", "reward"], rows
    )


@pytest.mark.slow
def test_out_of_core_contract():
    results = bench(TARGET_N, seed=0, bundle_dir=None)
    save_results("bench_out_of_core", results)
    print(_table(results))
    check_contract(results)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=TARGET_N)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--bundle", default=None,
                        help="bundle directory (a temp dir by default; "
                             "required for --stage legs)")
    parser.add_argument("--stage", default=None,
                        choices=["streamed", "inram"],
                        help="internal: run one pipeline leg in-process "
                             "and print its JSON result")
    args = parser.parse_args(argv)

    if args.stage is not None:
        if not args.bundle:
            parser.error("--stage requires --bundle")
        tel = Telemetry(enabled=True)
        with use_telemetry(tel):
            result = run_pipeline(args.bundle, args.stage == "streamed")
        result["telemetry_counters"] = {
            k: v for k, v in tel.snapshot()["counters"].items()
            if k.startswith("storage.")
        }
        print(json.dumps(result))
        return 0

    results = bench(args.n, args.seed, args.bundle)
    path = save_results("bench_out_of_core", results)
    print(_table(results))
    print(f"\nresults: {path}")
    check_contract(results)
    print("contract OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())

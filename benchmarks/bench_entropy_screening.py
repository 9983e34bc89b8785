"""Scaling benchmark for the screen-then-rescore entropy engine.

Builds the full entropy sequences (remote + neighbour rankings) on
synthetic planted-partition graphs and compares the two engines behind
``build_entropy_sequences``, each called directly:

* ``_build_sorted`` — the dense length-sorted tiled kernel scoring all
  ``N^2`` pairs (the pre-screening fast path);
* ``_build_screened`` — the certified screen-then-rescore engine
  (``H <= H_f + lam * hs_max`` evaluated in feature-logit space, exact
  rescoring of the surviving superset only).

The 32-wide features fail the wide-sparse rule, so from
``SCREEN_AUTO_MIN`` nodes ``build_entropy_sequences`` itself would pick
the screen.

Every run verifies *exact top-k recall*: the screened rankings must match
the dense builder's identically at every position whose score is strictly
separated from its neighbours (exact value ties — including ties across
the ``max_candidates`` boundary — are the only permitted divergence, and
scores must agree to 1e-9 everywhere).

The acceptance contract — screened build >= 5x faster than the dense
builder at N >= 20k — is asserted both by the CLI run and by the
``slow``-marked pytest wrapper (never collected by the tier-1 run).  The
KL ablation row additionally times the unified length-sorted kernel
against the generic ``(B, N, M)`` blocked rows it replaced (small sizes
only; the generic path is quadratic in profile width).

CLI (used by ``make bench-entropy``):

    PYTHONPATH=src python benchmarks/bench_entropy_screening.py \
        --sizes 5000 20000
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

import pytest

from repro.bench import format_table, save_results
from repro.datasets import planted_partition_graph
from repro.entropy import RelativeEntropy, assert_rankings_match
from repro.entropy.sequence import (
    _build_from_rows,
    _build_screened,
    _build_sorted,
)
from repro.telemetry import Telemetry, use_telemetry

#: The acceptance contract from the screening-engine issue.
TARGET_SPEEDUP = 5.0
TARGET_N = 20_000

#: Largest N at which the generic blocked KL path is still worth timing.
KL_GENERIC_CUTOFF = 5_000

#: Ranking-comparison tie gap: positions whose dense score is within this
#: of a neighbouring score are treated as exact value ties.
TIE_GAP = 1e-9


def make_graph(n: int, seed: int = 0):
    return planted_partition_graph(
        num_nodes=n, num_classes=5, homophily=0.4, mean_degree=16.0,
        num_features=32, seed=seed,
    )


def verify_exact_recall(screened, dense, gap: float = TIE_GAP) -> int:
    """Assert screened == dense rankings away from exact value ties,
    returning the number of strictly-separated positions compared (the
    comparison itself is the package's shared equivalence definition)."""
    return assert_rankings_match(screened, dense, gap=gap)


def bench_one_size(n: int, mc: int = 16, seed: int = 0, verify: bool = True):
    graph = make_graph(n, seed=seed)
    entropy = RelativeEntropy.from_graph(graph, lam=1.0, max_profile_len=64)

    # Best of two for the fast engine (its gather-heavy rescore is
    # sensitive to allocator/page state); the dense pass is slow and
    # stable, one run is representative.
    t_screen = np.inf
    for _ in range(2):
        start = time.perf_counter()
        screened = _build_screened(graph, entropy, mc)
        t_screen = min(t_screen, time.perf_counter() - start)

    start = time.perf_counter()
    dense = _build_sorted(graph, entropy, mc)
    t_dense = time.perf_counter() - start

    out = {
        "n": n,
        "num_edges": graph.num_edges,
        "screened_s": t_screen,
        "dense_s": t_dense,
        "speedup": t_dense / max(t_screen, 1e-12),
    }
    if verify:
        out["positions_verified"] = verify_exact_recall(screened, dense)

    # KL ablation: unified length-sorted kernel vs the generic blocked rows
    # it replaced (the old structural_mode="kl" fallback path).
    if n <= KL_GENERIC_CUTOFF:
        kl = RelativeEntropy.from_graph(
            graph, lam=1.0, max_profile_len=64, structural_mode="kl"
        )
        start = time.perf_counter()
        _build_sorted(graph, kl, mc)
        out["kl_sorted_s"] = time.perf_counter() - start
        start = time.perf_counter()
        _build_from_rows(graph, kl.rows, mc, block_size=256)
        out["kl_generic_s"] = time.perf_counter() - start
        out["kl_speedup"] = out["kl_generic_s"] / max(out["kl_sorted_s"], 1e-12)
    return out


def run_scaling(sizes, mc: int = 16, seed: int = 0):
    return [bench_one_size(n, mc=mc, seed=seed) for n in sizes]


def print_report(results) -> None:
    def cell(r, key, fmt="{:.0f}"):
        return fmt.format(1000 * r[key]) if key in r else "-"

    rows = [
        [
            f"{r['n']:,}",
            f"{r['num_edges']:,}",
            cell(r, "screened_s"),
            cell(r, "dense_s"),
            f"{r['speedup']:.1f}x",
            cell(r, "kl_sorted_s"),
            cell(r, "kl_generic_s"),
            f"{r['kl_speedup']:.1f}x" if "kl_speedup" in r else "-",
        ]
        for r in results
    ]
    print(
        format_table(
            "Screen-then-rescore entropy engine vs dense tiled builder (ms)",
            ["N", "|E|", "screened", "dense", "speedup",
             "kl tiled", "kl generic", "kl gain"],
            rows,
        )
    )


def check_contract(results) -> None:
    """Assert the >= 5x screened speedup at the contract size.

    ``BENCH_SKIP_CONTRACT=1`` reports without gating, as in
    ``bench_scaling_rewire.check_contract`` (noisy shared runners).
    """
    if os.environ.get("BENCH_SKIP_CONTRACT"):
        return
    for r in results:
        if r["n"] >= TARGET_N:
            assert r["speedup"] >= TARGET_SPEEDUP, (
                f"screened speedup {r['speedup']:.1f}x at N={r['n']} is "
                f"below the {TARGET_SPEEDUP}x contract"
            )


@pytest.mark.slow
def test_entropy_screening_speedup():
    tel = Telemetry(enabled=True)
    with use_telemetry(tel):
        results = run_scaling([TARGET_N])
    print_report(results)
    save_results(
        "bench_entropy_screening", {str(r["n"]): r for r in results},
        telemetry=tel,
    )
    assert results[0]["positions_verified"] > 0
    check_contract(results)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--sizes", type=int, nargs="+", default=[5_000, TARGET_N],
        help="graph sizes to measure",
    )
    parser.add_argument("--mc", type=int, default=16,
                        help="max_candidates retained per node")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    tel = Telemetry(enabled=True)
    with use_telemetry(tel):
        results = run_scaling(args.sizes, mc=args.mc, seed=args.seed)
    print_report(results)
    path = save_results(
        "bench_entropy_screening", {str(r["n"]): r for r in results},
        telemetry=tel,
    )
    print(f"\nresults saved to {path}")
    check_contract(results)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Rollout-collection benchmark: one topology env at batch width B vs
width 1.

Measures pure PPO rollout collection (co-training off, so every path does
identical reward-evaluation work) at batch widths B in {4, 16, 64}:

* **B = 1** — a :class:`TopologyEnv` with ``num_envs = 1``,
  ``collect_rollout(env, B * T)``: B episodes gathered back to back (one
  policy forward and one GNN evaluation per transition).
* **B** — the same env class with ``num_envs = B``,
  ``collect_rollout(env, T)``: the same ``B * T`` transitions through one
  policy forward and one stacked GNN forward per *vector* step.

Both widths run the same policy weights and produce the same
per-transition work-product (observations, rewards, GAE inputs), so
steps/sec is directly comparable.  The acceptance contract — width B >= 3x
width 1 at B = 16 — is asserted by the CLI run and by the
``slow``-marked pytest wrapper (never collected by the tier-1 run).
Results land in ``bench_results/bench_vec_rollout.json``.

CLI (used by ``make bench-rollout``):

    PYTHONPATH=src python benchmarks/bench_vec_rollout.py
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time

import numpy as np

import pytest

from repro.bench import format_table, save_results
from repro.core import OBS_DIM, RareConfig, TopologyEnv
from repro.datasets import planted_partition_graph
from repro.entropy import RelativeEntropy, build_entropy_sequences
from repro.gnn import Trainer, build_backbone
from repro.graph import random_split
from repro.rl import PPO, NodePolicy
from repro.telemetry import Telemetry, use_telemetry

#: The acceptance contract: width B at least this much faster than width 1.
TARGET_SPEEDUP = 3.0
TARGET_B = 16


def build_world(num_nodes: int, seed: int = 0):
    """Shared graph / sequences / warm co-trained model for both widths."""
    graph = planted_partition_graph(
        num_nodes=num_nodes, num_classes=4, homophily=0.3,
        feature_signal=0.4, num_features=32, seed=seed,
    )
    split = random_split(graph.labels, np.random.default_rng(seed))
    entropy = RelativeEntropy.from_graph(graph, lam=1.0)
    sequences = build_entropy_sequences(graph, entropy, max_candidates=8)
    config = RareConfig(k_max=4, d_max=4, max_candidates=8, horizon=8)
    model = build_backbone(
        "gcn", graph.num_features, graph.num_classes,
        hidden=32, rng=np.random.default_rng(seed),
    )
    trainer = Trainer(model, lr=0.05)
    trainer.fit(graph, split, epochs=5, patience=5)  # warm start
    return graph, sequences, model, trainer, split, config


def bench_width(world, batch: int, steps: int, repeats: int = 2) -> dict:
    """Time B*steps transitions through the env at width 1 and width B."""
    graph, sequences, model, trainer, split, config = world
    policy = NodePolicy(obs_dim=OBS_DIM, hidden=64,
                        rng=np.random.default_rng(0))
    transitions = batch * steps

    def best_time(num_envs: int, num_steps: int) -> float:
        env = TopologyEnv(
            graph, sequences, model, trainer, split,
            dataclasses.replace(config, num_envs=num_envs),
            co_train=False, seed=0,
        )
        ppo = PPO(policy, rng=np.random.default_rng(1))
        best = np.inf
        for _ in range(repeats):
            start = time.perf_counter()
            ppo.collect_rollout(env, num_steps)
            best = min(best, time.perf_counter() - start)
        return best

    best_seq = best_time(1, transitions)
    best_vec = best_time(batch, steps)

    return {
        "batch": batch,
        "transitions": transitions,
        "sequential_s": best_seq,
        "vectorized_s": best_vec,
        "sequential_sps": transitions / best_seq,
        "vectorized_sps": transitions / best_vec,
        "speedup": best_seq / max(best_vec, 1e-12),
    }


def run_bench(batches, num_nodes: int = 80, steps: int = 8, seed: int = 0):
    world = build_world(num_nodes, seed=seed)
    return [bench_width(world, b, steps) for b in batches]


def print_report(results, num_nodes: int) -> None:
    rows = [
        [
            f"{r['batch']}",
            f"{r['transitions']}",
            f"{r['sequential_sps']:.1f}",
            f"{r['vectorized_sps']:.1f}",
            f"{r['speedup']:.1f}x",
        ]
        for r in results
    ]
    print(
        format_table(
            f"Rollout collection, N={num_nodes} nodes "
            "(steps/sec, width 1 vs width B)",
            ["B", "transitions", "B=1 sps", "B sps", "speedup"],
            rows,
        )
    )


def check_contract(results) -> None:
    """Assert the >= 3x speedup at the contract batch width."""
    for r in results:
        if r["batch"] == TARGET_B:
            assert r["speedup"] >= TARGET_SPEEDUP, (
                f"batched rollout speedup {r['speedup']:.2f}x at "
                f"B={TARGET_B} below the {TARGET_SPEEDUP}x contract"
            )


@pytest.mark.slow
def test_vec_rollout_contract():
    """Pytest wrapper (slow-marked): the B=16 contract holds."""
    tel = Telemetry(enabled=True)
    with use_telemetry(tel):
        results = run_bench([TARGET_B], num_nodes=80, steps=8)
    print_report(results, 80)
    save_results(
        "bench_vec_rollout",
        {"nodes": 80, "steps": 8, "results": results},
        telemetry=tel,
    )
    check_contract(results)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--batches", type=int, nargs="+", default=[4, 16, 64])
    parser.add_argument("--nodes", type=int, default=80)
    parser.add_argument("--steps", type=int, default=8,
                        help="vector steps per measurement (transitions = B * steps)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--no-assert", action="store_true",
                        help="skip the >= 3x contract check")
    args = parser.parse_args(argv)

    tel = Telemetry(enabled=True)
    with use_telemetry(tel):
        results = run_bench(args.batches, num_nodes=args.nodes,
                            steps=args.steps, seed=args.seed)
    print_report(results, args.nodes)
    path = save_results(
        "bench_vec_rollout",
        {
            "nodes": args.nodes,
            "steps": args.steps,
            "target_speedup": TARGET_SPEEDUP,
            "target_batch": TARGET_B,
            "results": results,
        },
        telemetry=tel,
    )
    print(f"\nresults saved to {path}")
    if not args.no_assert:
        check_contract(results)
        if any(r["batch"] == TARGET_B for r in results):
            print(f"contract ok: >= {TARGET_SPEEDUP}x at B={TARGET_B}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Swapping the RL agent inside GraphRARE — and batching its rollouts.

The paper uses PPO but notes that "other reinforcement learning algorithms
can also be conveniently applied" (Sec. IV-B).  This example runs the same
GraphRARE configuration with PPO, A2C and REINFORCE on a heterophilic
graph and reports accuracy, homophily gain, and a rewiring breakdown from
the analysis module.

With ``--num-envs B`` (B > 1) every agent's rollouts step B episodes at
once: the one ``TopologyEnv`` runs them against the shared base CSR — one
batched policy forward and one stacked GNN reward evaluation per vector
step.  ``B = 1`` (the default) is the same code at width one.

Usage:  python examples/rl_algorithms.py [--num-envs 4]
"""

import argparse
import time

from repro import GraphRARE, RareConfig, geom_gcn_splits, load_dataset
from repro.core import analyze_rewiring


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--num-envs", type=int, default=1,
        help="episodes stepped together per rollout (> 1 batches them)",
    )
    args = parser.parse_args()

    graph = load_dataset("wisconsin", scale=0.6, seed=0)
    split = geom_gcn_splits(graph, num_splits=1, seed=0)[0]
    print(f"graph: {graph}\n")

    print(f"{'agent':<11} {'rollout':<12} {'GCN':>7} {'GCN-RARE':>9} "
          f"{'dH':>7} {'added':>6} {'removed':>8} {'secs':>6}")
    for algorithm in ("ppo", "a2c", "reinforce"):
        config = RareConfig(
            rl_algorithm=algorithm,
            k_max=5, d_max=5, max_candidates=10,
            episodes=4, horizon=6, num_envs=args.num_envs, seed=0,
        )
        start = time.perf_counter()
        result = GraphRARE("gcn", config).fit(graph, split)
        elapsed = time.perf_counter() - start
        analysis = analyze_rewiring(graph, result.optimized_graph)
        mode = f"B={args.num_envs}"
        print(
            f"{algorithm:<11} {mode:<12} "
            f"{100 * result.baseline_test_acc:>6.1f}% "
            f"{100 * result.test_acc:>8.1f}% "
            f"{analysis.homophily_gain:>+7.3f} "
            f"{analysis.num_added:>6d} {analysis.num_removed:>8d} "
            f"{elapsed:>6.1f}"
        )

    print(
        "\nAll three agents drive the same MDP (state [k;d], ternary"
        "\nactions, Eq. 11 reward); PPO's clipped updates are the paper's"
        "\nchoice, but the framework is agent-agnostic.  With --num-envs B"
        "\nevery agent's rollouts run B episodes as one batched pass"
        "\n(stacked observations, shared rewire memo, one block-diagonal"
        "\nGNN forward per step)."
    )


if __name__ == "__main__":
    main()

"""Golden ``RareResult`` pins: the cases, the digest, and the regenerator.

Each case is one small ``GraphRARE.fit`` on a seeded planted-partition
graph; together they cover the five message-passing backbones, all three
RL agents, the AUC reward, live churn and batch widths 1, 2 and 4.  The
``-inc`` cases set ``incremental_reward``, which every fit now ignores:
their pins equal what the dense reward gives.  :func:`digest` reduces a result to the fields the
pins compare: the three accuracies, both curves, the per-iteration
rewards and the sha256 of the optimised graph's edge keys.

Regenerate the fixture (``golden_fit.json`` next to this file) with::

    PYTHONPATH=src python tests/core/golden_fit.py

Only do so when a change is *meant* to move a pinned result, and say
which cases moved and why.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, List, Tuple

FIXTURE = Path(__file__).with_name("golden_fit.json")

#: ``(name, backbone, rl_algorithm, num_envs, incremental_reward, reward,
#: churn)``.
CASES: List[Tuple[str, str, str, int, bool, str, bool]] = [
    ("gcn-ppo-b1", "gcn", "ppo", 1, False, "acc_loss", False),
    ("graphsage-ppo-b1-inc", "graphsage", "ppo", 1, True, "acc_loss", False),
    ("gat-a2c-b1", "gat", "a2c", 1, False, "acc_loss", False),
    ("h2gcn-ppo-b1-inc", "h2gcn", "ppo", 1, True, "acc_loss", False),
    ("mixhop-ppo-b1", "mixhop", "ppo", 1, False, "acc_loss", False),
    ("gcn-ppo-b1-auc", "gcn", "ppo", 1, False, "auc", False),
    ("gcn-ppo-b1-churn", "gcn", "ppo", 1, False, "acc_loss", True),
    ("gcn-reinforce-b1", "gcn", "reinforce", 1, False, "acc_loss", False),
    ("graphsage-reinforce-b1-inc-churn", "graphsage", "reinforce", 1, True,
     "acc_loss", True),
    ("gcn-ppo-b2", "gcn", "ppo", 2, False, "acc_loss", False),
    ("graphsage-ppo-b4-inc", "graphsage", "ppo", 4, True, "acc_loss", False),
    ("gat-a2c-b2-inc", "gat", "a2c", 2, True, "acc_loss", False),
    ("h2gcn-a2c-b4", "h2gcn", "a2c", 4, False, "acc_loss", False),
    ("mixhop-ppo-b2-inc", "mixhop", "ppo", 2, True, "acc_loss", False),
    ("gcn-ppo-b2-auc", "gcn", "ppo", 2, False, "auc", False),
    ("gcn-a2c-b2-inc-churn", "gcn", "a2c", 2, True, "acc_loss", True),
    ("graphsage-ppo-b4-churn", "graphsage", "ppo", 4, False, "acc_loss",
     True),
]

def run_case(name: str, backbone: str, rl: str, num_envs: int,
             incremental: bool, reward: str, churn: bool):
    """The ``RareResult`` of one pinned case."""
    from repro.core import GraphRARE, RareConfig
    from repro.datasets import planted_partition_graph
    from repro.graph import geom_gcn_splits
    from repro.stream import StreamConfig

    seed = sum(map(ord, name)) % 97
    graph = planted_partition_graph(
        num_nodes=80, num_classes=3, homophily=0.3, mean_degree=4,
        num_features=16, seed=seed,
    )
    split = geom_gcn_splits(graph, num_splits=1, seed=seed)[0]
    config = RareConfig(
        seed=seed, k_max=3, d_max=3, max_candidates=8, episodes=5,
        horizon=3, hidden=16, policy_hidden=16, final_epochs=12,
        final_patience=12, co_train_epochs=3, co_train_patience=3,
        rl_algorithm=rl, num_envs=num_envs, incremental_reward=incremental,
        reward=reward,
        stream=StreamConfig(events_per_step=2, seed=seed) if churn else None,
    )
    return GraphRARE(backbone, config).fit(graph, split)


def digest(result) -> Dict:
    """The pinned fields of one ``RareResult`` (JSON-ready, exact)."""
    keys = result.optimized_graph.edge_keys()
    return {
        "test_acc": result.test_acc,
        "val_acc": result.val_acc,
        "baseline_test_acc": result.baseline_test_acc,
        "accuracy_curve": [float(x) for x in result.accuracy_curve],
        "homophily_curve": [float(x) for x in result.homophily_curve],
        "episode_rewards": [float(x) for x in result.episode_rewards],
        "optimized_graph_sha256": hashlib.sha256(
            keys.astype("<i8").tobytes()
        ).hexdigest(),
    }


def main() -> int:
    """Rerun every case and rewrite the fixture."""
    pins = {case[0]: digest(run_case(*case)) for case in CASES}
    FIXTURE.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(pins)} pins to {FIXTURE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Seeded inputs of the three workloads.

Everything a run feeds the program is built here from ``--seed``: the
same seed gives the same graph, split, config, candidate pool and request
sequence.  ``smoke=True`` shrinks every workload to a few seconds for the
benchmark's own tests.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

FIT_WORKLOADS = ("fit-sparse-train", "fit-rl-vec")
WORKLOADS = FIT_WORKLOADS + ("serve-churn",)

#: Early stopping is pinned (patience = epochs) and the training budgets
#: trimmed, so a fit's amount of work is fixed by its config instead of by
#: how soon a seed's validation curve peaks: fit time then measures speed,
#: not convergence luck, and a fit fits the benchmark's time budget.
PINNED_TRAINING = dict(
    final_epochs=40, final_patience=40, co_train_epochs=2, co_train_patience=2
)


def fit_inputs(workload: str, seed: int, smoke: bool = False):
    """``(backbone, config, graph, split)`` of one fit workload."""
    from repro.core import RareConfig
    from repro.datasets import load_dataset, planted_partition_graph
    from repro.graph import geom_gcn_splits

    training = dict(PINNED_TRAINING)
    if smoke:
        training.update(final_epochs=4, final_patience=4)
    if workload == "fit-sparse-train":
        graph = load_dataset("chameleon", 0.1 if smoke else 1.0, seed=seed)
        # Four episodes (default six) keep GNN training the dominant cost.
        extra = dict(episodes=1, horizon=2) if smoke else dict(episodes=4)
        config = RareConfig(seed=seed, **training, **extra)
        backbone = "gcn"
    elif workload == "fit-rl-vec":
        graph = planted_partition_graph(
            num_nodes=300 if smoke else 3000, num_classes=5, homophily=0.3,
            mean_degree=4, num_features=32, seed=seed,
        )
        shape = (
            dict(num_envs=2, episodes=2, horizon=2) if smoke
            else dict(num_envs=4, episodes=8, horizon=8)
        )
        config = RareConfig(
            incremental_reward=True, seed=seed, **shape, **training
        )
        backbone = "graphsage"
    else:
        raise ValueError(f"not a fit workload: {workload!r}")
    split = geom_gcn_splits(graph, num_splits=1, seed=seed)[0]
    return backbone, config, graph, split


def serve_spec(seed: int, smoke: bool = False) -> Dict:
    """The one session every ``serve-churn`` request targets."""
    if smoke:
        return {"dataset": "synthetic", "num_nodes": 300, "num_features": 16,
                "k_max": 4, "d_max": 4, "warmup_epochs": 2, "seed": seed}
    return {"dataset": "synthetic", "num_nodes": 2000, "num_features": 64,
            "k_max": 4, "d_max": 4, "warmup_epochs": 8, "seed": seed}


POOL_SIZE = 64
ZIPF_S = 1.3
CHURN_EVERY = 20
CHURN_EVENTS = 4
REWIRE_SHARE = 0.2


def candidate_pool(spec: Dict, seed: int) -> List[Tuple[np.ndarray, np.ndarray]]:
    """``POOL_SIZE`` per-node ``(k, d)`` candidates, ranked by popularity."""
    rng = np.random.default_rng([seed, 1])
    n, hi = spec["num_nodes"], max(spec["k_max"], spec["d_max"]) + 1
    return [
        (rng.integers(0, hi, size=n), rng.integers(0, hi, size=n))
        for _ in range(POOL_SIZE)
    ]


def request_plan(
    spec: Dict, seed: int, count: int, edges: np.ndarray
) -> List[Tuple]:
    """The ``count`` requests of one pass, in issue order.

    Every ``CHURN_EVERY``-th request is a churn of ``CHURN_EVENTS`` events,
    each an add of a random node pair or a remove of a random edge of the
    session's initial graph (``edges``, shape ``(E, 2)``); the rest pick a
    pool candidate by Zipf(``ZIPF_S``) rank and are a ``rewire`` with
    probability ``REWIRE_SHARE``, else a ``score``.  Items are
    ``("churn", events)`` or ``(op, pool_index)``.
    """
    rng = np.random.default_rng([seed, 2])
    weights = 1.0 / np.arange(1, POOL_SIZE + 1) ** ZIPF_S
    weights /= weights.sum()
    n = spec["num_nodes"]
    plan: List[Tuple] = []
    for i in range(count):
        if i % CHURN_EVERY == CHURN_EVERY - 1:
            events = []
            for _ in range(CHURN_EVENTS):
                if rng.random() < 0.5:
                    u, v = rng.integers(0, n, size=2)
                    events.append([1, int(u), int(v)])
                else:
                    u, v = edges[rng.integers(0, len(edges))]
                    events.append([-1, int(u), int(v)])
            plan.append(("churn", events))
        else:
            op = "rewire" if rng.random() < REWIRE_SHARE else "score"
            plan.append((op, int(rng.choice(POOL_SIZE, p=weights))))
    return plan

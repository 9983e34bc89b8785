"""Bench-scale dataset and loop configurations.

The paper's experiments ran on an A100 for hours; the benches shrink every
dataset (constant mean degree and homophily — see ``DatasetSpec.scaled``)
and the training budgets so the entire suite finishes on a laptop CPU.  The
scales below keep each stand-in in the 100-400-node range.
"""

from __future__ import annotations

from typing import List, Tuple

from ..core import RareConfig
from ..datasets import load_dataset
from ..graph import Graph, Split, geom_gcn_splits

#: Per-dataset shrink factors for bench runs.
BENCH_SCALES = {
    "chameleon": 0.08,
    "squirrel": 0.04,
    "cornell": 0.60,
    "texas": 0.60,
    "wisconsin": 0.60,
    "cora": 0.08,
    "pubmed": 0.012,
}

#: Splits per dataset in bench runs (the paper uses ten).
BENCH_SPLITS = 3


def bench_graph(name: str, seed: int = 0) -> Graph:
    """The bench-scale synthetic stand-in for dataset ``name``."""
    return load_dataset(name, scale=BENCH_SCALES[name], seed=seed)


def bench_splits(graph: Graph, num: int = BENCH_SPLITS, seed: int = 0) -> List[Split]:
    """``num`` seeded geom-gcn splits of ``graph``."""
    return geom_gcn_splits(graph, num_splits=num, seed=seed)


def bench_dataset(name: str, seed: int = 0) -> Tuple[Graph, List[Split]]:
    """Graph plus its bench splits."""
    graph = bench_graph(name, seed=seed)
    return graph, bench_splits(graph, seed=seed)


def bench_rare_config(dataset: str, **overrides) -> RareConfig:
    """RARE loop budget tuned per dataset density.

    Dense wiki graphs (Chameleon/Squirrel) need larger edit budgets to move
    the needle; the sparse WebKB graphs need smaller ones.
    """
    dense = dataset in ("chameleon", "squirrel")
    base = dict(
        k_max=12 if dense else 6,
        d_max=16 if dense else 6,
        max_candidates=16 if dense else 12,
        episodes=4,
        horizon=6,
        co_train_epochs=6,
        co_train_patience=4,
        final_epochs=80,
        final_patience=15,
    )
    base.update(overrides)
    return RareConfig(**base)

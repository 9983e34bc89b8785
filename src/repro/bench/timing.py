"""Timing utilities for the Table VI efficiency study."""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from ..baselines import build_baseline
from ..entropy import RelativeEntropy, build_entropy_sequences
from ..gnn import Trainer
from ..graph import Graph, Split


def time_epochs(
    name: str,
    graph: Graph,
    split: Split,
    epochs: int = 20,
    hidden: int = 64,
    seed: int = 0,
) -> float:
    """Average wall-clock seconds per training epoch for baseline ``name``."""
    model = build_baseline(
        name, graph, split, hidden=hidden, rng=np.random.default_rng(seed)
    )
    trainer = Trainer(model, lr=0.05)
    trainer.train_epoch(graph, split.train)  # warm-up (builds caches)
    start = time.perf_counter()
    for _ in range(epochs):
        trainer.train_epoch(graph, split.train)
    return (time.perf_counter() - start) / epochs


def time_rare_epoch(
    backbone: str,
    graph: Graph,
    split: Split,
    epochs: int = 10,
    hidden: int = 64,
    seed: int = 0,
    max_candidates: int = 12,
) -> float:
    """Average seconds per co-training step of the RARE loop.

    One "epoch" here is one MDP step: rewire, evaluate, one GNN epoch —
    the unit Table VI reports for the RARE variants.
    """
    from ..core import RareConfig, TopologyEnv

    entropy = RelativeEntropy.from_graph(graph, lam=1.0)
    sequences = build_entropy_sequences(graph, entropy, max_candidates=max_candidates)
    # One episode longer than the timed steps: no autoreset inside the loop.
    config = RareConfig(
        k_max=6, d_max=6, max_candidates=max_candidates, horizon=epochs + 1
    )
    model = build_baseline(
        backbone, graph, split, hidden=hidden, rng=np.random.default_rng(seed)
    )
    trainer = Trainer(model, lr=0.05)
    env = TopologyEnv(graph, sequences, model, trainer, split, config,
                      co_train=False)
    rng = np.random.default_rng(seed)
    env.reset()
    start = time.perf_counter()
    for _ in range(epochs):
        env.step(rng.integers(0, 3, (1, 2 * graph.num_nodes)))
        trainer.train_epoch(env.current_graphs[0], split.train)
    return (time.perf_counter() - start) / epochs


def time_entropy(graph: Graph, lam: float = 1.0, max_candidates: int = 12) -> float:
    """Seconds for the one-off relative entropy + sequence computation."""
    start = time.perf_counter()
    entropy = RelativeEntropy.from_graph(graph, lam=lam)
    build_entropy_sequences(graph, entropy, max_candidates=max_candidates)
    return time.perf_counter() - start

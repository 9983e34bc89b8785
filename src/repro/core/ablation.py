"""Ablation variants of GraphRARE (Table V and Fig. 5).

Each function swaps out exactly one component:

* :func:`fixed_kd` — the same ``(k, d)`` for every node (the Fig. 5 grid);
* :func:`random_kd` — per-node ``k_v, d_v`` drawn uniformly from ``[0, c]``
  (Table V rows ``GCN-RE[0..c]``);
* shuffled entropy sequences (``GCN-RA``) are reached through
  ``GraphRARE.fit(..., shuffle_sequences=True)``;
* add-only / remove-only (``GCN-RARE-add`` / ``GCN-RARE-remove``) via
  :class:`RareConfig` flags;
* the AUC reward (``GCN-RARE-reward``) via ``RareConfig(reward="auc")``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..entropy import EntropySequences
from ..gnn import Trainer, build_backbone
from ..graph import Graph, Split
from .config import RareConfig
from .framework import entropy_sequences
from .rewire import clamp_state, rewire_graph


def _train_on_rewired(
    graph: Graph,
    split: Split,
    backbone: str,
    config: RareConfig,
    k: np.ndarray,
    d: np.ndarray,
    sequences: EntropySequences,
    rng: np.random.Generator,
) -> float:
    """Train ``backbone`` on the statically rewired graph; return test acc."""
    k, d = clamp_state(k, d, graph, sequences, config.max_candidates, 10**9)
    rewired = rewire_graph(
        graph, sequences, k, d,
        add_edges=config.add_edges, remove_edges=config.remove_edges,
    )
    model = build_backbone(
        backbone,
        graph.num_features,
        graph.num_classes,
        hidden=config.hidden,
        dropout=config.dropout,
        rng=rng,
    )
    trainer = Trainer(model, lr=config.gnn_lr, weight_decay=config.gnn_weight_decay)
    return trainer.fit(
        graph=rewired,
        split=split,
        epochs=config.final_epochs,
        patience=config.final_patience,
    ).test_acc


def fixed_kd(
    graph: Graph,
    split: Split,
    backbone: str = "gcn",
    k: int = 3,
    d: int = 1,
    config: Optional[RareConfig] = None,
    sequences: Optional[EntropySequences] = None,
) -> float:
    """GraphRARE with a *uniform* fixed ``(k, d)`` instead of the DRL agent.

    This is the heatmap cell of Fig. 5: every node adds its top-``k`` remote
    candidates and drops its ``d`` worst neighbours.
    """
    config = config or RareConfig(max_candidates=max(16, k))
    rng = np.random.default_rng(config.seed)
    if sequences is None:
        sequences = entropy_sequences(graph, config, rng)
    n = graph.num_nodes
    return _train_on_rewired(
        graph, split, backbone, config,
        np.full(n, k), np.full(n, d), sequences, rng,
    )


def random_kd(
    graph: Graph,
    split: Split,
    backbone: str = "gcn",
    max_value: int = 5,
    config: Optional[RareConfig] = None,
    sequences: Optional[EntropySequences] = None,
) -> float:
    """Table V's ``GCN-RE[0..max_value]``: random per-node ``k_v, d_v``.

    Keeps the entropy ranking but replaces the learned per-node counts with
    uniform draws — isolating the DRL module's contribution.
    """
    config = config or RareConfig(max_candidates=max(16, max_value))
    rng = np.random.default_rng(config.seed)
    if sequences is None:
        sequences = entropy_sequences(graph, config, rng)
    n = graph.num_nodes
    k = rng.integers(0, max_value + 1, size=n)
    d = rng.integers(0, max_value + 1, size=n)
    return _train_on_rewired(graph, split, backbone, config, k, d, sequences, rng)


def fixed_kd_grid(
    graph: Graph,
    split: Split,
    backbone: str = "gcn",
    k_values=(0, 1, 2, 3),
    d_values=(0, 1, 2, 3),
    config: Optional[RareConfig] = None,
) -> np.ndarray:
    """The full Fig. 5 heatmap: test accuracy for each fixed ``(k, d)``.

    Returns an array of shape ``(len(k_values), len(d_values))`` whose
    ``[i, j]`` entry is the accuracy with ``k = k_values[i]`` and
    ``d = d_values[j]``; the entropy ranking is computed once and shared.
    """
    config = config or RareConfig(max_candidates=max(16, *k_values))
    rng = np.random.default_rng(config.seed)
    sequences = entropy_sequences(graph, config, rng)
    grid = np.zeros((len(k_values), len(d_values)))
    for i, k in enumerate(k_values):
        for j, d in enumerate(d_values):
            grid[i, j] = fixed_kd(
                graph, split, backbone, k=k, d=d,
                config=config, sequences=sequences,
            )
    return grid

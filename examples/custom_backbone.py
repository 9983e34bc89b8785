"""Plugging a custom GNN into GraphRARE.

"The GraphRARE framework can be easily adapted to any existing GNN model"
(Sec. IV-C).  This example defines a new backbone — a GIN-style sum
aggregator — registers it under a name and runs the framework.  Every
reward is scored by the backbone's own eval-mode forward, so a new
backbone needs nothing beyond ``forward``.

Usage:  python examples/custom_backbone.py
"""

import numpy as np

from repro import GraphRARE, RareConfig, geom_gcn_splits, load_dataset
from repro.gnn import GNNBackbone, cached_matrix
from repro.gnn.models import BACKBONES
from repro.graph import Graph
from repro.nn import MLP, Dropout
from repro.tensor import Tensor, ops


class GIN(GNNBackbone):
    """Graph Isomorphism Network layer: ``h' = MLP((1 + eps) h + sum_N h)``."""

    def __init__(self, in_features, num_classes, hidden=64, dropout=0.5,
                 rng=None, eps=0.1):
        super().__init__(in_features, num_classes)
        rng = rng or np.random.default_rng(0)
        self.eps = eps
        self.mlp1 = MLP(in_features, [hidden], hidden, rng)
        self.mlp2 = MLP(hidden, [hidden], num_classes, rng)
        self.dropout = Dropout(dropout, rng)

    def forward(self, graph: Graph, x: Tensor) -> Tensor:
        adj = cached_matrix(graph, "adjacency", lambda g: g.adjacency())
        h = self.dropout(x)
        h = ops.relu(self.mlp1(ops.spmm(adj, h) + (1.0 + self.eps) * h))
        h = self.dropout(h)
        return self.mlp2(ops.spmm(adj, h) + (1.0 + self.eps) * h)


def main() -> None:
    # Register the new backbone under a name GraphRARE can resolve.
    BACKBONES["gin"] = GIN

    graph = load_dataset("texas", scale=0.6, seed=0)
    split = geom_gcn_splits(graph, num_splits=1, seed=0)[0]

    config = RareConfig(
        k_max=5, d_max=5, max_candidates=10, episodes=4, horizon=5, seed=0,
    )
    result = GraphRARE("gin", config).fit(graph, split)
    print(f"GIN  (plain)   : {100 * result.baseline_test_acc:.1f}%")
    print(f"GIN-RARE       : {100 * result.test_acc:.1f}%")
    print(f"improvement    : {100 * result.improvement:+.1f} points")


if __name__ == "__main__":
    main()

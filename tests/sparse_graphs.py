"""Graphs with wide, sparse bag-of-words features, shared by the GNN
sparse-operand tests and the entropy CSR-Gram tests."""

import numpy as np

from repro.datasets import planted_partition_graph
from repro.graph import Graph


def wide_sparse_graph(
    num_nodes=48, num_features=300, density=0.04, mean_degree=5.0, seed=0
):
    """A planted-partition topology with bag-of-words-like features."""
    g = planted_partition_graph(
        num_nodes=num_nodes, homophily=0.4, mean_degree=mean_degree,
        num_features=num_features, seed=seed,
    )
    rng = np.random.default_rng(seed + 100)
    keep = rng.random(g.features.shape) < density
    features = np.where(keep, np.abs(g.features) + 0.5, 0.0)
    return Graph._from_keys(g.num_nodes, g.edge_keys(), features, g.labels)

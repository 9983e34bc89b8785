"""Graph-level metrics: edge homophily ratio (Eq. 1) and degree statistics."""

from __future__ import annotations

import numpy as np

from .graph import Graph


def homophily_ratio(graph: Graph) -> float:
    """Edge homophily ``H = |{(v,u) in E : y_v = y_u}| / |E|`` (Eq. 1).

    ``H`` near 1 indicates a homophilic graph, near 0 a heterophilic one.
    Returns 0.0 for an edgeless graph (the ratio is undefined; zero keeps
    downstream curves plottable).
    """
    if graph.labels is None:
        raise ValueError("homophily ratio requires node labels")
    if graph.num_edges == 0:
        return 0.0
    # Endpoints straight from the keys: no (E, 2) array is cached on the
    # graph, which may be a memoised rewire.
    keys = graph.edge_keys()
    n = np.int64(graph.num_nodes)
    u = keys // n
    same = graph.labels[u] == graph.labels[keys - u * n]
    return float(same.mean())


def degree_statistics(graph: Graph) -> dict:
    """Summary of the degree distribution (used in dataset validation)."""
    deg = graph.degrees()
    return {
        "min": int(deg.min()),
        "max": int(deg.max()),
        "mean": float(deg.mean()),
        "median": float(np.median(deg)),
        "isolated": int((deg == 0).sum()),
    }


def class_distribution(graph: Graph) -> np.ndarray:
    """Fraction of nodes per class."""
    if graph.labels is None:
        raise ValueError("class distribution requires node labels")
    counts = np.bincount(graph.labels, minlength=graph.num_classes)
    return counts / counts.sum()

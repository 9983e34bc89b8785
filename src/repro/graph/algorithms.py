"""Graph algorithms: k-hop neighbourhoods, components, distances, Laplacian.

``k_hop_neighbors`` implements the ``N_k(v)`` of the paper's Table I; the
rest supports dataset validation, analysis utilities and the examples.
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional

import numpy as np
import scipy.sparse as sp

from .graph import Graph


def k_hop_neighbors(graph: Graph, v: int, k: int) -> np.ndarray:
    """Nodes at shortest-path distance *exactly* ``k`` from ``v`` (Table I's
    ``N_k(v)``; ``k = 1`` returns the one-hop neighbour set)."""
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    if not 0 <= v < graph.num_nodes:
        raise ValueError(f"node {v} out of range")
    if k == 0:
        return np.array([v], dtype=np.int64)
    dist = shortest_path_lengths(graph, v)
    return np.flatnonzero(dist == k).astype(np.int64)


def within_k_hops(graph: Graph, v: int, k: int) -> np.ndarray:
    """Nodes at distance 1..k from ``v`` (the extended neighbourhood)."""
    dist = shortest_path_lengths(graph, v)
    return np.flatnonzero((dist >= 1) & (dist <= k)).astype(np.int64)


def shortest_path_lengths(graph: Graph, source: int) -> np.ndarray:
    """BFS distances from ``source``; unreachable nodes get -1."""
    dist = np.full(graph.num_nodes, -1, dtype=np.int64)
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in graph.neighbors(u):
            if dist[w] < 0:
                dist[w] = dist[u] + 1
                queue.append(int(w))
    return dist


def connected_components(graph: Graph) -> np.ndarray:
    """Component id per node (0-based, in discovery order)."""
    labels = np.full(graph.num_nodes, -1, dtype=np.int64)
    current = 0
    for start in range(graph.num_nodes):
        if labels[start] >= 0:
            continue
        labels[start] = current
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for w in graph.neighbors(u):
                if labels[w] < 0:
                    labels[w] = current
                    queue.append(int(w))
        current += 1
    return labels


def num_connected_components(graph: Graph) -> int:
    """Number of connected components (isolated nodes count as one each)."""
    return int(connected_components(graph).max()) + 1


def largest_component(graph: Graph) -> np.ndarray:
    """Node ids of the largest connected component."""
    labels = connected_components(graph)
    counts = np.bincount(labels)
    return np.flatnonzero(labels == counts.argmax()).astype(np.int64)


def subgraph(graph: Graph, nodes: np.ndarray) -> Graph:
    """Induced subgraph on ``nodes`` (features/labels sliced, ids remapped)."""
    nodes = np.asarray(sorted(set(int(n) for n in nodes)), dtype=np.int64)
    if len(nodes) == 0:
        raise ValueError("subgraph requires at least one node")
    remap = {int(old): new for new, old in enumerate(nodes)}
    keep = set(remap)
    edges = [
        (remap[u], remap[v])
        for u, v in graph.edges
        if u in keep and v in keep
    ]
    features = graph.features[nodes] if graph.features is not None else None
    labels = graph.labels[nodes] if graph.labels is not None else None
    return Graph(len(nodes), edges, features=features, labels=labels)


def laplacian(graph: Graph, normalized: bool = False) -> sp.csr_matrix:
    """Combinatorial ``D - A`` or symmetric-normalised Laplacian."""
    adj = graph.adjacency()
    deg = np.asarray(adj.sum(axis=1)).ravel()
    if not normalized:
        return (sp.diags(deg) - adj).tocsr()
    inv_sqrt = np.zeros_like(deg)
    nz = deg > 0
    inv_sqrt[nz] = deg[nz] ** -0.5
    d_half = sp.diags(inv_sqrt)
    n = graph.num_nodes
    return (sp.eye(n) - d_half @ adj @ d_half).tocsr()


def to_networkx(graph: Graph):
    """Convert to a ``networkx.Graph`` with feature/label node attributes."""
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(graph.num_nodes))
    g.add_edges_from(graph.edges)
    if graph.labels is not None:
        nx.set_node_attributes(
            g, {i: int(y) for i, y in enumerate(graph.labels)}, "label"
        )
    return g


def from_networkx(
    g,
    features: Optional[np.ndarray] = None,
    labels: Optional[np.ndarray] = None,
) -> Graph:
    """Build a :class:`Graph` from a networkx graph (nodes must be 0..N-1,
    or they are relabelled in sorted order)."""
    nodes = sorted(g.nodes())
    remap = {node: i for i, node in enumerate(nodes)}
    edges = [(remap[u], remap[v]) for u, v in g.edges() if u != v]
    if labels is None and all("label" in g.nodes[n] for n in nodes):
        labels = np.array([g.nodes[n]["label"] for n in nodes], dtype=np.int64)
    return Graph(len(nodes), edges, features=features, labels=labels)

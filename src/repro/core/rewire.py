"""Graph topology optimisation module (Sec. IV-B, Fig. 4).

Given the per-node state ``S = [k_1..k_N, d_1..d_N]`` the module rebuilds
the graph from the *original* topology: for every node ``v`` it connects the
top-``k_v`` entries of ``v``'s entropy sequence and removes the edges to the
``d_v`` lowest-entropy one-hop neighbours.

The rewiring works on edge keys: the add/remove pairs implied by
``(k, d)`` are gathered with batched numpy from the entropy sequences' CSR
layout and applied to the base graph's sorted edge-key array as one set
difference and one merge of int64 keys — the resulting graph is rebuilt
through the trusted fast constructor without re-hashing a single edge.
The seed's set-of-tuples loop survives as :func:`rewire_graph_reference`
for the equivalence property tests and the scaling benchmark.
"""

from __future__ import annotations

import numpy as np

from ..entropy import EntropySequences
from ..graph import Graph


def state_bounds(
    graph: Graph,
    sequences: EntropySequences,
    k_max: int,
    d_max: int,
) -> tuple:
    """Per-node upper bounds ``(k_bound, d_bound)`` of the feasible state.

    ``k_v`` cannot exceed the number of available remote candidates and
    ``d_v`` cannot exceed the node's original degree (you cannot delete
    edges that do not exist).  Both depend only on the immutable base
    graph, so batched steppers compute them once and reuse them.
    """
    avail = (sequences.remote >= 0).sum(axis=1)
    deg = graph.degrees()
    return np.minimum(k_max, avail), np.minimum(d_max, deg)


def clamp_state(
    k: np.ndarray,
    d: np.ndarray,
    graph: Graph,
    sequences: EntropySequences,
    k_max: int,
    d_max: int,
) -> tuple:
    """Clip per-node counts to their feasible ranges (see
    :func:`state_bounds`)."""
    k_bound, d_bound = state_bounds(graph, sequences, k_max, d_max)
    k = np.clip(k, 0, k_bound)
    d = np.clip(d, 0, d_bound)
    return k.astype(np.int64), d.astype(np.int64)


def clamp_state_batch(
    k: np.ndarray,
    d: np.ndarray,
    graph: Graph,
    sequences: EntropySequences,
    k_max: int,
    d_max: int,
    bounds: tuple | None = None,
) -> tuple:
    """Batched :func:`clamp_state` over ``(B, N)`` state arrays.

    One broadcasted clip against the shared per-node bounds replaces B
    per-episode calls; row ``b`` of the result is byte-identical to
    ``clamp_state(k[b], d[b], ...)``.  ``bounds`` optionally supplies a
    precomputed :func:`state_bounds` pair so per-step callers skip the
    availability/degree rescan.
    """
    if bounds is None:
        bounds = state_bounds(graph, sequences, k_max, d_max)
    k_bound, d_bound = bounds
    k = np.clip(k, 0, k_bound[None, :])
    d = np.clip(d, 0, d_bound[None, :])
    return k.astype(np.int64), d.astype(np.int64)


def _sorted_unique(keys: np.ndarray) -> np.ndarray:
    """Sort + mask dedup; avoids np.unique's hash path on int64 keys."""
    if keys.shape[0] < 2:
        return keys
    keys = np.sort(keys)
    mask = np.empty(keys.shape[0], dtype=bool)
    mask[0] = True
    np.not_equal(keys[1:], keys[:-1], out=mask[1:])
    return keys[mask]


def _removal_keys(
    sequences: EntropySequences, d: np.ndarray, n: np.int64
) -> np.ndarray:
    """Canonical keys of every edge some endpoint selects for deletion."""
    indptr, flat = sequences.neighbor_csr()
    lengths = np.diff(indptr)
    take = np.minimum(np.maximum(d, 0), lengths)
    rows = np.repeat(np.arange(n), lengths)
    # Position of each flat entry inside its row; the first take[v] entries
    # of row v are exactly worst_neighbors(v, d[v]).
    pos = np.arange(flat.shape[0]) - indptr[rows]
    sel = pos < take[rows]
    v, u = rows[sel], flat[sel]
    lo = np.minimum(u, v)
    hi = np.maximum(u, v)
    return _sorted_unique(lo * n + hi)


def _addition_keys(
    sequences: EntropySequences, k: np.ndarray, n: np.int64
) -> np.ndarray:
    """Canonical keys of every pair some endpoint selects for connection."""
    mc = sequences.max_candidates
    cols = np.arange(mc)
    sel = (cols[None, :] < np.minimum(k, mc)[:, None]) & (sequences.remote >= 0)
    v = np.nonzero(sel)[0]
    u = sequences.remote[sel]
    keep = u != v  # candidates never contain the ego node; guard anyway
    v, u = v[keep], u[keep]
    lo = np.minimum(u, v)
    hi = np.maximum(u, v)
    return _sorted_unique(lo * n + hi)


def rewire_graph(
    graph: Graph,
    sequences: EntropySequences,
    k: np.ndarray,
    d: np.ndarray,
    add_edges: bool = True,
    remove_edges: bool = True,
) -> Graph:
    """Build ``G_{t+1}`` from the original graph and the state ``(k, d)``.

    An edge is removed when *either* endpoint selects it for deletion, and
    added when either endpoint selects the pair — consistent with keeping
    the graph undirected.  ``graph`` may itself be derived (a churned
    topology): the result depends only on its edge keys, and it carries
    no :class:`~repro.graph.GraphDelta`, so it keeps no other graph alive.
    """
    k = np.asarray(k, dtype=np.int64)
    d = np.asarray(d, dtype=np.int64)
    n = graph.num_nodes
    if k.shape != (n,) or d.shape != (n,):
        raise ValueError(
            f"k and d must have shape ({n},), got {k.shape} and {d.shape}"
        )

    nn = np.int64(n)
    keys = graph.edge_keys()
    if remove_edges and (d > 0).any():
        gone = _removal_keys(sequences, d, nn)
        keys = keys[~np.isin(keys, gone, assume_unique=True)]
    if add_edges and (k > 0).any():
        # A candidate may re-insert an edge the removal pass just dropped.
        cand = _addition_keys(sequences, k, nn)
        keys = _sorted_unique(np.concatenate([keys, cand]))
    return Graph._from_keys(n, keys, graph.features, graph.labels)


def rewire_graph_reference(
    graph: Graph,
    sequences: EntropySequences,
    k: np.ndarray,
    d: np.ndarray,
    add_edges: bool = True,
    remove_edges: bool = True,
) -> Graph:
    """The seed's per-node set-of-tuples rewiring loop.

    Semantically identical to :func:`rewire_graph`; kept as the ground
    truth for the equivalence property tests and as the baseline the
    scaling benchmark measures speedups against.
    """
    k = np.asarray(k, dtype=np.int64)
    d = np.asarray(d, dtype=np.int64)
    n = graph.num_nodes
    if k.shape != (n,) or d.shape != (n,):
        raise ValueError(
            f"k and d must have shape ({n},), got {k.shape} and {d.shape}"
        )

    edges = set(graph.edges)
    if remove_edges:
        for v in range(n):
            if d[v] <= 0:
                continue
            for u in sequences.worst_neighbors(v, int(d[v])):
                edge = (v, u) if v < u else (u, v)
                edges.discard(edge)
    if add_edges:
        for v in range(n):
            if k[v] <= 0:
                continue
            for u in sequences.top_remote(v, int(k[v])):
                u = int(u)
                if u != v:
                    edges.add((v, u) if v < u else (u, v))
    return graph.with_edges(edges)


def edit_distance(a: Graph, b: Graph) -> int:
    """Number of edge insertions plus deletions between two topologies."""
    if a.num_nodes == b.num_nodes:
        return int(
            np.setxor1d(a.edge_keys(), b.edge_keys(), assume_unique=True).shape[0]
        )
    return len(a.edges ^ b.edges)

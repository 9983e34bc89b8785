"""The :class:`Graph` container used across the library.

A graph is ``G = (V, E, X, A)`` as in the paper's Table I: node features
``X`` (dense ``N x d``), integer labels ``y``, and an undirected, unweighted
adjacency.  The *primary* topology state is a sorted, deduplicated array of
canonical edge keys (``u * N + v`` with ``u < v``) — a compiled CSR-style
representation that every derived structure (adjacency, degrees, neighbour
slices) is built from with vectorised numpy, never per-edge Python loops.
The historical frozen-set edge API is kept as a lazily materialised
compatibility view.  Self-loops are disallowed (propagation rules add their
own self-connections where the layer definition calls for them).
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Optional, Tuple

import numpy as np
import scipy.sparse as sp

Edge = Tuple[int, int]


class GraphDelta:
    """The edge-level difference between a graph and the base it came from.

    Functional updates (:func:`repro.core.rewire.rewire_graph`,
    :meth:`Graph.add_edges`, :meth:`Graph.remove_edges`) already know exactly
    which canonical edge keys they inserted and deleted; recording that
    knowledge on the derived graph lets downstream consumers — the
    incremental reward engine above all — patch cached propagation matrices
    and re-evaluate only the edit's halo instead of rebuilding from scratch.

    ``base`` is a live reference: it keeps the root graph (and whatever is
    memoised in its ``cache``) alive for the derived graph's lifetime.
    That is exactly what the reward loop wants — every rewire shares one
    immutable base — but a caller deriving a graph only to discard the
    original can sever the link with ``derived.delta = None``.

    Attributes
    ----------
    base:
        The graph this delta is measured against (shared, not copied).
    added:
        Sorted canonical keys (``u * N + v``, ``u < v``) present in the
        derived graph but not in ``base``.
    removed:
        Sorted canonical keys present in ``base`` but not in the derived
        graph.
    """

    __slots__ = ("base", "added", "removed")

    def __init__(
        self, base: "Graph", added: np.ndarray, removed: np.ndarray
    ) -> None:
        self.base = base
        self.added = np.asarray(added, dtype=np.int64)
        self.removed = np.asarray(removed, dtype=np.int64)

    @property
    def num_edits(self) -> int:
        """Total number of inserted plus deleted edges."""
        return int(self.added.shape[0] + self.removed.shape[0])

    @property
    def is_empty(self) -> bool:
        """Whether the delta edits nothing (the graph equals its base)."""
        return self.num_edits == 0

    def edit_pairs(self) -> np.ndarray:
        """All edited edges as an ``(num_edits, 2)`` canonical-pair array."""
        keys = np.concatenate([self.added, self.removed])
        n = np.int64(self.base.num_nodes)
        return np.stack([keys // n, keys % n], axis=1)

    def touched_nodes(self) -> np.ndarray:
        """Sorted unique endpoints of every inserted or deleted edge."""
        if self.is_empty:
            return np.empty(0, dtype=np.int64)
        return np.unique(self.edit_pairs().ravel())

    def degree_changes(self) -> np.ndarray:
        """Per-node signed degree difference (derived minus base)."""
        n = self.base.num_nodes
        change = np.zeros(n, dtype=np.int64)
        nn = np.int64(n)
        if self.added.shape[0]:
            pairs = np.stack([self.added // nn, self.added % nn], axis=1)
            change += np.bincount(pairs.ravel(), minlength=n)
        if self.removed.shape[0]:
            pairs = np.stack([self.removed // nn, self.removed % nn], axis=1)
            change -= np.bincount(pairs.ravel(), minlength=n)
        return change

    def __repr__(self) -> str:
        return (
            f"GraphDelta(+{self.added.shape[0]} edges, "
            f"-{self.removed.shape[0]} edges)"
        )


def _member_sorted(keys: np.ndarray, sorted_keys: np.ndarray) -> np.ndarray:
    """Membership of ``keys`` in the sorted unique ``sorted_keys`` via
    binary search — O(len(keys) log E), no concat-sort like ``np.isin``."""
    if not sorted_keys.shape[0]:
        return np.zeros(keys.shape[0], dtype=bool)
    pos = np.minimum(
        np.searchsorted(sorted_keys, keys), sorted_keys.shape[0] - 1
    )
    return sorted_keys[pos] == keys


def _collapsed_delta(base: "Graph", keys: np.ndarray) -> GraphDelta:
    """Delta of the key set ``keys`` against ``base``'s *root* graph.

    When ``base`` itself carries a delta, the new delta is recorded
    against that delta's base instead — iterative edits
    (``g = g.add_edges(...)`` in a loop) therefore never build a chain of
    back-references pinning every intermediate graph (and its
    propagation-matrix cache) in memory, and a consumer bound to the root
    (the incremental evaluator) stays eligible across chained edits.
    """
    root = base.delta.base if base.delta is not None else base
    root_keys = root.edge_keys()
    return GraphDelta(
        root,
        keys[np.isin(keys, root_keys, assume_unique=True, invert=True)],
        root_keys[np.isin(root_keys, keys, assume_unique=True, invert=True)],
    )


def csr_layout(
    keys: np.ndarray,
    num_nodes: int,
    self_loops: bool = False,
    descending: bool = False,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR ``(indptr, indices, counts)`` of ``A`` (``A + I`` with
    ``self_loops``) from sorted canonical edge keys, in one int64 sort.

    ``counts`` holds each row's entry count.  Columns ascend within a
    row, or descend with ``descending``.  All three are int64;
    ``scipy.sparse.csr_matrix`` narrows the index arrays to int32 when
    they fit, as its own constructions do.
    """
    n = np.int64(num_nodes)
    u = keys // n
    v = keys - u * n
    nodes = np.arange(n if self_loops else 0, dtype=np.int64)
    rows = np.concatenate([u, v, nodes])
    cols = np.concatenate([v, u, nodes])
    if descending:  # sort on mirrored columns, then mirror back
        cols = (n - 1) - cols
    pairs = np.sort(rows * n + cols)
    rows = pairs // n
    cols = pairs - rows * n
    if descending:
        cols = (n - 1) - cols
    counts = np.bincount(rows, minlength=num_nodes)
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr, cols, counts


def canonical_edge(u: int, v: int) -> Edge:
    """Return the undirected edge ``{u, v}`` in sorted-tuple form."""
    return (u, v) if u < v else (v, u)


def _edges_to_array(edges: Iterable[Edge]) -> np.ndarray:
    """Coerce any iterable of ``(u, v)`` pairs into an ``(E, 2)`` int array."""
    if isinstance(edges, np.ndarray):
        arr = np.asarray(edges, dtype=np.int64)
    else:
        pairs = list(edges)
        if not pairs:
            return np.empty((0, 2), dtype=np.int64)
        arr = np.asarray(pairs, dtype=np.int64)
    if arr.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"edges must be (u, v) pairs, got shape {arr.shape}")
    return arr


def checked_features(
    features: Optional[np.ndarray], num_nodes: int
) -> Optional[np.ndarray]:
    """``features`` as a float64 ``(N, d)`` matrix of finite entries, or
    one ``ValueError`` line naming what is wrong (``None`` passes)."""
    if features is None:
        return None
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise ValueError(
            f"features must be a 2-D (N, d) matrix, got shape {features.shape}"
        )
    if features.shape[0] != num_nodes:
        raise ValueError(
            f"features have {features.shape[0]} rows for N={num_nodes}"
        )
    bad = ~np.isfinite(features)
    if bad.any():
        first = int(np.flatnonzero(bad.any(axis=1))[0])
        raise ValueError(
            f"features must be finite: {int(bad.sum())} non-finite "
            f"entries, first in row {first}"
        )
    return features


def checked_labels(
    labels: Optional[np.ndarray], num_nodes: int
) -> Optional[np.ndarray]:
    """``labels`` as ``N`` non-negative int64 class ids, or one
    ``ValueError`` line naming what is wrong (``None`` passes)."""
    if labels is None:
        return None
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (num_nodes,):
        raise ValueError(f"labels shape {labels.shape} != ({num_nodes},)")
    negative = labels < 0
    if negative.any():
        first = int(np.flatnonzero(negative)[0])
        raise ValueError(
            f"labels must be non-negative class ids: "
            f"{int(negative.sum())} negative, first {labels[first]} "
            f"at node {first}"
        )
    return labels


class Graph:
    """An attributed, undirected graph.

    Parameters
    ----------
    num_nodes:
        ``N``, the number of nodes.
    edges:
        Iterable of ``(u, v)`` pairs; direction and duplicates are ignored,
        self-loops are rejected.
    features:
        Dense node-feature matrix ``X`` of shape ``(N, d)``; every entry
        must be finite.
    labels:
        Integer class labels ``y`` of shape ``(N,)`` (optional for unlabeled
        graphs); class ids start at 0, so a negative label is rejected.
    """

    def __init__(
        self,
        num_nodes: int,
        edges: Iterable[Edge],
        features: Optional[np.ndarray] = None,
        labels: Optional[np.ndarray] = None,
    ) -> None:
        if num_nodes <= 0:
            raise ValueError(f"num_nodes must be positive, got {num_nodes}")
        self.num_nodes = int(num_nodes)

        arr = _edges_to_array(edges)
        if arr.shape[0]:
            loops = arr[:, 0] == arr[:, 1]
            if loops.any():
                u = int(arr[loops][0, 0])
                raise ValueError(f"self-loop ({u}, {u}) is not allowed")
            bad = (arr < 0) | (arr >= num_nodes)
            if bad.any():
                u, v = (int(x) for x in arr[bad.any(axis=1)][0])
                raise ValueError(f"edge ({u}, {v}) out of range for N={num_nodes}")
            lo = np.minimum(arr[:, 0], arr[:, 1])
            hi = np.maximum(arr[:, 0], arr[:, 1])
            keys = np.unique(lo * np.int64(self.num_nodes) + hi)
        else:
            keys = np.empty(0, dtype=np.int64)
        self._edge_keys = keys

        self.features = checked_features(features, self.num_nodes)
        self.labels = checked_labels(labels, self.num_nodes)
        self._init_derived()

    def _init_derived(self) -> None:
        self._edges_view: Optional[FrozenSet[Edge]] = None
        self._edge_array: Optional[np.ndarray] = None
        self._adj: Optional[sp.csr_matrix] = None
        self._deg: Optional[np.ndarray] = None
        self.delta: Optional[GraphDelta] = None
        """Edge delta against the graph this one was derived from, when the
        constructing operation knows it (see :class:`GraphDelta`)."""
        self.cache: dict = {}
        """Scratch space for derived structures (propagation matrices, ...).

        Graphs are immutable, so anything derived from the topology can be
        memoised here; rewiring produces a new ``Graph`` with a fresh cache.
        """

    # ------------------------------------------------------------------
    # Trusted fast constructor
    # ------------------------------------------------------------------
    @classmethod
    def _from_keys(
        cls,
        num_nodes: int,
        keys: np.ndarray,
        features: Optional[np.ndarray] = None,
        labels: Optional[np.ndarray] = None,
    ) -> "Graph":
        """Unchecked rebuild from sorted, unique, canonical edge keys.

        Internal fast path for rewiring: ``keys`` must already be validated
        (``u * N + v`` with ``0 <= u < v < N``, strictly increasing).
        Features and labels are shared, not copied.
        """
        g = cls.__new__(cls)
        g.num_nodes = int(num_nodes)
        g._edge_keys = keys
        g.features = features
        g.labels = labels
        g._init_derived()
        return g

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    def edge_keys(self) -> np.ndarray:
        """Sorted unique canonical edge keys ``u * N + v`` (read-only)."""
        return self._edge_keys

    def edge_array(self) -> np.ndarray:
        """Canonical edges as an ``(E, 2)`` int64 array, lexicographically
        sorted (equivalent to ``sorted(graph.edges)``)."""
        if self._edge_array is None:
            n = np.int64(self.num_nodes)
            self._edge_array = np.stack(
                [self._edge_keys // n, self._edge_keys % n], axis=1
            )
        return self._edge_array

    @property
    def edges(self) -> FrozenSet[Edge]:
        """The canonical undirected edge set (compatibility view)."""
        if self._edges_view is None:
            self._edges_view = frozenset(map(tuple, self.edge_array().tolist()))
        return self._edges_view

    @property
    def num_edges(self) -> int:
        """Number of undirected edges (each ``u < v`` pair once)."""
        return int(self._edge_keys.shape[0])

    @property
    def num_features(self) -> int:
        """Feature width (0 for a featureless graph)."""
        return 0 if self.features is None else self.features.shape[1]

    @property
    def num_classes(self) -> int:
        """Label count, ``max(label) + 1`` (0 for an unlabelled graph)."""
        return 0 if self.labels is None else int(self.labels.max()) + 1

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the undirected edge ``{u, v}`` is present (``False``
        for out-of-range ids)."""
        u, v = (u, v) if u < v else (v, u)
        if not (0 <= u < self.num_nodes and 0 <= v < self.num_nodes):
            return False
        key = np.int64(u) * self.num_nodes + v
        i = int(np.searchsorted(self._edge_keys, key))
        return i < self._edge_keys.shape[0] and self._edge_keys[i] == key

    # ------------------------------------------------------------------
    # Derived structures (cached)
    # ------------------------------------------------------------------
    def adjacency(self) -> sp.csr_matrix:
        """Symmetric binary adjacency matrix ``A`` (no self-loops)."""
        if self._adj is None:
            n = self.num_nodes
            indptr, indices, _ = csr_layout(self._edge_keys, n)
            self._adj = sp.csr_matrix(
                (np.ones(indices.shape[0]), indices, indptr), shape=(n, n)
            )
        return self._adj

    def degrees(self) -> np.ndarray:
        """Node degree vector ``d_v``."""
        if self._deg is None:
            ea = self.edge_array()
            self._deg = np.bincount(
                ea.ravel(), minlength=self.num_nodes
            ).astype(np.int64)
        return self._deg

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted one-hop neighbour ids ``N1(v)``."""
        adj = self.adjacency()
        return adj.indices[adj.indptr[v] : adj.indptr[v + 1]].astype(np.int64)

    def csr_neighbors(self) -> Tuple[np.ndarray, np.ndarray]:
        """CSR ``(indptr, indices)`` of the adjacency, both int64.

        The flat neighbour layout every vectorised kernel consumes:
        node ``v``'s sorted neighbours are
        ``indices[indptr[v]:indptr[v + 1]]``.
        """
        adj = self.adjacency()
        return adj.indptr.astype(np.int64), adj.indices.astype(np.int64)

    # ------------------------------------------------------------------
    # Row-range shard/slice helpers (the entropy shard planner's substrate)
    # ------------------------------------------------------------------
    def edge_key_range(self, lo: int, hi: int) -> Tuple[int, int]:
        """Index range ``(i0, i1)`` into :meth:`edge_keys` for the edges
        whose *canonical* (smaller) endpoint lies in ``[lo, hi)``.

        Because keys are ``u * N + v`` with ``u < v`` and sorted, a node
        row-range maps to one contiguous key slice — the property the
        entropy shard planner exploits to stream edge ranges per worker.
        """
        if not (0 <= lo <= hi <= self.num_nodes):
            raise ValueError(
                f"row range [{lo}, {hi}) out of bounds for N={self.num_nodes}"
            )
        n = np.int64(self.num_nodes)
        i0 = int(np.searchsorted(self._edge_keys, np.int64(lo) * n))
        i1 = int(np.searchsorted(self._edge_keys, np.int64(hi) * n))
        return i0, i1

    def edge_key_slice(self, lo: int, hi: int) -> np.ndarray:
        """Sorted canonical edge keys with smaller endpoint in ``[lo, hi)``."""
        i0, i1 = self.edge_key_range(lo, hi)
        return self._edge_keys[i0:i1]

    def csr_row_slice(self, lo: int, hi: int) -> Tuple[np.ndarray, np.ndarray]:
        """Adjacency CSR restricted to rows ``[lo, hi)``.

        Returns ``(indptr_local, indices)`` where
        ``indices[indptr_local[v - lo]:indptr_local[v - lo + 1]]`` are node
        ``v``'s sorted neighbours.  The in-memory entropy engines index the
        shared full CSR directly; this zero-based per-range layout is the
        slicing contract for the roadmap's next sharding step (streaming
        shards from disk, where no global CSR exists).
        """
        if not (0 <= lo <= hi <= self.num_nodes):
            raise ValueError(
                f"row range [{lo}, {hi}) out of bounds for N={self.num_nodes}"
            )
        indptr, indices = self.csr_neighbors()
        local = indptr[lo : hi + 1] - indptr[lo]
        return local, indices[indptr[lo] : indptr[hi]]

    def edge_index(self) -> np.ndarray:
        """Directed edge list of shape ``(2, 2|E|)`` with both orientations.

        Row 0 holds source ids, row 1 destination ids — the COO layout the
        GAT layer consumes.
        """
        adj = self.adjacency().tocoo()
        return np.vstack([adj.row, adj.col]).astype(np.int64)

    # ------------------------------------------------------------------
    # Functional updates (graphs are treated as immutable)
    # ------------------------------------------------------------------
    def with_edges(self, edges: Iterable[Edge]) -> "Graph":
        """A copy of this graph with a replaced edge set (shared X, y)."""
        return Graph(self.num_nodes, edges, self.features, self.labels)

    def add_edges(self, new_edges: Iterable[Edge]) -> "Graph":
        """A copy with ``new_edges`` added (self-loops silently skipped).

        The result carries a :class:`GraphDelta` against this graph's root
        (see :func:`_collapsed_delta`) recording the genuinely new keys.
        """
        empty = np.empty(0, dtype=np.int64)
        arr = _edges_to_array(new_edges)
        arr = arr[arr[:, 0] != arr[:, 1]]
        if not arr.shape[0]:
            keys = self._edge_keys
            added = empty
        else:
            bad = (arr < 0) | (arr >= self.num_nodes)
            if bad.any():
                u, v = (int(x) for x in arr[bad.any(axis=1)][0])
                raise ValueError(
                    f"edge ({u}, {v}) out of range for N={self.num_nodes}"
                )
            lo = np.minimum(arr[:, 0], arr[:, 1])
            hi = np.maximum(arr[:, 0], arr[:, 1])
            new_keys = np.unique(lo * np.int64(self.num_nodes) + hi)
            added = new_keys[~_member_sorted(new_keys, self._edge_keys)]
            keys = np.union1d(self._edge_keys, new_keys)
        g = Graph._from_keys(self.num_nodes, keys, self.features, self.labels)
        # O(|edits| log E) delta on the common unchained case; collapse to
        # the root otherwise so chains never pin intermediates.
        if self.delta is None:
            g.delta = GraphDelta(self, added, empty)
        else:
            g.delta = _collapsed_delta(self, keys)
        return g

    def remove_edges(self, gone_edges: Iterable[Edge]) -> "Graph":
        """A copy with ``gone_edges`` removed (absent edges ignored).

        The result carries a :class:`GraphDelta` against this graph's root
        (see :func:`_collapsed_delta`) recording the keys actually present
        and removed.
        """
        empty = np.empty(0, dtype=np.int64)
        arr = _edges_to_array(gone_edges)
        if arr.shape[0]:
            # Out-of-range pairs cannot be present, but their lo*N+hi key
            # could alias a real edge's — drop them before keying.
            arr = arr[((arr >= 0) & (arr < self.num_nodes)).all(axis=1)]
        if not arr.shape[0]:
            keys = self._edge_keys
            removed = empty
        else:
            lo = np.minimum(arr[:, 0], arr[:, 1])
            hi = np.maximum(arr[:, 0], arr[:, 1])
            gone = np.unique(lo * np.int64(self.num_nodes) + hi)
            removed = gone[_member_sorted(gone, self._edge_keys)]
            keys = self._edge_keys[~_member_sorted(self._edge_keys, removed)]
        g = Graph._from_keys(self.num_nodes, keys, self.features, self.labels)
        # O(|edits| log E) delta on the common unchained case; collapse to
        # the root otherwise so chains never pin intermediates.
        if self.delta is None:
            g.delta = GraphDelta(self, empty, removed)
        else:
            g.delta = _collapsed_delta(self, keys)
        return g

    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return (
            f"Graph(N={self.num_nodes}, |E|={self.num_edges}, "
            f"d={self.num_features}, C={self.num_classes})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        same_features = (
            (self.features is None and other.features is None)
            or (
                self.features is not None
                and other.features is not None
                and np.array_equal(self.features, other.features)
            )
        )
        same_labels = (
            (self.labels is None and other.labels is None)
            or (
                self.labels is not None
                and other.labels is not None
                and np.array_equal(self.labels, other.labels)
            )
        )
        return (
            self.num_nodes == other.num_nodes
            and np.array_equal(self._edge_keys, other._edge_keys)
            and same_features
            and same_labels
        )

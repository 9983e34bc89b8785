"""Incremental reward engine: delta propagation updates + halo forwards.

The RL loop's per-step cost is dominated by the reward evaluation: every
rewired graph rebuilds its propagation matrices from scratch and the GNN
scores **all** ``N`` nodes, even though one ``(k, d)`` rewire edits a small
set of edges whose influence — for a two-layer backbone — cannot escape the
2-hop halo of the edited endpoints.  This module makes both observations
operational:

1. **Delta-based propagation updates.**  :func:`repro.core.rewire.
   rewire_graph` records the exact inserted/deleted edge keys on the
   rewired graph (:class:`~repro.graph.GraphDelta`).  Given the base
   graph's cached matrices, :func:`patched_adjacency`,
   :func:`patched_gcn_norm`, :func:`patched_row_norm` and
   :func:`patched_two_hop` splice only the rows whose entries can differ
   (touched endpoints, their degree-affected neighbour rows, and — for the
   strict two-hop matrix — the delta's 2-hop closure); every other row's
   index/data segment is copied verbatim, so unchanged entries are
   *byte-identical* to a from-scratch build.

2. **Halo-restricted forward.**  Every registered backbone carries a
   :class:`HaloPlan` — a per-backbone recipe that derives the rewire's
   *halo* (the node rows whose logits can change) from the backbone's
   receptive field and recomputes only those rows against cached
   base-graph activations:

   * **GCN / GraphSAGE** (two linear-propagation rounds): ``(|halo|, N)``
     propagation-row slices (base rows verbatim, dirty rows respliced)
     drive two row-subset :func:`repro.tensor.ops.spmm` stages whose
     results are patched into the cached activations.
   * **GAT**: halo-restricted edge-softmax re-normalisation — attention
     logits are recomputed only for edges incident to dirty rows, and
     softmax denominators are respliced for exactly the destination rows
     whose incoming edge set changed, reusing the cached per-node
     attention ingredients everywhere else (the backbone's
     ``eval_state`` hook captures them once per model version).
   * **H2GCN** (``K`` rounds of 1-hop + strict-2-hop aggregation, final
     concat): the normalised two-hop matrix is delta-patched through the
     shared raw ``two_hop`` cache (:func:`patched_h2gcn_a2`) and the halo
     grows round by round over the union of both aggregation supports.
   * **MixHop** (adjacency powers ``Â^0..Â^2`` per layer): the halo round
     count is the receptive field — max power times the number of layers.

   The halo radius is *derived*, not hardcoded: :func:`grow_halo` iterates
   each plan's per-round frontier, so a ``rounds=3`` H2GCN or a deeper
   user backbone (see ``examples/custom_backbone.py``) declares its own
   reach.  User backbones opt in by setting ``halo_plan`` on the class (or
   calling :func:`register_halo_plan`) and opt out with
   ``halo_plan = None``.

Exactness contract
------------------
See ``docs/equivalence-policy.md`` for the repository-wide policy this
module implements.  In short: the patched propagation matrices are
byte-identical to from-scratch builds (unchanged rows are copied
verbatim; respliced rows recompute the same scalar formula in the same
order).  Off-halo logit rows come from the cached base evaluation and are
byte-identical to a full re-evaluation: every op involved is row-local
(sparse row products sum in identical index order, dense GEMM rows depend
only on their own input row, and per-destination edge-softmax
accumulation preserves each segment's entry order).  Halo rows are
recomputed through row-*subset* GEMMs whose BLAS kernel may block the
inner dimension differently from the full-matrix call, so they are
guaranteed equal at float64 resolution only —
``np.allclose(..., rtol=1e-9, atol=1e-12)``, observed ulp-level
(``<= 3e-16``) in the test suite.  Tie policy: the reward's accuracy term
uses ``argmax`` over logits, so only a class-logit tie within that
tolerance could resolve differently — with continuous weights such ties
have measure zero, and the dense full-graph evaluation is kept as the
reference twin (``RareConfig.incremental_reward = False``).
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from ..graph import Graph
from ..graph.graph import _member_sorted
from ..graph.normalize import gcn_norm, row_norm, two_hop_adjacency
from ..graph.storage import MmapReleaser
from ..nn import masked_metrics
from ..telemetry import SIZE_BUCKETS, Counter, StatsView, get_telemetry
from ..tensor import Tensor, no_grad, ops
from .base import GNNBackbone, cached_matrix, features_tensor
from .models import GAT, GCN, H2GCN, GraphSAGE, MixHop, _normalized_two_hop

__all__ = [
    "HaloPlan",
    "IncrementalEvaluator",
    "PropagationRowSource",
    "ScratchBuffers",
    "grow_halo",
    "install_propagation_caches",
    "patched_adjacency",
    "patched_gcn_norm",
    "patched_h2gcn_a2",
    "patched_row_norm",
    "patched_two_hop",
    "register_halo_plan",
    "resolve_halo_plan",
    "supports_incremental",
]


# ---------------------------------------------------------------------------
# Sparse products + per-evaluation scratch buffers
# ---------------------------------------------------------------------------
def _spmm(matrix: sp.spmatrix, dense: np.ndarray) -> np.ndarray:
    """Sparse-dense product ``matrix @ dense`` as a dense array.

    The same expression as ``ops.spmm``'s forward, so the correction
    paths keep the bitwise off-halo contract.
    """
    return np.asarray(matrix @ dense)


class ScratchBuffers:
    """A free-list of reusable boolean mask buffers, keyed by length.

    The correction-based halo plans (H2GCN, MixHop) allocate a handful of
    ``np.zeros(n, bool)`` masks per round — membership masks in
    :func:`_neighbor_mask`, per-round reach masks, halo accumulators.  At
    RL-loop rates that is pure allocator traffic: every evaluation frees
    exactly what it allocated.  The evaluator therefore owns one pool and
    leases buffers to the plan code for the duration of a single
    evaluation (:func:`_scratch_session`); leased buffers are zeroed on
    hand-out, so reuse can never leak one evaluation's marks into the
    next (regression-tested in ``tests/gnn/test_incremental.py``).

    Plan code never touches the pool directly — it calls
    :func:`_bool_scratch`, which falls back to a fresh allocation when no
    session is active (plans and patch helpers stay usable standalone).

    Examples
    --------
    >>> pool = ScratchBuffers()
    >>> with _scratch_session(pool):
    ...     mask = _bool_scratch(graph.num_nodes)   # leased, all-False
    >>> pool.bool_mask(4) is pool.bool_mask(4)      # fresh lease per call
    False
    """

    def __init__(self) -> None:
        self._free: Dict[int, List[np.ndarray]] = {}
        self._leased: List[np.ndarray] = []

    def bool_mask(self, n: int) -> np.ndarray:
        """Lease a zeroed boolean buffer of length ``n``."""
        free = self._free.get(n)
        if free:
            buf = free.pop()
            buf.fill(False)
        else:
            buf = np.zeros(n, dtype=bool)
        self._leased.append(buf)
        return buf

    def release_all(self) -> None:
        """Return every leased buffer to the free list (contents stale)."""
        for buf in self._leased:
            self._free.setdefault(buf.shape[0], []).append(buf)
        self._leased.clear()


_ACTIVE_SCRATCH: Optional[ScratchBuffers] = None


def _bool_scratch(n: int) -> np.ndarray:
    """A zeroed bool mask of length ``n`` — leased when a session is live."""
    if _ACTIVE_SCRATCH is not None:
        return _ACTIVE_SCRATCH.bool_mask(n)
    return np.zeros(n, dtype=bool)


@contextmanager
def _scratch_session(scratch: ScratchBuffers):
    """Activate ``scratch`` for the extent of one evaluation.

    On exit every leased buffer returns to the pool, so nothing handed
    out here may outlive the ``with`` block — plan return values are
    always ``flatnonzero`` copies or freshly assembled arrays, never the
    masks themselves.
    """
    global _ACTIVE_SCRATCH
    previous = _ACTIVE_SCRATCH
    _ACTIVE_SCRATCH = scratch
    try:
        yield scratch
    finally:
        _ACTIVE_SCRATCH = previous
        scratch.release_all()


# ---------------------------------------------------------------------------
# CSR row surgery primitives
# ---------------------------------------------------------------------------
def _union(*arrays: np.ndarray) -> np.ndarray:
    """Sorted unique union of int64 index arrays (empties welcome)."""
    parts = [np.asarray(a, dtype=np.int64) for a in arrays if len(a)]
    if not parts:
        return np.empty(0, dtype=np.int64)
    return np.unique(np.concatenate(parts))


def _gather_segments(
    indptr: np.ndarray, indices: np.ndarray, rows: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Flattened ``(row_ids, col_ids)`` of the CSR segments of ``rows``."""
    rows = np.asarray(rows, dtype=np.int64)
    counts = (indptr[rows + 1] - indptr[rows]).astype(np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    out_rows = np.repeat(rows, counts)
    starts = np.repeat(indptr[rows].astype(np.int64), counts)
    ends = np.cumsum(counts)
    offsets = np.arange(total, dtype=np.int64) - np.repeat(ends - counts, counts)
    return out_rows, indices[starts + offsets].astype(np.int64)


def _neighbor_union(matrix: sp.csr_matrix, rows: np.ndarray) -> np.ndarray:
    """Unique column ids appearing in the CSR rows ``rows``."""
    return _neighbor_union_csr(matrix.indptr, matrix.indices, rows)


def _neighbor_union_csr(
    indptr: np.ndarray, indices: np.ndarray, rows: np.ndarray
) -> np.ndarray:
    """:func:`_neighbor_union` on raw CSR arrays — the form the
    bundle-backed paths use so a gather never forces the full adjacency
    matrix into existence."""
    if not len(rows):
        return np.empty(0, dtype=np.int64)
    _, cols = _gather_segments(indptr, indices, rows)
    return np.unique(cols)


def _base_csr_arrays(base: Graph) -> Tuple[np.ndarray, np.ndarray]:
    """``(indptr, indices)`` of ``base``'s adjacency for row gathers.

    Bundle-backed graphs that have not materialised their adjacency serve
    the stored CSR memmaps directly — a gather then faults in only the
    pages the requested rows live on — while plain (or already
    materialised) graphs hand out the cached matrix's arrays unchanged,
    so every caller sees identical column ids either way.
    """
    indptr = getattr(base, "_bundle_indptr", None)
    if indptr is not None and base._adj is None:
        return indptr, base._bundle_indices
    adj = base.adjacency()
    return adj.indptr, adj.indices


def _neighbor_mask(
    matrix: sp.csr_matrix, rows: np.ndarray, n: int
) -> np.ndarray:
    """Boolean membership mask of :func:`_neighbor_union` — O(n + volume)
    with no sort, the hot-path twin for the correction-based plans whose
    reachable sets grow toward ``n``.  The mask comes from the active
    scratch pool when an evaluation session is live."""
    mask = _bool_scratch(n)
    if len(rows):
        _, cols = _gather_segments(matrix.indptr, matrix.indices, rows)
        mask[cols] = True
    return mask


def _replace_rows(
    mat: sp.csr_matrix,
    rows: np.ndarray,
    new_cols: np.ndarray,
    new_data: np.ndarray,
    new_lengths: np.ndarray,
) -> sp.csr_matrix:
    """A copy of ``mat`` with the CSR segments of ``rows`` replaced.

    ``rows`` must be sorted unique; ``new_cols``/``new_data`` hold the
    replacement segments concatenated in that row order (columns sorted
    within each row); ``new_lengths[i]`` is the segment length of
    ``rows[i]``.  Untouched rows are copied verbatim — their float data is
    bitwise-preserved, which is what makes the patched matrices exact.
    """
    n = mat.shape[0]
    old_lengths = np.diff(mat.indptr).astype(np.int64)
    lengths = old_lengths.copy()
    lengths[rows] = new_lengths
    indptr = np.empty(n + 1, dtype=np.int64)
    indptr[0] = 0
    np.cumsum(lengths, out=indptr[1:])
    nnz = int(indptr[-1])
    indices = np.empty(nnz, dtype=np.int64)
    data = np.empty(nnz, dtype=mat.data.dtype)

    dirty = np.zeros(n, dtype=bool)
    dirty[rows] = True
    old_rows = np.repeat(np.arange(n, dtype=np.int64), old_lengths)
    src = np.flatnonzero(~dirty[old_rows])
    if src.shape[0]:
        kept_rows = old_rows[src]
        pos = src - mat.indptr[kept_rows]
        dest = indptr[kept_rows] + pos
        indices[dest] = mat.indices[src]
        data[dest] = mat.data[src]
    if new_cols.shape[0]:
        seg_rows = np.repeat(rows, new_lengths)
        seg_ends = np.cumsum(new_lengths)
        pos = np.arange(new_cols.shape[0], dtype=np.int64) - np.repeat(
            seg_ends - new_lengths, new_lengths
        )
        dest = indptr[seg_rows] + pos
        indices[dest] = new_cols
        data[dest] = new_data
    return sp.csr_matrix((data, indices, indptr), shape=mat.shape)


def _require_delta(graph: Graph):
    if graph.delta is None:
        raise ValueError(
            "graph carries no GraphDelta; incremental patches need a graph "
            "produced by rewire_graph / add_edges / remove_edges"
        )
    return graph.delta


def _new_row_pairs(graph: Graph, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Row-major sorted ``(row, col)`` adjacency pairs of the *new* graph
    restricted to ``rows``, assembled from the base CSR plus the delta."""
    delta = graph.delta
    base_indptr, base_indices = _base_csr_arrays(delta.base)
    nn = np.int64(graph.num_nodes)
    r0, c0 = _gather_segments(base_indptr, base_indices, rows)
    if delta.removed.shape[0] and r0.shape[0]:
        u = delta.removed // nn
        v = delta.removed % nn
        gone = np.concatenate([u * nn + v, v * nn + u])
        keep = np.isin(r0 * nn + c0, gone, invert=True)
        r0, c0 = r0[keep], c0[keep]
    if delta.added.shape[0]:
        u = delta.added // nn
        v = delta.added % nn
        in_rows = np.zeros(graph.num_nodes, dtype=bool)
        in_rows[rows] = True
        ar = np.concatenate([u[in_rows[u]], v[in_rows[v]]])
        ac = np.concatenate([v[in_rows[u]], u[in_rows[v]]])
        r0 = np.concatenate([r0, ar])
        c0 = np.concatenate([c0, ac])
    order = np.lexsort((c0, r0))
    return r0[order], c0[order]


# ---------------------------------------------------------------------------
# Patched propagation matrices
# ---------------------------------------------------------------------------
def patched_adjacency(graph: Graph) -> sp.csr_matrix:
    """``A_new`` spliced from the base adjacency via the graph's delta.

    Only the rows of delta-touched endpoints are rebuilt; every other
    row's segment is copied verbatim, so the result is bitwise identical
    to ``graph.adjacency()`` built from scratch.

    Examples
    --------
    >>> rewired = base.add_edges([(0, 5)])          # carries a GraphDelta
    >>> fast = patched_adjacency(rewired)
    >>> np.array_equal(fast.toarray(), rewired.adjacency().toarray())
    True
    """
    delta = _require_delta(graph)
    base_adj = delta.base.adjacency()
    if delta.is_empty:
        return base_adj
    touched = delta.touched_nodes()
    rows, cols = _new_row_pairs(graph, touched)
    lengths = np.bincount(rows, minlength=graph.num_nodes)[touched]
    return _replace_rows(
        base_adj, touched, cols, np.ones(cols.shape[0]), lengths
    )


def _ensure_adjacency(graph: Graph) -> sp.csr_matrix:
    """The new graph's adjacency, patched into place if not yet built."""
    if graph._adj is None:
        graph._adj = patched_adjacency(graph)
    return graph._adj


def _new_degrees(graph: Graph) -> np.ndarray:
    delta = graph.delta
    return delta.base.degrees() + delta.degree_changes()


def _inv_sqrt_degrees(deg: np.ndarray, add_self_loops: bool) -> np.ndarray:
    """``D^{-1/2}`` factors, computed exactly as the fresh ``gcn_norm``
    build does (float power on the self-loop-augmented degrees) so
    respliced values are bitwise identical.  Shared by the full-matrix
    patch and the halo plans — the exactness contract depends on the two
    paths never diverging."""
    degv = (deg + 1 if add_self_loops else deg).astype(np.float64)
    inv = np.zeros_like(degv)
    nz = degv > 0
    inv[nz] = degv[nz] ** -0.5
    return inv


def _inv_degrees(deg: np.ndarray, add_self_loops: bool) -> np.ndarray:
    """``D^{-1}`` factors, the ``row_norm`` twin of
    :func:`_inv_sqrt_degrees` (same sharing rationale)."""
    degv = (deg + 1 if add_self_loops else deg).astype(np.float64)
    inv = np.zeros_like(degv)
    nz = degv > 0
    inv[nz] = 1.0 / degv[nz]
    return inv


def _with_self_loops(
    rows: np.ndarray, cols: np.ndarray, dirty: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Append a ``(r, r)`` entry for every dirty row and restore the
    row-major sorted order the splice/slice constructors require."""
    rows = np.concatenate([rows, dirty])
    cols = np.concatenate([cols, dirty])
    order = np.lexsort((cols, rows))
    return rows[order], cols[order]


def patched_gcn_norm(
    graph: Graph, add_self_loops: bool = True, cache_key: str = "gcn_norm"
) -> sp.csr_matrix:
    """``D^{-1/2}(A + I)D^{-1/2}`` of a delta-carrying graph by row/col patch.

    Entries can differ from the base matrix only in the rows of touched
    endpoints and of neighbours of degree-changed endpoints (the
    symmetric normalisation couples each entry to both endpoint degrees);
    exactly those rows are respliced with freshly scaled values, the rest
    is the base matrix's data verbatim.

    Examples
    --------
    >>> rewired = rewire_graph(base, sequences, k, d)
    >>> fast = patched_gcn_norm(rewired)            # no O(E) rebuild
    >>> np.array_equal(fast.toarray(), gcn_norm(rewired).toarray())
    True
    """
    delta = _require_delta(graph)
    base = delta.base
    builder = gcn_norm if add_self_loops else (
        lambda g: gcn_norm(g, add_self_loops=False)
    )
    base_mat = cached_matrix(base, cache_key, builder)
    if delta.is_empty:
        return base_mat

    inv_sqrt = _inv_sqrt_degrees(_new_degrees(graph), add_self_loops)

    touched = delta.touched_nodes()
    deg_changed = np.flatnonzero(delta.degree_changes())
    dirty = _union(touched, _neighbor_union(base.adjacency(), deg_changed))
    rows, cols = _new_row_pairs(graph, dirty)
    if add_self_loops:
        rows, cols = _with_self_loops(rows, cols, dirty)
    vals = inv_sqrt[rows] * inv_sqrt[cols]
    lengths = np.bincount(rows, minlength=graph.num_nodes)[dirty]
    return _replace_rows(base_mat, dirty, cols, vals, lengths)


def patched_row_norm(
    graph: Graph, add_self_loops: bool = False, cache_key: str = "row_norm"
) -> sp.csr_matrix:
    """``D^{-1} A`` of a delta-carrying graph by row patch.

    The row normalisation couples an entry to its *row* degree only, so
    just the touched endpoints' rows are respliced.

    Examples
    --------
    >>> rewired = base.remove_edges([(2, 7)])
    >>> fast = patched_row_norm(rewired)
    >>> np.array_equal(fast.toarray(), row_norm(rewired).toarray())
    True
    """
    delta = _require_delta(graph)
    base = delta.base
    builder = (
        (lambda g: row_norm(g, add_self_loops=True)) if add_self_loops else row_norm
    )
    base_mat = cached_matrix(base, cache_key, builder)
    if delta.is_empty:
        return base_mat

    inv = _inv_degrees(_new_degrees(graph), add_self_loops)

    touched = delta.touched_nodes()
    rows, cols = _new_row_pairs(graph, touched)
    if add_self_loops:
        rows, cols = _with_self_loops(rows, cols, touched)
    vals = inv[rows]
    lengths = np.bincount(rows, minlength=graph.num_nodes)[touched]
    return _replace_rows(base_mat, touched, cols, vals, lengths)


def _two_hop_closure(graph: Graph) -> np.ndarray:
    """Rows of the strict two-hop matrix whose *structure* can change:
    the 1-hop closure (old and new neighbourhoods) of the touched
    endpoints."""
    delta = graph.delta
    touched = delta.touched_nodes()
    return _union(
        touched,
        _neighbor_union(delta.base.adjacency(), touched),
        _neighbor_union(_ensure_adjacency(graph), touched),
    )


def _strict_two_hop_rows(
    graph: Graph, rows: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fresh strict-2-hop structure of the *new* graph for ``rows``.

    Returns row-major sorted ``(local_rows, cols, lengths)`` where
    ``local_rows`` indexes into ``rows``: the rows of ``A_new[rows] @
    A_new`` after the strict cleanup (no ego, no one-hop overlap).
    """
    adj_new = _ensure_adjacency(graph)
    sub = (adj_new[rows] @ adj_new).tocoo()
    ego = rows[sub.row]
    col = sub.col.astype(np.int64)
    keep = col != ego
    if keep.any():
        lo = np.minimum(ego, col)
        hi = np.maximum(ego, col)
        keys = lo * np.int64(graph.num_nodes) + hi
        keep &= ~_member_sorted(keys, graph.edge_keys())
    local_rows = sub.row[keep].astype(np.int64)
    cols = col[keep]
    order = np.lexsort((cols, local_rows))
    local_rows, cols = local_rows[order], cols[order]
    lengths = np.bincount(local_rows, minlength=rows.shape[0])
    return local_rows, cols, lengths


def patched_two_hop(graph: Graph, cache_key: str = "two_hop") -> sp.csr_matrix:
    """Strict 2-hop adjacency patched via the delta's 2-hop closure.

    A row of ``A @ A`` can change only if the row's own neighbourhood
    changed or one of its (old or new) neighbours' did — i.e. inside the
    1-hop closure of the touched endpoints.  Those rows are recomputed as
    ``A_new[rows] @ A_new`` with the strict-2-hop cleanup (no ego, no
    one-hop overlap) and spliced into the base matrix.

    Examples
    --------
    >>> rewired = base.add_edges([(0, 5)])          # carries a GraphDelta
    >>> fast = patched_two_hop(rewired)
    >>> (fast != two_hop_adjacency(rewired)).nnz    # bitwise identical
    0
    """
    delta = _require_delta(graph)
    base = delta.base
    base_mat = cached_matrix(base, cache_key, two_hop_adjacency)
    if delta.is_empty:
        return base_mat

    closure = _two_hop_closure(graph)
    local_rows, cols, lengths = _strict_two_hop_rows(graph, closure)
    return _replace_rows(
        base_mat, closure, cols, np.ones(cols.shape[0]), lengths
    )


def _two_hop_rescaling(
    graph: Graph,
) -> Tuple[sp.csr_matrix, np.ndarray, np.ndarray, np.ndarray, np.ndarray,
           np.ndarray, np.ndarray]:
    """Shared core of the strict-two-hop renormalisation.

    Returns ``(base_two, base_d2, closure, local_rows, cols, changed,
    inv2)``: the base raw two-hop matrix and its (memoised) degree
    vector, the structural closure with its fresh row structure
    (row-major sorted, ``local_rows`` indexing into ``closure``), the
    rows whose two-hop degree changed, and the new ``D2^{-1/2}`` scaling.
    Both the full-matrix patch (:func:`patched_h2gcn_a2`) and the H2GCN
    halo plan consume this — the engine's bitwise contract depends on
    the two paths never diverging on the degree/rescale arithmetic.
    """
    delta = graph.delta
    base = delta.base
    base_two = cached_matrix(base, "two_hop", two_hop_adjacency)
    base_d2 = cached_matrix(
        base, "two_hop_deg",
        lambda g: np.asarray(base_two.sum(axis=1)).ravel(),
    )
    closure = _two_hop_closure(graph)
    local_rows, cols, lengths = _strict_two_hop_rows(graph, closure)
    # New two-hop degrees: row sums change only where structure does.
    d2 = base_d2.copy()
    new_counts = lengths.astype(np.float64)
    changed = closure[d2[closure] != new_counts]
    d2[closure] = new_counts
    inv2 = np.zeros_like(d2)
    nz = d2 > 0
    inv2[nz] = d2[nz] ** -0.5
    return base_two, base_d2, closure, local_rows, cols, changed, inv2


def _h2gcn_a2_dirty(graph: Graph) -> Tuple[np.ndarray, sp.csr_matrix]:
    """Dirty rows of the *normalised* strict-two-hop matrix.

    Returns ``(dirty, rows_slice)``: the sorted dirty row ids and their
    freshly scaled ``(|dirty|, N)`` CSR rows.  Dirty rows split into the
    closure (structure changed) and base-structure rows that merely
    touch a column whose two-hop degree changed — the symmetric
    normalisation couples every entry to both endpoint degrees, exactly
    like :func:`patched_gcn_norm`.
    """
    base_two, _, closure, local_rows, cols, changed, inv = (
        _two_hop_rescaling(graph)
    )
    dirty = _union(closure, _neighbor_union(base_two, changed))
    extra = np.setdiff1d(dirty, closure)
    er, ec = _gather_segments(base_two.indptr, base_two.indices, extra)
    rr = np.concatenate([closure[local_rows], er])
    cc = np.concatenate([cols, ec])
    order = np.lexsort((cc, rr))
    rr, cc = rr[order], cc[order]
    rows_slice = _row_slice_matrix(
        dirty, rr, cc, inv[rr] * inv[cc], graph.num_nodes
    )
    return dirty, rows_slice


def patched_h2gcn_a2(
    graph: Graph, cache_key: str = "h2gcn_a2"
) -> sp.csr_matrix:
    """Normalised strict-two-hop matrix (H2GCN's ``A2``) by row patch.

    Splices ``D2^{-1/2} A2 D2^{-1/2}`` of a delta-carrying graph from the
    base graph's cached matrix: structural closure rows are rebuilt from
    the new adjacency, rows coupling to a changed two-hop degree are
    rescaled, everything else is the base data verbatim — bitwise equal to
    the fresh ``_normalized_two_hop`` build, at the cost of the closure's
    two-hop volume instead of a full ``A @ A``.

    Examples
    --------
    >>> rewired = base.add_edges([(0, 5)])
    >>> a2 = patched_h2gcn_a2(rewired)              # no full A @ A rebuild
    >>> np.array_equal(a2.toarray(), _normalized_two_hop(rewired).toarray())
    True
    """
    delta = _require_delta(graph)
    base = delta.base
    cached_matrix(base, "two_hop", two_hop_adjacency)
    base_mat = cached_matrix(base, cache_key, _normalized_two_hop)
    if delta.is_empty:
        return base_mat
    dirty, rows_slice = _h2gcn_a2_dirty(graph)
    return _replace_rows(
        base_mat,
        dirty,
        rows_slice.indices.astype(np.int64),
        rows_slice.data,
        np.diff(rows_slice.indptr).astype(np.int64),
    )


def _row_slice_matrix(
    rows: np.ndarray,
    pair_rows: np.ndarray,
    pair_cols: np.ndarray,
    values: np.ndarray,
    num_cols: int,
) -> sp.csr_matrix:
    """A ``(len(rows), num_cols)`` CSR from row-major sorted pairs."""
    local = np.searchsorted(rows, pair_rows)
    lengths = np.bincount(local, minlength=rows.shape[0])
    indptr = np.empty(rows.shape[0] + 1, dtype=np.int64)
    indptr[0] = 0
    np.cumsum(lengths, out=indptr[1:])
    return sp.csr_matrix(
        (values, pair_cols, indptr), shape=(rows.shape[0], num_cols)
    )


def _halo_matrix(
    base_mat: sp.csr_matrix,
    halo: np.ndarray,
    dirty: np.ndarray,
    dirty_rows: sp.csr_matrix,
) -> sp.csr_matrix:
    """The new graph's propagation rows ``halo`` as a ``(|halo|, N)`` CSR.

    Halo rows outside the dirty set are *unchanged*, so they are extracted
    from the cached base matrix verbatim (bitwise-identical, C-speed fancy
    indexing); only the ``dirty`` rows — supplied as the freshly scaled
    ``dirty_rows`` slice — are respliced.  Per-step cost is proportional
    to the halo's adjacency volume, never to ``|E|``.
    """
    sub = base_mat[halo]
    return _replace_rows(
        sub,
        np.searchsorted(halo, dirty),
        dirty_rows.indices.astype(np.int64),
        dirty_rows.data,
        np.diff(dirty_rows.indptr).astype(np.int64),
    )


#: Cache key -> patcher for :func:`install_propagation_caches`.
_PATCHERS = {
    "adjacency": patched_adjacency,
    "gcn_norm": patched_gcn_norm,
    "h2gcn_a1": lambda g: patched_gcn_norm(
        g, add_self_loops=False, cache_key="h2gcn_a1"
    ),
    "h2gcn_a2": patched_h2gcn_a2,
    "row_norm": patched_row_norm,
    "two_hop": patched_two_hop,
}


def install_propagation_caches(
    graph: Graph, keys: Tuple[str, ...] = ("gcn_norm", "row_norm")
) -> None:
    """Populate ``graph.cache`` with delta-patched propagation matrices.

    Each requested matrix is spliced from the base graph's cached twin
    (built on demand) instead of being rebuilt from scratch — identical
    values, a fraction of the work.  Keys already present are left alone.
    Valid keys: ``"adjacency"``, ``"gcn_norm"``, ``"row_norm"``,
    ``"two_hop"``, ``"h2gcn_a1"``, ``"h2gcn_a2"``.

    Examples
    --------
    >>> rewired = rewire_graph(base, sequences, k, d)   # records a delta
    >>> install_propagation_caches(rewired, ("gcn_norm", "h2gcn_a2"))
    >>> sorted(rewired.cache)                           # ready for forward
    ['gcn_norm', 'h2gcn_a2']
    """
    _require_delta(graph)
    tel = get_telemetry()
    for key in keys:
        if key not in graph.cache:
            tel.count(f"incremental.cache.build.{key}")
            graph.cache[key] = _PATCHERS[key](graph)
        else:
            tel.count(f"incremental.cache.hit.{key}")


# ---------------------------------------------------------------------------
# Halo-aware row loading: propagation rows straight from a graph bundle
# ---------------------------------------------------------------------------
class PropagationRowSource:
    """Serves base propagation-matrix rows from a graph's CSR pages.

    A lazy, read-only stand-in for the cached full ``sp.csr_matrix`` in
    the row-slice halo plans: ``source[rows]`` assembles the requested
    (sorted unique) rows of ``gcn_norm`` / ``row_norm`` / the plain
    adjacency from the graph's ``csr_neighbors()`` arrays plus its degree
    vector.  On a bundle-backed :class:`~repro.graph.storage.MemmapGraph`
    those arrays are the stored memmaps, so a gather faults in only the
    CSR pages the requested rows live on — the dirty-row closure of an
    edit, never ``O(E)``.  The float scaling replays the fresh build's
    exact operations (:func:`_inv_sqrt_degrees` / :func:`_inv_degrees`
    applied to the integer degrees, then one elementwise product), so
    every served row is bitwise identical to the corresponding row of the
    materialised matrix and :func:`_halo_matrix` accepts a source
    anywhere it accepts the matrix itself.

    Examples
    --------
    >>> mg = load_graph_bundle("cora.bundle")        # memmap-backed
    >>> src = PropagationRowSource(mg, "gcn_norm")
    >>> rows = np.array([3, 4, 17])                  # sorted unique ids
    >>> np.array_equal(src[rows].data, gcn_norm(mg)[rows].data)
    True
    """

    def __init__(self, graph: Graph, key: str) -> None:
        if key not in ("adjacency", "gcn_norm", "row_norm"):
            raise ValueError(
                f"unsupported propagation key for row streaming: {key!r}"
            )
        self.graph = graph
        self.key = key
        self.shape = (graph.num_nodes, graph.num_nodes)
        self._indptr, self._indices = graph.csr_neighbors()
        deg = graph.degrees()
        if key == "gcn_norm":
            self._scale = _inv_sqrt_degrees(deg, add_self_loops=True)
        elif key == "row_norm":
            self._scale = _inv_degrees(deg, add_self_loops=False)
        else:
            self._scale = None

    @property
    def add_self_loops(self) -> bool:
        """Whether served rows carry the spliced-in ``A + I`` diagonal."""
        return self.key == "gcn_norm"

    def __getitem__(self, rows: np.ndarray) -> sp.csr_matrix:
        """The ``(len(rows), N)`` CSR slice of the full matrix's ``rows``
        (sorted unique node ids), bitwise equal to ``full[rows]``."""
        rows = np.asarray(rows, dtype=np.int64).ravel()
        cols, lengths = self._gather(rows)
        return self._assemble(rows, cols, lengths)

    def row_block(self, lo: int, hi: int) -> sp.csr_matrix:
        """Contiguous row range ``[lo, hi)`` — one CSR page read."""
        return self[np.arange(lo, hi, dtype=np.int64)]

    # -- internals -----------------------------------------------------
    def _gather(
        self, rows: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        indptr, indices = self._indptr, self._indices
        if rows.size == 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        starts = np.asarray(indptr[rows], dtype=np.int64)
        ends = np.asarray(indptr[rows + 1], dtype=np.int64)
        lengths = ends - starts
        # Consecutive rows share one contiguous indices window; coalesce
        # runs so a halo that is mostly contiguous costs few reads.
        breaks = np.flatnonzero(rows[1:] != rows[:-1] + 1)
        run_lo = np.r_[0, breaks + 1]
        run_hi = np.r_[breaks, rows.size - 1]
        parts = [
            np.asarray(indices[starts[a]:ends[b]], dtype=np.int64)
            for a, b in zip(run_lo, run_hi)
        ]
        cols = (
            np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
        )
        tel = get_telemetry()
        if tel.enabled:
            tel.count("storage.rows_streamed", rows.size)
            tel.count("storage.bytes_read", int(cols.nbytes))
        return cols, lengths

    def _assemble(
        self, rows: np.ndarray, cols: np.ndarray, lengths: np.ndarray
    ) -> sp.csr_matrix:
        if self.add_self_loops and rows.size:
            # Splice the diagonal entry into each row at its sorted slot —
            # exactly where the fresh build's ``adj + I`` lands it.
            entry_row = np.repeat(
                np.arange(rows.size, dtype=np.int64), lengths
            )
            below = cols < np.repeat(rows, lengths)
            counts = np.bincount(
                entry_row[below], minlength=rows.size
            ).astype(np.int64)
            offsets = np.empty(rows.size, dtype=np.int64)
            offsets[0] = 0
            np.cumsum(lengths[:-1], out=offsets[1:])
            cols = np.insert(cols, offsets + counts, rows)
            lengths = lengths + 1
        if self.key == "adjacency":
            data = np.ones(cols.shape[0], dtype=np.float64)
        elif self.key == "gcn_norm":
            data = self._scale[np.repeat(rows, lengths)] * self._scale[cols]
        else:  # row_norm
            # The materialised ``row_norm`` stores each row's columns in
            # *reverse*-sorted order (the order of the ``diag @ csr``
            # product it is byte-equal to; docs/equivalence-policy.md,
            # "Propagation matrices") and spmm accumulates in stored
            # order, so the served rows replicate that order to keep
            # downstream products bitwise identical.
            if cols.size:
                offsets = np.empty(rows.size, dtype=np.int64)
                offsets[0] = 0
                np.cumsum(lengths[:-1], out=offsets[1:])
                rep_off = np.repeat(offsets, lengths)
                rep_len = np.repeat(lengths, lengths)
                idx = np.arange(cols.shape[0], dtype=np.int64)
                cols = cols[2 * rep_off + rep_len - 1 - idx]
            data = np.repeat(self._scale[rows], lengths)
        indptr = np.empty(rows.size + 1, dtype=np.int64)
        indptr[0] = 0
        np.cumsum(lengths, out=indptr[1:])
        return sp.csr_matrix(
            (data, cols, indptr), shape=(rows.size, self.shape[1])
        )


def _chunked_rows(fn, array: np.ndarray, chunk_rows: int, release=None):
    """Apply a row-wise dense map over ``array`` one row chunk at a time.

    Row-blocked GEMMs reproduce the one-shot product bitwise on this
    repo's BLAS (K-ordered accumulation; asserted by the property suite),
    so the streamed base states stay on the exact contract while never
    holding more than ``chunk_rows`` rows of a memmapped operand.
    """
    n = array.shape[0]
    out = None
    for lo in range(0, n, chunk_rows):
        hi = min(lo + chunk_rows, n)
        block = fn(array[lo:hi])
        if out is None:
            out = np.empty((n, block.shape[1]), dtype=block.dtype)
        out[lo:hi] = block
        if release is not None:
            release.step()
    return out


def _streamed_spmm(
    source: PropagationRowSource,
    dense: np.ndarray,
    chunk_rows: int,
    transform=None,
    release=None,
) -> np.ndarray:
    """``source @ dense`` assembled row block by row block.

    CSR sparse-dense products are row-independent, so stitching
    block-wise results reproduces the full product bitwise while only
    one block of the propagation matrix exists at a time.  ``transform``
    fuses a following dense row map (GraphSAGE's ``neigh1``) so the full
    ``(N, d)`` neighbour aggregate never materialises either.
    """
    n = source.shape[0]
    out = None
    for lo in range(0, n, chunk_rows):
        hi = min(lo + chunk_rows, n)
        block = _spmm(source.row_block(lo, hi), dense)
        if transform is not None:
            block = transform(block)
        if out is None:
            out = np.empty((n, block.shape[1]), dtype=block.dtype)
        out[lo:hi] = block
        if release is not None:
            release.step()
    return out


#: Row-chunk size of the streamed base-state builders: large enough to
#: amortise per-block overhead, small enough that one block of features
#: plus its CSR pages stays far below any sensible memory budget.
STREAM_CHUNK_ROWS = 16_384


# ---------------------------------------------------------------------------
# Halo plans: per-backbone recipes for halo-restricted evaluation
# ---------------------------------------------------------------------------
class HaloPlan:
    """Per-backbone recipe for halo-restricted incremental evaluation.

    A plan answers three questions for its backbone: what to cache per
    model version (:meth:`base_state`), which rows a given edge delta can
    reach (:meth:`prepare`, usually via :func:`grow_halo` with a
    round count derived from the backbone's receptive field), and how to
    recompute exactly those rows against the cached state
    (:meth:`logits`).  Plans are registered per backbone class
    (:func:`register_halo_plan`) or declared on the class itself via the
    ``halo_plan`` attribute; ``halo_plan = None`` opts a backbone out (the
    evaluator then always runs the dense reference forward).

    Examples
    --------
    A user backbone declares its plan on the class (see
    ``examples/custom_backbone.py`` for a runnable version):

    >>> class MyPlan(HaloPlan):
    ...     matrix_keys = ("gcn_norm",)
    ...     @staticmethod
    ...     def base_state(model, graph): ...
    ...     @staticmethod
    ...     def prepare(model, graph): ...
    ...     @staticmethod
    ...     def logits(model, graph, state, dirty, halo, ctx): ...
    >>> class MyBackbone(GNNBackbone):
    ...     halo_plan = MyPlan
    """

    #: Propagation cache keys worth delta-patching before a dense forward
    #: (the oversized-halo fallback installs them via
    #: :func:`install_propagation_caches`).
    matrix_keys: Tuple[str, ...] = ()

    #: Optional hook: a dense evaluation that still reuses the cached
    #: per-model-version state (GAT re-normalises every destination from
    #: cached attention ingredients instead of rerunning the transforms).
    dense_from_state = None

    #: Optional hook: an out-of-core :meth:`base_state` twin taking
    #: ``(model, graph)`` for bundle-backed graphs.  Row-slice plans (GCN,
    #: GraphSAGE) build their state through :class:`PropagationRowSource`
    #: and :func:`_streamed_spmm` so neither the propagation matrix nor
    #: the feature matrix is ever fully resident; plans without one fall
    #: back to :meth:`base_state`, which on a
    #: :class:`~repro.graph.storage.MemmapGraph` still routes adjacency
    #: materialisation through the chunked streaming build.
    stream_base_state = None

    #: Whether a halo above ``max_halo_frac`` should fall back to the
    #: dense path.  Row-slice plans (GCN, GraphSAGE) keep ``True``;
    #: correction-based plans (H2GCN, MixHop) whose cost is bounded by
    #: the edit's column support — not the halo's row count — set
    #: ``False`` and always run incrementally.
    oversize_fallback = True

    #: Cache keys to evict after a fallback dense forward (e.g. the raw
    #: ``two_hop`` scaffold once the normalised twin is memoised).
    drop_after_dense: Tuple[str, ...] = ()

    @staticmethod
    def base_state(model: GNNBackbone, graph: Graph) -> Dict[str, np.ndarray]:
        """Eval-mode activations of the base graph, cached per model version."""
        raise NotImplementedError

    @staticmethod
    def prepare(
        model: GNNBackbone, graph: Graph
    ) -> Tuple[np.ndarray, np.ndarray, dict]:
        """``(dirty, halo, ctx)`` of a delta-carrying graph.

        ``dirty`` are the propagation rows whose entries change, ``halo``
        the full set of output rows that can differ (the evaluator sizes
        its fallback check on it), ``ctx`` whatever the plan wants to pass
        to :meth:`logits`.
        """
        raise NotImplementedError

    @staticmethod
    def logits(
        model: GNNBackbone,
        graph: Graph,
        state: Dict[str, np.ndarray],
        dirty: np.ndarray,
        halo: np.ndarray,
        ctx: dict,
    ) -> np.ndarray:
        """Full-graph logits with only the halo rows recomputed."""
        raise NotImplementedError


#: Backbone class -> HaloPlan registry (the ``halo_plan = "auto"`` lookup).
_PLANS: Dict[type, type] = {}


def register_halo_plan(model_cls: type, plan: type | None = None):
    """Register ``plan`` as the halo plan of ``model_cls``.

    Usable as a plain call or as a class decorator.  Registration is what
    ``halo_plan = "auto"`` (the :class:`~repro.gnn.base.GNNBackbone`
    default) resolves against; a ``halo_plan`` attribute set directly on
    a backbone class always wins, and ``None`` opts out.

    Examples
    --------
    >>> @register_halo_plan(MyBackbone)
    ... class MyPlan(HaloPlan):
    ...     ...
    """
    if plan is None:
        def decorate(p: type) -> type:
            _PLANS[model_cls] = p
            return p
        return decorate
    _PLANS[model_cls] = plan
    return plan


def resolve_halo_plan(model: GNNBackbone):
    """The halo plan bound to ``model``'s exact class, or ``None``.

    Resolution order: a ``halo_plan`` attribute declared *on the class
    itself* and not ``"auto"`` (so user backbones can declare a plan —
    or ``None`` to opt out — without touching the registry), then the
    exact-type :func:`register_halo_plan` registry.  Deliberately **not
    inherited**: a subclass usually overrides ``forward`` and with it
    the receptive field, so silently applying the parent's plan would
    produce wrong rewards with no error.  Subclasses whose forward *is*
    compatible re-declare the plan in one line.

    Examples
    --------
    >>> resolve_halo_plan(build_backbone("gat", 8, 2)) is not None
    True
    >>> class MyGAT(GAT): ...              # subclass: no silent inherit
    >>> resolve_halo_plan(MyGAT(8, 2)) is None
    True
    """
    cls_vars = vars(type(model))
    if "halo_plan" in cls_vars:
        declared = cls_vars["halo_plan"]
        if not (isinstance(declared, str) and declared == "auto"):
            return declared
    return _PLANS.get(type(model))


def grow_halo(dirty: np.ndarray, rounds: int, frontier) -> list:
    """Per-round reachable row sets of a ``rounds``-round propagation.

    ``S_1 = dirty`` and ``S_{r+1} = dirty ∪ frontier(S_r)`` — the rows a
    round-``r+1`` aggregation can change are the matrix's own dirty rows
    plus every row adjacent (under the *new* graph's propagation support,
    which is what ``frontier`` must implement) to a row that changed in
    round ``r``.  The round count is the backbone's receptive field:
    2 for GCN/GraphSAGE, ``K`` for H2GCN, max power times layers for
    MixHop.  The output halo is the union of all rounds.

    Examples
    --------
    >>> frontier = lambda rows: _neighbor_union(adj_new, rows)
    >>> sets = grow_halo(np.array([3, 7]), 2, frontier)
    >>> len(sets)
    2
    """
    sets = [np.asarray(dirty, dtype=np.int64)]
    for _ in range(rounds - 1):
        sets.append(_union(dirty, frontier(sets[-1])))
    return sets


class _GCNPlan(HaloPlan):
    """GCN: ``out = Â (relu(Â (X W1 + b1)) W2 + b2)`` (eval mode).

    ``X W1`` is graph-independent and cached per model version; dirty
    rows ``R`` of ``Â`` (touched endpoints plus degree-coupled neighbour
    rows) bound the hidden-layer changes, ``H = R ∪ N_new(R)`` the output
    changes (two propagation rounds, halo radius 2).
    """

    matrix_keys = ("gcn_norm",)

    @staticmethod
    def base_state(model: GCN, graph: Graph) -> Dict[str, np.ndarray]:
        a_hat = cached_matrix(graph, "gcn_norm", gcn_norm)
        xw1 = model.lin1(features_tensor(graph, model)).data
        h1 = _spmm(a_hat, xw1)
        h1 = h1 * (h1 > 0)
        z = model.lin2(Tensor(h1)).data
        out = _spmm(a_hat, z)
        return {"a_hat": a_hat, "xw1": xw1, "z": z, "out": out}

    @staticmethod
    def stream_base_state(model: GCN, graph: Graph) -> Dict[str, np.ndarray]:
        """Out-of-core :meth:`base_state`: ``Â`` is served row-block by
        row-block from the bundle CSR (and kept as a
        :class:`PropagationRowSource` for the halo slices), features are
        pushed through ``lin1`` in row chunks with their pages released
        behind the cursor (row chunks of the CSR operand when the
        features are wide and sparse — that operand is small by its
        density rule).  Bitwise equal to the in-RAM build — blocked
        GEMMs and row-independent spmm stitch to the same bits."""
        src = PropagationRowSource(graph, "gcn_norm")
        release = MmapReleaser(gather=[graph.features, src._indices])
        x = features_tensor(graph, model)
        sparse = sp.issparse(x)
        xw1 = _chunked_rows(
            lambda b: model.lin1(b if sparse else Tensor(b)).data,
            x if sparse else graph.features, STREAM_CHUNK_ROWS,
            release=release,
        )
        h1 = _streamed_spmm(src, xw1, STREAM_CHUNK_ROWS, release=release)
        h1 *= h1 > 0
        z = model.lin2(Tensor(h1)).data
        out = _streamed_spmm(src, z, STREAM_CHUNK_ROWS, release=release)
        release.flush()
        return {"a_hat": src, "xw1": xw1, "z": z, "out": out}

    @staticmethod
    def prepare(
        model: GNNBackbone, graph: Graph
    ) -> Tuple[np.ndarray, np.ndarray, dict]:
        delta = graph.delta
        change = delta.degree_changes()
        touched = delta.touched_nodes()
        # Rows of Â that can change: edited endpoints plus neighbours of
        # degree-changed endpoints (the symmetric normalisation couples an
        # entry to both endpoint degrees).
        dirty = _union(
            touched,
            _neighbor_union_csr(
                *_base_csr_arrays(delta.base), np.flatnonzero(change)
            ),
        )
        pairs = _new_row_pairs(graph, dirty)
        ctx = {"pairs": pairs, "deg": delta.base.degrees() + change}
        return dirty, _union(dirty, pairs[1]), ctx

    @staticmethod
    def logits(
        model: GCN,
        graph: Graph,
        state: Dict[str, np.ndarray],
        dirty: np.ndarray,
        halo: np.ndarray,
        ctx: dict,
    ) -> np.ndarray:
        inv_sqrt = _inv_sqrt_degrees(ctx["deg"], add_self_loops=True)
        pr, pc = _with_self_loops(*ctx["pairs"], dirty)
        a_dirty = _row_slice_matrix(
            dirty, pr, pc, inv_sqrt[pr] * inv_sqrt[pc], graph.num_nodes
        )
        a_halo = _halo_matrix(state["a_hat"], halo, dirty, a_dirty)
        h1 = ops.relu(ops.spmm(a_dirty, Tensor(state["xw1"]))).data
        z_rows = model.lin2(Tensor(h1)).data
        z = ops.scatter_patch_rows(Tensor(state["z"]), dirty, Tensor(z_rows)).data
        out_rows = ops.spmm(a_halo, Tensor(z)).data
        return ops.scatter_patch_rows(
            Tensor(state["out"]), halo, Tensor(out_rows)
        ).data


class _SAGEPlan(HaloPlan):
    """GraphSAGE (mean aggregator): row-normalised ``M = D^{-1}A`` couples
    an entry only to its row degree, so the dirty rows are exactly the
    touched endpoints and ``H = D ∪ N_new(D)`` (two rounds).
    """

    matrix_keys = ("row_norm",)

    @staticmethod
    def base_state(model: GraphSAGE, graph: Graph) -> Dict[str, np.ndarray]:
        m = cached_matrix(graph, "row_norm", row_norm)
        x = features_tensor(graph, model)
        s1x = model.self1(x).data
        h1 = s1x + model.neigh1(Tensor(_spmm(m, graph.features))).data
        h1 = h1 * (h1 > 0)
        out = (
            model.self2(Tensor(h1)).data
            + model.neigh2(Tensor(_spmm(m, h1))).data
        )
        return {"m": m, "s1x": s1x, "h1": h1, "out": out}

    @staticmethod
    def stream_base_state(
        model: GraphSAGE, graph: Graph
    ) -> Dict[str, np.ndarray]:
        """Out-of-core :meth:`base_state`: the ``(N, d)`` neighbour
        aggregate ``M X`` never materialises — each row block is fused
        straight into ``neigh1`` — and ``M`` survives only as a
        :class:`PropagationRowSource`.  Bitwise equal to the in-RAM
        build (same blocked-GEMM argument as the GCN plan)."""
        src = PropagationRowSource(graph, "row_norm")
        release = MmapReleaser(gather=[graph.features, src._indices])
        s1x = _chunked_rows(
            lambda b: model.self1(Tensor(b)).data,
            graph.features, STREAM_CHUNK_ROWS, release=release,
        )
        h1 = s1x + _streamed_spmm(
            src, graph.features, STREAM_CHUNK_ROWS,
            transform=lambda t: model.neigh1(Tensor(t)).data,
            release=release,
        )
        h1 *= h1 > 0
        out = (
            model.self2(Tensor(h1)).data
            + model.neigh2(
                Tensor(_streamed_spmm(src, h1, STREAM_CHUNK_ROWS,
                                      release=release))
            ).data
        )
        release.flush()
        return {"m": src, "s1x": s1x, "h1": h1, "out": out}

    @staticmethod
    def prepare(
        model: GNNBackbone, graph: Graph
    ) -> Tuple[np.ndarray, np.ndarray, dict]:
        delta = graph.delta
        touched = delta.touched_nodes()
        pairs = _new_row_pairs(graph, touched)
        ctx = {"pairs": pairs, "deg": delta.base.degrees() + delta.degree_changes()}
        return touched, _union(touched, pairs[1]), ctx

    @staticmethod
    def logits(
        model: GraphSAGE,
        graph: Graph,
        state: Dict[str, np.ndarray],
        dirty: np.ndarray,
        halo: np.ndarray,
        ctx: dict,
    ) -> np.ndarray:
        inv = _inv_degrees(ctx["deg"], add_self_loops=False)
        pr, pc = ctx["pairs"]
        m_dirty = _row_slice_matrix(dirty, pr, pc, inv[pr], graph.num_nodes)
        m_halo = _halo_matrix(state["m"], halo, dirty, m_dirty)
        mx = ops.spmm(m_dirty, features_tensor(graph, model)).data
        h1_rows = state["s1x"][dirty] + model.neigh1(Tensor(mx)).data
        h1_rows = h1_rows * (h1_rows > 0)
        h1 = ops.scatter_patch_rows(
            Tensor(state["h1"]), dirty, Tensor(h1_rows)
        ).data
        mh = ops.spmm(m_halo, Tensor(h1)).data
        out_rows = (
            model.self2(Tensor(h1[halo])).data + model.neigh2(Tensor(mh)).data
        )
        return ops.scatter_patch_rows(
            Tensor(state["out"]), halo, Tensor(out_rows)
        ).data


# ---------------------------------------------------------------------------
# GAT: halo-restricted edge-softmax re-normalisation
# ---------------------------------------------------------------------------
def _in_edges(
    adj: sp.csr_matrix, rows: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Sub-edge list ``(src, local_dst)`` for the destinations ``rows``.

    Per destination the order is sources ascending, then the self loop —
    exactly the per-segment entry order of the full forward's edge list
    (src-major COO plus a trailing self-loop block), so segment sums
    accumulate bitwise identically.
    """
    rows = np.asarray(rows, dtype=np.int64)
    counts = (adj.indptr[rows + 1] - adj.indptr[rows]).astype(np.int64)
    total = int(counts.sum())
    local = np.repeat(np.arange(rows.shape[0], dtype=np.int64), counts)
    starts = np.repeat(adj.indptr[rows].astype(np.int64), counts)
    ends = np.cumsum(counts)
    offsets = np.arange(total, dtype=np.int64) - np.repeat(ends - counts, counts)
    src = adj.indices[starts + offsets].astype(np.int64)
    local = np.concatenate([local, np.arange(rows.shape[0], dtype=np.int64)])
    src = np.concatenate([src, rows])
    return src, local


def _gat_layer_rows(
    layer,
    lstate: Dict[str, np.ndarray],
    adj: sp.csr_matrix,
    rows: np.ndarray,
    h: np.ndarray | None = None,
    asrc: np.ndarray | None = None,
    adst: np.ndarray | None = None,
) -> np.ndarray:
    """Output rows ``rows`` of one GAT layer under the new topology.

    The cached per-node attention ingredients (``lstate`` from the
    instrumented base forward) supply transformed features and attention
    coefficients; callers pass patched overrides when upstream rows
    changed.  Only the destinations in ``rows`` get their edge softmax
    re-normalised — per-edge logits are recomputed for exactly the edges
    incident to those rows, every other edge's contribution lives on in
    the cached layer output.  Given bitwise-identical inputs the
    recomputed rows are bitwise identical to the full forward
    (per-destination entry order is preserved, see :func:`_in_edges`).
    """
    h = lstate["h"] if h is None else h
    asrc = lstate["asrc"] if asrc is None else asrc
    adst = lstate["adst"] if adst is None else adst
    src, local = _in_edges(adj, rows)
    dim = layer.out_features
    adst_rows = adst[rows]
    outputs = []
    for head in range(layer.heads):
        cols = slice(head * dim, (head + 1) * dim)
        logit = asrc[src, head : head + 1] + adst_rows[local, head : head + 1]
        scale = np.where(logit > 0, 1.0, layer.negative_slope)
        att = ops.segment_softmax_array(logit * scale, local, rows.shape[0])
        messages = h[:, cols][src] * att
        outputs.append(ops.segment_sum_array(messages, local, rows.shape[0]))
    if layer.concat:
        return np.concatenate(outputs, axis=1)
    total = outputs[0]
    for o in outputs[1:]:
        total = total + o
    return total * (1.0 / layer.heads)


def _gat_patched_logits(
    model: GAT,
    graph: Graph,
    state: Dict[str, np.ndarray],
    touched: np.ndarray,
    out_rows: np.ndarray,
    adj: sp.csr_matrix,
) -> np.ndarray:
    """Full-graph GAT logits with layers re-normalised on ``out_rows``.

    Layer 1's per-node ingredients never change (they depend on the
    features only), so its softmax is respliced for exactly the
    ``touched`` destinations; layer 2's per-node ingredients are patched
    for those rows and its softmax re-normalised over ``out_rows``
    (the 2-hop halo — or every node for the dense-from-state fallback).
    """
    l1, l2 = state["layer1"], state["layer2"]
    z1_rows = _gat_layer_rows(model.layer1, l1, adj, touched)
    # ELU exactly as ops.elu (alpha = 1).
    act_rows = np.where(
        z1_rows > 0, z1_rows, np.exp(np.minimum(z1_rows, 0.0)) - 1.0
    )
    layer2 = model.layer2
    h2_rows = act_rows @ layer2.linear.weight.data
    h2 = l2["h"].copy()
    h2[touched] = h2_rows
    dim2 = layer2.out_features
    asrc_cols, adst_cols = [], []
    for head in range(layer2.heads):
        cols = slice(head * dim2, (head + 1) * dim2)
        head_rows = h2_rows[:, cols]
        asrc_cols.append(head_rows @ layer2.att_src.weight.data)
        adst_cols.append(head_rows @ layer2.att_dst.weight.data)
    asrc = l2["asrc"].copy()
    asrc[touched] = np.concatenate(asrc_cols, axis=1)
    adst = l2["adst"].copy()
    adst[touched] = np.concatenate(adst_cols, axis=1)
    patch = _gat_layer_rows(
        layer2, l2, adj, out_rows, h=h2, asrc=asrc, adst=adst
    )
    out = state["out"].copy()
    out[out_rows] = patch
    return out


@register_halo_plan(GAT)
class _GATPlan(HaloPlan):
    """GAT: cached per-node attention state + halo edge-softmax resplice.

    The touched endpoints are the only destinations whose incoming edge
    set changes, so layer 1 re-normalises exactly those rows; their
    changed activations reach layer 2's attention through ``H = T ∪
    N_new(T)`` — the standard 2-round halo, but grown through the
    attention coefficients rather than a propagation matrix.  GAT
    consumes an edge list, not a cached matrix, so there is nothing to
    delta-patch on fallback; instead :meth:`dense_from_state` re-derives
    every destination from the cached ingredients, skipping the feature
    transforms entirely.
    """

    matrix_keys = ()

    @staticmethod
    def base_state(model: GAT, graph: Graph) -> Dict[str, np.ndarray]:
        return model.eval_state(graph)

    @staticmethod
    def prepare(
        model: GAT, graph: Graph
    ) -> Tuple[np.ndarray, np.ndarray, dict]:
        touched = graph.delta.touched_nodes()
        adj_new = _ensure_adjacency(graph)
        frontier = lambda rows: _neighbor_union(adj_new, rows)  # noqa: E731
        rounds = grow_halo(touched, 2, frontier)
        return touched, _union(*rounds), {"adj": adj_new}

    @staticmethod
    def logits(
        model: GAT,
        graph: Graph,
        state: Dict[str, np.ndarray],
        dirty: np.ndarray,
        halo: np.ndarray,
        ctx: dict,
    ) -> np.ndarray:
        return _gat_patched_logits(model, graph, state, dirty, halo, ctx["adj"])

    @staticmethod
    def dense_from_state(
        model: GAT, graph: Graph, state: Dict[str, np.ndarray],
        dirty: np.ndarray, ctx: dict,
    ) -> np.ndarray:
        all_rows = np.arange(graph.num_nodes, dtype=np.int64)
        return _gat_patched_logits(
            model, graph, state, dirty, all_rows, ctx["adj"]
        )


# ---------------------------------------------------------------------------
# H2GCN: K rounds of 1-hop + strict-2-hop aggregation, final concat
# ---------------------------------------------------------------------------
@register_halo_plan(H2GCN)
class _H2GCNPlan(HaloPlan):
    """H2GCN: correction-based rounds over both aggregation supports.

    The two-hop degree renormalisation couples every entry of ``A2`` to
    both endpoint degrees, so a handful of edge edits *rescales* entries
    across a large fraction of rows — a row-sliced halo would cover most
    of the graph.  The exact work is nevertheless tiny, and the plan
    exploits that with column-restricted corrections against the cached
    round products: for every row whose ``A2`` *structure* is unchanged,

    ``(A2' c')[r] = (A2 c)[r] + (A2 (s ⊙ c' - c))[r]``

    where ``s = d2'^{-1/2} / d2^{-1/2}`` differs from 1 only on the rows
    whose two-hop degree changed (inside the structural closure) and
    ``c' - c`` is supported on the previous round's changed rows.  The
    sparse product touches only the columns in that union — cost scales
    with the *edit's* two-hop volume plus the spread of the previous
    round, never with ``|A2|`` — while the closure rows (changed
    structure) are recomputed directly from fresh two-hop rows.  ``A1``
    rows follow the same cached-product + column-correction scheme.  The
    final concat + classify is applied as a per-round block correction
    over the union of the row sets.  The cost is bounded by the
    correction supports (worst case ~ one dense forward, measured at or
    below the state-reusing dense twin in every regime), so the plan
    opts out of the oversized-halo fallback and always runs
    incrementally.
    """

    # No matrix_keys / drop_after_dense: with ``oversize_fallback``
    # off, the evaluator's dense-fallback branch never runs for this
    # plan (opted-out H2GCN subclasses are covered by
    # ``_FALLBACK_MATRIX_KEYS`` instead).
    oversize_fallback = False

    @staticmethod
    def base_state(model: H2GCN, graph: Graph) -> Dict[str, np.ndarray]:
        return model.eval_state(graph)

    @staticmethod
    def prepare(
        model: H2GCN, graph: Graph
    ) -> Tuple[np.ndarray, np.ndarray, dict]:
        delta = graph.delta
        base = delta.base
        change = delta.degree_changes()
        touched = delta.touched_nodes()
        # A1 dirty rows: symmetric normalisation without self loops.
        d1 = _union(
            touched,
            _neighbor_union(base.adjacency(), np.flatnonzero(change)),
        )
        pr, pc = _new_row_pairs(graph, d1)
        inv1 = _inv_sqrt_degrees(base.degrees() + change, add_self_loops=False)
        a1_rows = _row_slice_matrix(
            d1, pr, pc, inv1[pr] * inv1[pc], graph.num_nodes
        )
        # A2 structural closure: fresh strict-2-hop rows + new degrees
        # (shared core with the full-matrix patch).
        base_two, base_d2, closure, local_rows, cols, changed, inv2 = (
            _two_hop_rescaling(graph)
        )
        rr = closure[local_rows]
        a2_closure = _row_slice_matrix(
            closure, rr, cols, inv2[rr] * inv2[cols], graph.num_nodes
        )
        # Rescale factors: 1 everywhere except the degree-changed rows.
        s = np.ones(graph.num_nodes)
        old_nz = base_d2[changed] > 0
        s[changed[old_nz]] = (
            inv2[changed[old_nz]] / base_d2[changed[old_nz]] ** -0.5
        )

        # Per-round changed-row sets (structural supersets of the rows the
        # corrections can touch) — the output halo is their union.  Mask
        # arithmetic keeps this O(n + volume) as the sets grow.
        n = graph.num_nodes
        base_adj = base.adjacency()
        static_mask = _bool_scratch(n)
        static_mask[closure] = True
        static_mask[d1] = True
        changed_mask = _bool_scratch(n)
        changed_mask[changed] = True
        rounds = []
        prev = np.empty(0, dtype=np.int64)
        prev_mask = _bool_scratch(n)
        halo_mask = _bool_scratch(n)
        for _ in range(int(model.rounds)):
            supp = np.flatnonzero(changed_mask | prev_mask)
            mask = (
                static_mask
                | _neighbor_mask(base_two, supp, n)
                | _neighbor_mask(base_adj, prev, n)
            )
            prev = np.flatnonzero(mask)
            prev_mask = mask
            halo_mask |= mask
            rounds.append(prev)
        dirty = _union(d1, closure, changed)
        ctx = {
            # Diagnostic hook: logits recomputes the *actual* reached
            # sets; the structural per-round sets are kept for tests and
            # introspection (their union is the returned halo).
            "rounds": rounds,
            "d1": d1,
            "a1_rows": a1_rows,
            "closure": closure,
            "a2_closure": a2_closure,
            "changed": changed,
            "s": s,
        }
        return dirty, np.flatnonzero(halo_mask), ctx

    @staticmethod
    def logits(
        model: H2GCN,
        graph: Graph,
        state: Dict[str, np.ndarray],
        dirty: np.ndarray,
        halo: np.ndarray,
        ctx: dict,
    ) -> np.ndarray:
        reps = state["reps"]
        a1b, a2b = state["a1"], state["a2"]
        d1, a1_rows = ctx["d1"], ctx["a1_rows"]
        closure, a2_closure = ctx["closure"], ctx["a2_closure"]
        s = ctx["s"]
        n = reps[0].shape[0]
        a1_cols = a1_rows.tocsc()
        a2c_cols = a2_closure.tocsc()

        # Pure delta bookkeeping: round r is represented as the sparse
        # row set it changed plus the dense value delta on those rows —
        # patched representations are never materialised, so per-step
        # traffic scales with the spread of the edit, not with N * width.
        prev_rows = np.empty(0, dtype=np.int64)
        prev_delta: np.ndarray | None = None
        deltas = []
        for r in range(1, len(reps)):
            base_prev = reps[r - 1]
            width = base_prev.shape[1]
            rows_mask = _bool_scratch(n)
            rows_mask[d1] = True
            rows_mask[closure] = True
            # --- A1 block: column-restricted correction against the
            # cached product; dirty rows recomputed directly.
            if prev_rows.shape[0]:
                corr1 = _spmm(a1b[prev_rows].T, prev_delta)
                reach1 = np.flatnonzero(_neighbor_mask(a1b, prev_rows, n))
                rows_mask[reach1] = True
            direct1 = _spmm(a1_rows, base_prev)
            if prev_rows.shape[0]:
                direct1 += _spmm(a1_cols[:, prev_rows], prev_delta)
            # --- A2 block: rescale-aware correction (e = s ⊙ c' - c on
            # its support) + fresh closure rows.
            supp = _union(ctx["changed"], prev_rows)
            if supp.shape[0]:
                e_rows = (s[supp] - 1.0)[:, None] * base_prev[supp]
                if prev_rows.shape[0]:
                    pos = np.searchsorted(prev_rows, supp)
                    pos = np.minimum(pos, prev_rows.shape[0] - 1)
                    hit = prev_rows[pos] == supp
                    e_rows[hit] += (
                        s[supp[hit]][:, None] * prev_delta[pos[hit]]
                    )
                corr2 = _spmm(a2b[supp].T, e_rows)
                reach2 = np.flatnonzero(_neighbor_mask(a2b, supp, n))
                rows_mask[reach2] = True
            direct2 = _spmm(a2_closure, base_prev)
            if prev_rows.shape[0]:
                direct2 += _spmm(a2c_cols[:, prev_rows], prev_delta)
            # --- assemble this round's (rows, delta) pair.
            rows = np.flatnonzero(rows_mask)
            delta = np.zeros((rows.shape[0], 2 * width))
            if prev_rows.shape[0]:
                delta[np.searchsorted(rows, reach1), :width] = corr1[reach1]
            if supp.shape[0]:
                delta[np.searchsorted(rows, reach2), width:] = corr2[reach2]
            # Direct rows win over corrections (full recompute).
            delta[np.searchsorted(rows, d1), :width] = (
                direct1 - reps[r][d1, :width]
            )
            delta[np.searchsorted(rows, closure), width:] = (
                direct2 - reps[r][closure, width:]
            )
            deltas.append((rows, delta))
            prev_rows, prev_delta = rows, delta
        # Final classify as a per-round block correction: the concat
        # means out = out_base + sum_r delta_r @ W_r (rep 0 is
        # graph-independent and contributes nothing).
        out = state["out"].copy()
        weight = model.classify.weight.data
        offset = reps[0].shape[1]
        for (rows, delta) in deltas:
            out[rows] += delta @ weight[offset:offset + delta.shape[1]]
            offset += delta.shape[1]
        return out


# ---------------------------------------------------------------------------
# MixHop: adjacency powers Â^0..Â^2 per layer (receptive field 4)
# ---------------------------------------------------------------------------
@register_halo_plan(MixHop)
class _MixHopPlan(HaloPlan):
    """MixHop: correction-based power propagation over nested round sets.

    The receptive field is max adjacency power (2) times the number of
    layers (2), i.e. four propagation rounds.  ``Â`` carries self loops,
    so the per-round reachable sets nest and the output halo is the last
    one.  Each round patches the cached power product with (a) a direct
    recompute of the dirty ``Â`` rows and (b) a column-restricted
    correction ``Â[:, S_prev] @ Δ_prev`` against the cached product for
    every other reached row — work scales with the spread of the edit,
    never with ``|Â|`` rows (worst case ~ one dense forward), so the
    plan opts out of the oversized-halo fallback and always runs
    incrementally.
    """

    oversize_fallback = False

    @staticmethod
    def base_state(model: MixHop, graph: Graph) -> Dict[str, np.ndarray]:
        return model.eval_state(graph)

    @staticmethod
    def prepare(
        model: MixHop, graph: Graph
    ) -> Tuple[np.ndarray, np.ndarray, dict]:
        delta = graph.delta
        base = delta.base
        change = delta.degree_changes()
        touched = delta.touched_nodes()
        dirty = _union(
            touched,
            _neighbor_union(base.adjacency(), np.flatnonzero(change)),
        )
        pairs = _new_row_pairs(graph, dirty)
        inv = _inv_sqrt_degrees(base.degrees() + change, add_self_loops=True)
        pr, pc = _with_self_loops(*pairs, dirty)
        a_rows = _row_slice_matrix(
            dirty, pr, pc, inv[pr] * inv[pc], graph.num_nodes
        )
        # Non-dirty rows of Â are identical to the base matrix, so the
        # base structure (with its self-loop diagonal) drives the round
        # growth: S_{r+1} = dirty ∪ N_base(S_r) ⊇ S_r.  Mask arithmetic
        # keeps the growth O(n + volume) as the sets approach n.
        n = graph.num_nodes
        a_base = cached_matrix(base, "gcn_norm", gcn_norm)
        max_power = len(model.hop_linears1) - 1
        dirty_mask = _bool_scratch(n)
        dirty_mask[dirty] = True
        rounds = [dirty]
        for _ in range(2 * max_power - 1):
            mask = dirty_mask | _neighbor_mask(a_base, rounds[-1], n)
            rounds.append(np.flatnonzero(mask))
        return dirty, rounds[-1], {"rounds": rounds, "a_rows": a_rows}

    @staticmethod
    def logits(
        model: MixHop,
        graph: Graph,
        state: Dict[str, np.ndarray],
        dirty: np.ndarray,
        halo: np.ndarray,
        ctx: dict,
    ) -> np.ndarray:
        s11, s12, s21, s22 = ctx["rounds"]
        a_rows = ctx["a_rows"]
        ab = state["a_hat"]
        x = graph.features

        def affine(lin, rows):
            return rows @ lin.weight.data + lin.bias.data

        def corrected(cached, prev_new, prev_base, prev_rows):
            """Cached power product + column-restricted correction +
            direct dirty-row recompute."""
            cur = cached.copy()
            if prev_rows.shape[0]:
                delta_prev = prev_new[prev_rows] - prev_base[prev_rows]
                corr = _spmm(ab[prev_rows].T, delta_prev)
                reach = np.flatnonzero(
                    _neighbor_mask(ab, prev_rows, cur.shape[0])
                )
                cur[reach] += corr[reach]
            cur[dirty] = _spmm(a_rows, prev_new)
            return cur

        none = np.empty(0, dtype=np.int64)
        # Layer 1: Â x (x unchanged — direct rows only), then Â² x.
        p11 = corrected(state["props1"][0], x, x, none)
        p12 = corrected(state["props1"][1], p11, state["props1"][0], s11)
        lin1 = model.hop_linears1
        h_rows = np.concatenate(
            [affine(lin1[0], x[s12]), affine(lin1[1], p11[s12]),
             affine(lin1[2], p12[s12])],
            axis=1,
        )
        h_rows = h_rows * (h_rows > 0)
        h = state["h"].copy()
        h[s12] = h_rows
        # Layer 2: two more propagation rounds over the patched hidden.
        p21 = corrected(state["props2"][0], h, state["h"], s12)
        p22 = corrected(state["props2"][1], p21, state["props2"][0], s21)
        lin2 = model.hop_linears2
        out_rows = (
            affine(lin2[0], h[s22]) + affine(lin2[1], p21[s22])
            + affine(lin2[2], p22[s22])
        ) * (1.0 / 3.0)
        out = state["out"].copy()
        out[s22] = out_rows
        return out


register_halo_plan(GCN, _GCNPlan)
register_halo_plan(GraphSAGE, _SAGEPlan)

#: Propagation caches worth delta-patching before a dense forward, for
#: backbones without a halo plan (e.g. a user backbone that opted out via
#: ``halo_plan = None`` but still consumes a standard cached matrix).
_FALLBACK_MATRIX_KEYS = {
    GCN: ("gcn_norm",),
    GraphSAGE: ("row_norm",),
    H2GCN: ("h2gcn_a1", "two_hop"),
    MixHop: ("gcn_norm",),
}


def _fallback_keys(model: GNNBackbone) -> Tuple[str, ...]:
    """Propagation caches worth patching for a plan-less ``model``.

    Walks the MRO so a user subclass that opted out (``halo_plan = None``)
    still benefits from its parent's delta-patched matrices on the dense
    path.
    """
    for cls in type(model).__mro__:
        if cls in _FALLBACK_MATRIX_KEYS:
            return _FALLBACK_MATRIX_KEYS[cls]
    return ()


def supports_incremental(model: GNNBackbone) -> bool:
    """Whether ``model`` has a halo-restricted incremental forward plan.

    Examples
    --------
    >>> supports_incremental(build_backbone("gat", 8, 2))
    True
    >>> supports_incremental(build_backbone("mlp", 8, 2))
    False
    """
    return resolve_halo_plan(model) is not None


# ---------------------------------------------------------------------------
# The evaluator behind the topology env's width-1 rewards
# ---------------------------------------------------------------------------
#: Histogram boundaries for the halo-fraction distribution (0..1 in 5%
#: steps — the same axis ``max_halo_frac`` thresholds on).
_FRAC_BUCKETS = tuple(i / 20.0 for i in range(1, 21))


class IncrementalEvaluator:
    """Reward evaluation that re-computes only a rewire's halo.

    Bound to one model and one immutable base graph — the setting of the
    topology MDP, where every candidate is a small edit of the same base.
    Per model version (:meth:`invalidate` after any weight update) the
    evaluator caches the base graph's eval-mode activations; a
    delta-carrying graph is then scored by the backbone's
    :class:`HaloPlan`: cached propagation matrices are patched
    (:func:`install_propagation_caches`) and the forward re-runs on the
    edit's halo only.  Everything else — backbones without a plan, foreign
    graphs, halos above ``max_halo_frac`` of the nodes — falls back
    transparently to the dense full-graph evaluation, still reusing the
    per-model-version state where the plan supports it
    (``dense_from_state``; GAT re-normalises from cached attention
    ingredients instead of recomputing them each step) and delta-patching
    known propagation caches otherwise (:data:`_FALLBACK_MATRIX_KEYS`).
    ``max_halo_frac`` (default 0.5) is that oversize threshold; tests
    and examples set it to 0 or 1 to force a path.
    ``stats`` counts which path each call took; it is a read-only
    :class:`~repro.telemetry.StatsView` over per-evaluator telemetry
    counters, and under an enabled telemetry session every path is also
    mirrored into the session registry (``incremental.*`` counters, halo
    size/fraction histograms, per-plan correction-time histograms and
    fallback counts by reason).

    Examples
    --------
    >>> inc = IncrementalEvaluator(model, base)
    >>> rewired = rewire_graph(base, sequences, k, d)
    >>> acc, loss = inc.evaluate(rewired, split.train)   # halo path
    >>> trainer.fit(base, split, epochs=2)               # weights moved
    >>> inc.invalidate()                                 # drop cached state
    """

    def __init__(
        self,
        model: GNNBackbone,
        base_graph: Graph,
        max_halo_frac: float = 0.5,
    ) -> None:
        self.model = model
        self.base_graph = base_graph
        self.max_halo_frac = float(max_halo_frac)
        self._plan = resolve_halo_plan(model)
        self._state: Optional[Dict[str, np.ndarray]] = None
        # Per-evaluator mask pool: the correction plans' per-round bool
        # masks are leased from here for the span of one evaluation and
        # recycled (zeroed on hand-out) instead of re-allocated per step.
        self._scratch = ScratchBuffers()
        # Per-evaluator counters behind the ``stats`` view keep exact
        # per-instance numbers in every mode; ``_bump`` mirrors them into
        # the active telemetry session (bound at construction) where they
        # aggregate across evaluators.
        self._tel = get_telemetry()
        self._counters = {
            key: Counter(f"incremental.{key}")
            for key in (
                "base_hits", "halo_evals", "full_evals", "state_fulls",
                "stream_states", "invalidations",
            )
        }
        self.stats = StatsView(self._counters)

    def _bump(self, key: str) -> None:
        self._counters[key].inc()
        self._tel.count(f"incremental.{key}")

    # ------------------------------------------------------------------
    def invalidate(self) -> None:
        """Drop the cached base activations (call after any weight update)."""
        self._state = None
        self._bump("invalidations")

    def _ensure_state(self) -> Dict[str, np.ndarray]:
        if self._state is None:
            stream = getattr(self._plan, "stream_base_state", None)
            if stream is not None and getattr(
                self.base_graph, "is_mmap", False
            ):
                self._bump("stream_states")
                self._state = stream(self.model, self.base_graph)
            else:
                self._state = self._plan.base_state(
                    self.model, self.base_graph
                )
        return self._state

    def _eligible(self, graph: Graph) -> bool:
        return self._plan is not None and self._has_delta(graph)

    def _full_logits(self, graph: Graph) -> np.ndarray:
        self._bump("full_evals")
        return self.model.predict_logits(graph)

    def _has_delta(self, graph: Graph) -> bool:
        return graph.delta is not None and graph.delta.base is self.base_graph

    # ------------------------------------------------------------------
    def predict_logits(self, graph: Graph) -> np.ndarray:
        """Full-graph eval-mode logits of ``graph`` under the bound model."""
        with no_grad():
            return self._predict_logits(graph)

    def _predict_logits(self, graph: Graph) -> np.ndarray:
        if self._plan is not None and graph is self.base_graph:
            self._bump("base_hits")
            return self._ensure_state()["out"].copy()
        if not self._eligible(graph):
            self._tel.count(
                "incremental.fallback.no_plan" if self._plan is None
                else "incremental.fallback.foreign_graph"
            )
            if self._plan is None and self._has_delta(graph):
                # No halo plan for this backbone, but its propagation
                # caches can still be delta-patched before the dense
                # forward (H2GCN's A @ A rebuild is the big win here).
                keys = _fallback_keys(self.model)
                if "h2gcn_a2" in graph.cache:
                    # The raw two-hop patch only feeds the normalized
                    # "h2gcn_a2" build; once that twin is memoised
                    # (revisited memo graphs, post-co-training re-scores)
                    # re-patching it would be pure waste.
                    keys = tuple(k for k in keys if k != "two_hop")
                if keys:
                    install_propagation_caches(graph, keys)
                    logits = self._full_logits(graph)
                    # Drop the raw two-hop rather than retain the densest
                    # matrix twice per memoised graph.
                    if "two_hop" in keys:
                        graph.cache.pop("two_hop", None)
                    return logits
            return self._full_logits(graph)
        state = self._ensure_state()
        if graph.delta.is_empty:
            self._bump("base_hits")
            return state["out"].copy()
        tel = self._tel
        with _scratch_session(self._scratch):
            dirty, halo, ctx = self._plan.prepare(self.model, graph)
            if tel.enabled:
                tel.observe(
                    "incremental.halo_size", halo.shape[0],
                    buckets=SIZE_BUCKETS,
                )
                tel.observe(
                    "incremental.halo_frac",
                    halo.shape[0] / max(graph.num_nodes, 1),
                    buckets=_FRAC_BUCKETS,
                )
            if (
                getattr(self._plan, "oversize_fallback", True)
                and halo.shape[0] > self.max_halo_frac * graph.num_nodes
            ):
                tel.count("incremental.fallback.oversize")
                # Too much of the graph is dirty for row slicing to pay
                # off.  Plans with a state-reusing dense path (GAT) still
                # evaluate from the per-model-version cache — the
                # satellite bugfix: attention state is
                # cached-and-invalidated once per version even on the
                # dense path, never recomputed per step.
                dense = getattr(self._plan, "dense_from_state", None)
                if dense is not None:
                    self._bump("state_fulls")
                    return dense(self.model, graph, state, dirty, ctx)
                # Otherwise patch the full propagation matrices into the
                # graph's cache (cheaper than a rebuild) and run dense.
                install_propagation_caches(graph, self._plan.matrix_keys)
                logits = self._full_logits(graph)
                for key in getattr(self._plan, "drop_after_dense", ()):
                    graph.cache.pop(key, None)
                return logits
            self._bump("halo_evals")
            if not tel.enabled:
                return self._plan.logits(
                    self.model, graph, state, dirty, halo, ctx
                )
            start = perf_counter()
            out = self._plan.logits(
                self.model, graph, state, dirty, halo, ctx
            )
            tel.observe(
                "incremental.correction_s."
                f"{type(self.model).__name__.lower()}",
                perf_counter() - start,
            )
            return out

    def evaluate(self, graph: Graph, mask: np.ndarray) -> Tuple[float, float]:
        """Eval-mode ``(accuracy, loss)`` on ``mask``.

        The twin of :func:`repro.gnn.trainer.evaluate`: the same
        :func:`repro.nn.masked_metrics` reduction, applied to the
        incrementally patched logits of :meth:`predict_logits`.
        """
        return masked_metrics(self.predict_logits(graph), graph.labels, mask)

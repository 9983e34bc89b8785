"""Node entropy sequence construction (Sec. IV-A.4).

For every node the framework needs two rankings derived from the relative
entropy:

* ``remote``  — non-adjacent candidate nodes sorted by *descending* entropy;
  the DRL agent connects the top-``k_v`` of these (informative remote nodes).
* ``neighbors`` — current one-hop neighbours sorted by *ascending* entropy;
  the agent removes the top-``d_v`` of these (noisy local edges).

Only the best ``max_candidates`` remote nodes are retained per node, which
bounds memory at ``O(N * max_candidates)`` while leaving plenty of headroom
for the DRL's ``k`` range.

Ranking ties are broken deterministically by ascending node id in both
directions, so the sequences are a pure function of the entropy values.
Neighbour scores that agree to ``TIE_DECIMALS`` decimals count as ties,
so last-bit differences between kernels do not reorder mathematically
equal neighbours.

The default builder is fully vectorised and comes in two engines, both
executed as row-range shards on an optional thread pool (see
:mod:`repro.entropy.screening`).  :func:`build_entropy_sequences` picks
the engine from its input:

* the *dense* engine scores every pair with a length-sorted tiled
  structural kernel — nodes are processed in descending profile-length
  order, every tile truncates at the longest nonzero profile it can see
  (padding columns collapse to precomputed suffix sums), and contiguous
  scratch buffers keep numpy's SIMD loops hot.  The kernel is
  parameterised over the divergence, so the paper's JS mode and the
  symmetrised-KL ablation share one code path (KL's cross term even
  reduces to two GEMMs over clamped log-profiles).  The feature term
  comes from :class:`~repro.entropy.feature_entropy.GramBlocks`: a CSR
  product on wide sparse embeddings, the BLAS GEMM otherwise;
* the *screened* engine (from ``SCREEN_AUTO_MIN`` nodes on embeddings
  that fail the wide-sparse rule, and for every bundle-backed build)
  prunes the ``O(N^2 L)`` structural work with the certified bound
  ``H <= H_f + lam * hs_max`` evaluated in feature-logit space, then
  rescores only the surviving superset exactly — identical rankings away
  from exact value ties at a fraction of the cost.

The dense engine and the provided-rows builder make one pass over the
pairs: each block of entropy rows is ranked by :func:`_rank_block`, which
reads the rows' neighbour values off the block before masking them, so
neighbour and remote scores come from the same numbers.  The screened
engine scores its shard's edge list with its exact pair scorer.
Candidate selection replaces full row sorts with a ``partition``
threshold plus an exact tie-respecting ``lexsort`` of the few surviving
candidates.

The seed's per-node loop survives as
:func:`build_entropy_sequences_reference` for the equivalence property
tests and the scaling benchmark.  Feeding both builders the same
precomputed row matrix ``H`` makes their outputs byte-identical; when each
computes its own rows, values may differ in the last ulp (batched GEMM and
the decomposed JS are not bitwise equal to the per-row formulas) but every
ranking is identical away from exact value ties.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from ..graph import Graph
from ..telemetry import get_telemetry
from ..tensor.sparse import sparse_features
from .feature_entropy import GramBlocks
from .relative_entropy import RelativeEntropy
from .screening import (
    SCREEN_DEFAULT_SHARDS,
    _KL_EPS,
    _TINY,
    SCREEN_AUTO_MIN,
    TIE_DECIMALS,
    EntropyShardPlan,
    _plogp,
    _suffix_sums,
    build_screen_state,
    neighbor_order,
    run_sharded,
    screen_shard,
    select_topk_flat,
)


@dataclass
class EntropySequences:
    """Per-node entropy rankings backing the topology optimisation module."""

    remote: np.ndarray
    """``(N, max_candidates)`` int array; row v lists remote candidates in
    descending entropy order, padded with -1."""

    remote_scores: np.ndarray
    """Entropy values aligned with :attr:`remote` (``-inf`` padding)."""

    neighbors: List[np.ndarray]
    """Per-node one-hop neighbours, *ascending* entropy (worst first)."""

    neighbor_scores: List[np.ndarray]
    """Entropy values aligned with :attr:`neighbors`."""

    flat_neighbors: Optional[np.ndarray] = field(default=None, repr=False)
    """Flat CSR concatenation of :attr:`neighbors` (built lazily when the
    vectorised rewiring engine asks for it)."""

    neighbor_indptr: Optional[np.ndarray] = field(default=None, repr=False)
    """Row pointers into :attr:`flat_neighbors`."""

    @property
    def num_nodes(self) -> int:
        """Number of ranked nodes ``N``."""
        return self.remote.shape[0]

    @property
    def max_candidates(self) -> int:
        """Width of :attr:`remote`: remote candidates kept per node."""
        return self.remote.shape[1]

    @classmethod
    def _from_flat(
        cls,
        remote: np.ndarray,
        remote_scores: np.ndarray,
        indptr: np.ndarray,
        flat_ids: np.ndarray,
        flat_scores: np.ndarray,
    ) -> "EntropySequences":
        """Wrap a builder's outputs; the neighbour arrays are flat CSR."""
        return cls(
            remote=remote,
            remote_scores=remote_scores,
            neighbors=list(np.split(flat_ids, indptr[1:-1])),
            neighbor_scores=list(np.split(flat_scores, indptr[1:-1])),
            flat_neighbors=flat_ids,
            neighbor_indptr=indptr.copy(),
        )

    def top_remote(self, v: int, k: int) -> np.ndarray:
        """The ``k`` best remote candidates for node ``v`` (may be fewer)."""
        row = self.remote[v]
        return row[: k][row[:k] >= 0]

    def worst_neighbors(self, v: int, d: int) -> np.ndarray:
        """The ``d`` lowest-entropy current neighbours of node ``v``."""
        return self.neighbors[v][:d]

    def neighbor_csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """Deletion-ordered neighbours as flat CSR ``(indptr, ids)`` arrays.

        ``ids[indptr[v]:indptr[v] + d]`` are node ``v``'s ``d`` worst
        neighbours — the layout the delta rewiring engine gathers from
        without touching the per-node Python lists.
        """
        if self.flat_neighbors is None:
            n = self.num_nodes
            lengths = np.fromiter(
                (len(a) for a in self.neighbors), dtype=np.int64, count=n
            )
            indptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(lengths, out=indptr[1:])
            flat = (
                np.concatenate(self.neighbors).astype(np.int64)
                if indptr[-1]
                else np.empty(0, dtype=np.int64)
            )
            self.neighbor_indptr = indptr
            self.flat_neighbors = flat
        return self.neighbor_indptr, self.flat_neighbors


def assert_rankings_match(
    fast: "EntropySequences", ref: "EntropySequences", gap: float = 1e-9
) -> int:
    """Assert two builds' remote rankings agree away from exact value ties.

    The shared equivalence definition behind the fast-vs-reference and
    screened-vs-dense property tests and the screening benchmark's recall
    check: per row, the same finite pattern, scores within ``gap``, and
    identical candidate ids at every strictly separated rank.  Positions
    whose score is within ``gap`` of a neighbouring rank may legitimately
    resolve to a different — equally correct — candidate under a different
    float summation order, so they are excluded; the last filled slot of a
    *full* row is excluded too, since its score can tie with the first
    candidate *beyond* ``max_candidates`` (which ``remote_scores`` does
    not store).  Returns the number of strictly separated positions
    compared.
    """
    mc = fast.max_candidates
    compared = 0
    for v in range(fast.num_nodes):
        fs, rs = fast.remote_scores[v], ref.remote_scores[v]
        finite = np.isfinite(fs)
        np.testing.assert_array_equal(
            finite, np.isfinite(rs), err_msg=f"row {v}: pad mismatch"
        )
        np.testing.assert_allclose(
            fs[finite], rs[finite], atol=gap,
            err_msg=f"row {v}: scores diverge beyond the tie gap",
        )
        vals = rs[finite]
        sep = np.ones(len(vals), dtype=bool)
        if len(vals) > 1:
            strict = -np.diff(vals) > gap  # descending with a clear margin
            sep[1:] &= strict
            sep[:-1] &= strict
        if len(vals) == mc:
            sep[-1] = False  # boundary slot may tie with excluded ranks
        assert (fast.remote[v][finite][sep] == ref.remote[v][finite][sep]).all(), (
            f"row {v}: ranking mismatch at separated scores"
        )
        compared += int(sep.sum())
    return compared


# ---------------------------------------------------------------------------
# Vectorised building blocks
# ---------------------------------------------------------------------------
def _select_remote_block(
    masked: np.ndarray, col_ids: Optional[np.ndarray], mc: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Exact top-``mc`` per row of ``masked`` under (descending score,
    ascending id) order; ``-inf`` entries never qualify.

    ``col_ids`` maps column positions to node ids (``None`` = identity).
    A ``partition`` finds each row's value threshold, then only the few
    candidates at or above it are sorted — equivalent to a full stable
    ``argsort`` but an order of magnitude cheaper on wide rows.
    Returns ``(ids, scores)`` of shape ``(B, mc)`` padded with -1 / -inf.
    """
    b, n = masked.shape
    if n == 0 or mc == 0:
        return (
            np.full((b, mc), -1, dtype=np.int64),
            np.full((b, mc), -np.inf),
        )
    kth = min(mc, n) - 1
    thresh = -np.partition(-masked, kth, axis=1)[:, kth]
    cand = masked >= thresh[:, None]
    cand &= np.isfinite(masked)
    r, c = np.nonzero(cand)
    scores = masked[r, c]
    ids = col_ids[c] if col_ids is not None else c
    return select_topk_flat(r, ids, scores, b, mc)


def _rank_block(
    block: np.ndarray,
    row_local: np.ndarray,
    nbr_cols: np.ndarray,
    self_cols: np.ndarray,
    col_ids: Optional[np.ndarray],
    mc: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Both rankings of one block of entropy rows, in one pass.

    ``block`` is ``(B, N)``; row ``r``'s one-hop neighbours sit at columns
    ``nbr_cols[row_local == r]`` (given in ascending node-id order) and
    its own column is ``self_cols[r]``.  The neighbour values are read
    off the block first and put in deletion order by
    :func:`~repro.entropy.screening.neighbor_order` (ascending, ties in
    ascending id order).  Then self and neighbours are masked to ``-inf``
    *in place* and the top-``mc`` remote candidates selected (``col_ids``
    maps columns to node ids, ``None`` = identity).

    Returns ``(order, nbr_scores, remote_ids, remote_scores)``: ``order``
    permutes the block's flat neighbour entries into deletion order and
    ``nbr_scores`` are their values in that order.
    """
    vals = block[row_local, nbr_cols]
    order = neighbor_order(row_local, vals)
    block[np.arange(block.shape[0]), self_cols] = -np.inf
    block[row_local, nbr_cols] = -np.inf
    ids, scores = _select_remote_block(block, col_ids, mc)
    return order, vals[order], ids, scores


def _build_from_rows(graph: Graph, rows_fn, max_candidates: int,
                     block_size: int) -> EntropySequences:
    """Generic blocked builder over entropy rows in original node order."""
    n = graph.num_nodes
    mc = max_candidates
    indptr, indices = graph.csr_neighbors()
    remote = np.full((n, mc), -1, dtype=np.int64)
    remote_scores = np.full((n, mc), -np.inf)
    flat_ids = np.empty(indptr[-1], dtype=np.int64)
    flat_scores = np.empty(indptr[-1])

    for start in range(0, n, block_size):
        stop = min(n, start + block_size)
        b = stop - start
        # A copy: the ranking masks in place and the rows may be a view.
        rows = np.array(rows_fn(start, stop), copy=True)
        lo, hi = indptr[start], indptr[stop]
        nbr = indices[lo:hi]
        row_local = np.repeat(np.arange(b), np.diff(indptr[start : stop + 1]))
        order, vals, ids, scores = _rank_block(
            rows, row_local, nbr, np.arange(start, stop), None, mc
        )
        flat_ids[lo:hi] = nbr[order]
        flat_scores[lo:hi] = vals
        remote[start:stop] = ids
        remote_scores[start:stop] = scores

    return EntropySequences._from_flat(
        remote, remote_scores, indptr, flat_ids, flat_scores
    )


@dataclass
class _SortedState:
    """Length-sorted tiled-kernel state shared by every dense shard worker.

    Everything is a plain array or a :class:`GramBlocks`; workers only
    read it.
    """

    mode: str
    n: int
    m_prof: int
    mc: int
    block_size: int
    tile_size: int
    lam: float
    log_den: float
    inv_scale: float
    perm: np.ndarray
    Pp: np.ndarray
    Ls: np.ndarray
    S: np.ndarray
    gram: GramBlocks
    nbr_ptr: np.ndarray   # neighbour-list row pointers, sorted row order
    nbr_cols: np.ndarray  # neighbour columns (perm order), ascending id per row
    nbr_pos: np.ndarray   # merge only: CSR slot of each nbr_cols entry
    T: Optional[np.ndarray] = None   # js: suffix sums of f(p / 2)
    L2: Optional[np.ndarray] = None  # kl: log2(max(p, eps)), permuted
    PS: Optional[np.ndarray] = None  # kl: suffix sums of p, permuted


def _sorted_state(
    graph: Graph,
    entropy: RelativeEntropy,
    max_candidates: int,
    block_size: int,
    tile_size: int,
) -> _SortedState:
    """Precompute the permuted structural/feature state once per build.

    The CSR neighbour lists are regrouped into sorted row order
    (``nbr_ptr``/``nbr_cols``, columns in permuted coordinates) so a
    shard slices its blocks' neighbours contiguously; ``nbr_pos`` sends
    each entry back to its slot in the original CSR for the merge.
    """
    n = graph.num_nodes
    indptr, indices = graph.csr_neighbors()
    P = entropy.profiles
    m_prof = P.shape[1]
    lengths = (P > 0).sum(axis=1)
    perm = np.argsort(-lengths, kind="stable")
    iperm = np.empty(n, dtype=np.int64)
    iperm[perm] = np.arange(n)
    Pp = np.ascontiguousarray(P[perm])
    deg = np.diff(indptr)[perm]
    nbr_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(deg, out=nbr_ptr[1:])
    nbr_pos = np.repeat(indptr[perm] - nbr_ptr[:-1], deg) + np.arange(
        nbr_ptr[-1]
    )
    state = _SortedState(
        mode=entropy.structural_mode,
        n=n,
        m_prof=m_prof,
        mc=max_candidates,
        block_size=block_size,
        tile_size=tile_size,
        lam=entropy.lam,
        log_den=entropy.log_denominator,
        inv_scale=1.0 / entropy.feature_scale,
        perm=perm,
        Pp=Pp,
        Ls=lengths[perm],
        S=_plogp(P).sum(axis=1)[perm],
        gram=GramBlocks(entropy.Z, perm),
        nbr_ptr=nbr_ptr,
        nbr_cols=iperm[indices[nbr_pos]],
        nbr_pos=nbr_pos,
    )
    if entropy.structural_mode == "kl":
        state.L2 = np.log2(np.maximum(Pp, _KL_EPS))
        state.PS = _suffix_sums(Pp)
    else:
        state.T = _suffix_sums(_plogp(Pp / 2))
    return state


def _sorted_divergence_block(
    state: _SortedState,
    Hb: np.ndarray,
    start: int,
    stop: int,
    tiles,
    buf_t: np.ndarray,
    buf_l: np.ndarray,
) -> None:
    """Fill ``Hb`` with the structural divergence of block ``start:stop``
    against all columns (both in permuted order), truncating every
    (block, tile) pair at ``K = min(block max length, tile max length)``.

    JS needs the elementwise ``(B, W, K)`` mixture pass; the symmetrised
    KL of the ablation decomposes into two ``(B, K) x (K, W)`` GEMMs over
    the clamped log-profiles, with the dropped columns collapsing to
    ``log2(eps)`` times the longer side's suffix mass.
    """
    b = stop - start
    max_lb = int(state.Ls[start])
    Pb = state.Pp[start:stop]
    S = state.S
    if state.mode == "kl":
        log_eps = np.log2(_KL_EPS)
        Lb = state.L2[start:stop]
        for ts, te, tile_max in tiles:
            k_cols = min(max_lb, tile_max)
            cross = Pb[:, :k_cols] @ state.L2[ts:te, :k_cols].T
            cross += Lb[:, :k_cols] @ state.Pp[ts:te, :k_cols].T
            if max_lb <= tile_max:
                suffix = state.PS[ts:te, k_cols][None, :]
            else:
                suffix = state.PS[start:stop, k_cols][:, None]
            # sym-KL = 0.5 (S_p + S_q - sum_k (p_k Lq_k + q_k Lp_k))
            Hb[:, ts:te] = 0.5 * (
                S[start:stop, None] + S[None, ts:te] - cross - log_eps * suffix
            )
        return
    for ts, te, tile_max in tiles:
        w = te - ts
        k_cols = min(max_lb, tile_max)
        t = buf_t[: b * w * k_cols].reshape(b, w, k_cols)
        ell = buf_l[: b * w * k_cols].reshape(b, w, k_cols)
        np.add(Pb[:, None, :k_cols], state.Pp[None, ts:te, :k_cols], out=t)
        t *= 0.5
        np.maximum(t, _TINY, out=t)
        np.log2(t, out=ell)
        t *= ell
        cross = t.sum(axis=-1)
        if max_lb <= tile_max:
            pure = state.T[ts:te, k_cols][None, :]
        else:
            pure = state.T[start:stop, k_cols][:, None]
        # JS = 0.5 (S_p + S_q) - sum_k f((p_k + q_k) / 2)
        Hb[:, ts:te] = 0.5 * (
            S[start:stop, None] + S[None, ts:te]
        ) - (cross + pure)


def _sorted_shard(args) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                                  np.ndarray, np.ndarray]:
    """Dense worker: both rankings for sorted-order rows ``[s0, s1)``.

    Returns ``(orig_rows, ids, scores, nbr_ids, nbr_scores)``; the
    neighbour arrays cover the shard's slice ``nbr_ptr[s0]:nbr_ptr[s1]``
    of the sorted-order neighbour lists, each row in deletion order.
    ``s0``/``s1`` are multiples of the block size, so any sharding
    produces the exact block boundaries of the sequential build and the
    merge is byte-identical for every worker count.
    """
    state, s0, s1 = args
    n, m_prof = state.n, state.m_prof
    block_size, tile_size = state.block_size, state.tile_size
    lam, mc = state.lam, state.mc
    tiles = [
        (ts, min(n, ts + tile_size), int(state.Ls[ts]))
        for ts in range(0, n, tile_size)
    ]
    buf_t = np.empty(block_size * tile_size * max(m_prof, 1))
    buf_l = np.empty(block_size * tile_size * max(m_prof, 1))
    H = np.empty((block_size, n))

    rows = s1 - s0
    out_ids = np.empty((rows, mc), dtype=np.int64)
    out_scores = np.empty((rows, mc))
    base = state.nbr_ptr[s0]
    nbr_ids = np.empty(state.nbr_ptr[s1] - base, dtype=np.int64)
    nbr_scores = np.empty(nbr_ids.shape[0])

    for start in range(s0, s1, block_size):
        stop = min(s1, start + block_size)
        b = stop - start
        Hb = H[:b]

        if lam > 0:
            _sorted_divergence_block(state, Hb, start, stop, tiles, buf_t, buf_l)
            # H_s contribution: lam * (1 - divergence), folded in place.
            Hb *= -lam
            Hb += lam
        else:
            Hb.fill(0.0)

        # Feature term H_f = -P log P from the block Gram, folded in place.
        logits = state.gram(start, stop)
        logits -= state.log_den
        hf = np.exp(logits)
        hf *= logits
        hf *= -state.inv_scale
        Hb += hf

        # Columns live in perm order; perm maps them back to node ids.
        lo, hi = state.nbr_ptr[start], state.nbr_ptr[stop]
        cols = state.nbr_cols[lo:hi]
        row_local = np.repeat(
            np.arange(b), np.diff(state.nbr_ptr[start : stop + 1])
        )
        order, vals, ids, scores = _rank_block(
            Hb, row_local, cols, np.arange(start, stop), state.perm, mc
        )
        nbr_ids[lo - base : hi - base] = state.perm[cols[order]]
        nbr_scores[lo - base : hi - base] = vals
        out_ids[start - s0 : stop - s0] = ids
        out_scores[start - s0 : stop - s0] = scores
    return state.perm[s0:s1], out_ids, out_scores, nbr_ids, nbr_scores


def _sorted_shard_ranges(n: int, num_workers: int, block_size: int):
    """Contiguous sorted-order row ranges aligned to ``block_size``."""
    shards = max(1, min(num_workers * 2 if num_workers > 1 else 1,
                        -(-n // block_size)))
    blocks = -(-n // shards)
    blocks = -(-blocks // block_size) * block_size
    return [(s, min(n, s + blocks)) for s in range(0, n, blocks)]


def _build_sorted(
    graph: Graph,
    entropy: RelativeEntropy,
    max_candidates: int,
    num_workers: int = 1,
    block_size: int = 64,
    tile_size: int = 1024,
) -> EntropySequences:
    """Dense fast path: length-sorted tiled structural kernel (JS or
    symmetrised KL), executed as sorted-row-range shards on a thread pool.

    Nodes are processed in descending nonzero-profile-length order so every
    (row block, column tile) pair can truncate the divergence at
    ``K = min(block max length, tile max length)`` columns; the dropped
    columns, where one side of the pair is all padding, collapse to
    precomputed suffix sums.  Scratch buffers are carved from flat
    preallocations so every inner op runs on contiguous memory.  Each
    block's neighbour scores are read off its entropy rows, so the build
    is one pass over the pairs.
    """
    n = graph.num_nodes
    mc = max_candidates
    state = _sorted_state(graph, entropy, mc, block_size, tile_size)
    tasks = _sorted_shard_ranges(n, num_workers, block_size)
    results = run_sharded(_sorted_shard, tasks, num_workers, state=state)

    remote = np.full((n, mc), -1, dtype=np.int64)
    remote_scores = np.full((n, mc), -np.inf)
    flat_ids = np.empty(state.nbr_pos.shape[0], dtype=np.int64)
    flat_scores = np.empty(state.nbr_pos.shape[0])
    for (s0, s1), (orig_rows, ids, scores, nbr_ids, nbr_scores) in zip(
        tasks, results
    ):
        remote[orig_rows] = ids
        remote_scores[orig_rows] = scores
        slots = state.nbr_pos[state.nbr_ptr[s0] : state.nbr_ptr[s1]]
        flat_ids[slots] = nbr_ids
        flat_scores[slots] = nbr_scores
    indptr = graph.csr_neighbors()[0]
    return EntropySequences._from_flat(
        remote, remote_scores, indptr, flat_ids, flat_scores
    )


def _build_screened(
    graph: Graph,
    entropy: Optional[RelativeEntropy],
    max_candidates: int,
    num_workers: int = 1,
    shard_plan: Optional[EntropyShardPlan] = None,
    screen_size: Optional[int] = None,
    state_loader=None,
) -> EntropySequences:
    """Screen-then-rescore path: certified candidate pruning per shard.

    See :mod:`repro.entropy.screening` for the engine; rankings are
    identical to the dense builders away from exact value ties.  With
    ``state_loader`` (out-of-core builds) the screening state is
    assembled once from a stored bundle instead of ``entropy``, which may
    then be ``None`` — the sidecar already holds the same arrays, so the
    results are byte-identical either way.
    """
    n = graph.num_nodes
    if state_loader is None:
        state = build_screen_state(
            graph, entropy, max_candidates, screen_size=screen_size
        )
    else:
        state = state_loader()
    if shard_plan is None:
        # Fixed over-decomposition: the plan must not depend on num_workers
        # or results would differ across worker counts (see the constant).
        shard_plan = EntropyShardPlan.build(graph, SCREEN_DEFAULT_SHARDS)
    elif shard_plan.num_nodes != n:
        raise ValueError(
            f"shard_plan built for N={shard_plan.num_nodes}, "
            f"got graph with N={n}"
        )
    results = run_sharded(
        screen_shard, shard_plan.ranges(), num_workers, state=state
    )

    mc = max_candidates
    remote = np.full((n, mc), -1, dtype=np.int64)
    remote_scores = np.full((n, mc), -np.inf)
    nbr_id_parts: List[np.ndarray] = []
    nbr_score_parts: List[np.ndarray] = []
    for r0, r1, ids, scores, nbr_ids, nbr_scores in results:
        remote[r0:r1] = ids
        remote_scores[r0:r1] = scores
        nbr_id_parts.append(nbr_ids)
        nbr_score_parts.append(nbr_scores)

    indptr = np.asarray(state.indptr, dtype=np.int64)
    flat_ids = (
        np.concatenate(nbr_id_parts) if indptr[-1] else np.empty(0, dtype=np.int64)
    )
    flat_scores = (
        np.concatenate(nbr_score_parts) if indptr[-1] else np.empty(0)
    )
    return EntropySequences._from_flat(
        remote, remote_scores, indptr, flat_ids, flat_scores
    )


# ---------------------------------------------------------------------------
# Public builders
# ---------------------------------------------------------------------------
def build_entropy_sequences(
    graph: Graph,
    entropy: Optional[RelativeEntropy],
    max_candidates: int = 16,
    rng: Optional[np.random.Generator] = None,
    shuffle: bool = False,
    block_size: int = 256,
    H: Optional[np.ndarray] = None,
    num_workers: int = 1,
    shard_plan: Optional[EntropyShardPlan] = None,
    state_loader=None,
) -> EntropySequences:
    """Rank every node's remote candidates and one-hop neighbours.

    The engine follows from the input, and the ``entropy.sequences``
    span records it as ``engine``:

    * ``state_loader`` given (a bundle-backed build) — ``screened-streamed``;
    * ``shuffle=True`` — ``reference``: both rankings randomised, the
      paper's "GraphRARE without relative entropy" ablation (Table V,
      GCN-RA); it keeps the per-node loop so seeded draws match the
      reference exactly;
    * ``H`` given — ``provided_rows``: blocks of ``block_size`` rows are
      sliced from the precomputed ``(N, N)`` entropy rows, the hook the
      equivalence tests use to feed bit-identical inputs to both builders;
    * at least :data:`~repro.entropy.screening.SCREEN_AUTO_MIN` nodes and
      an embedding that fails the wide-sparse rule
      (:func:`repro.tensor.sparse.sparse_features`) — ``screened``: a
      cheap feature-logit screen bounds ``H <= H_f + lam * hs_max`` and
      only certified survivors reach the exact kernel;
    * otherwise ``sorted``, the dense length-sorted tiled kernel over all
      ``N^2`` pairs.  Its feature term is a CSR product on wide, sparse
      embeddings, where the screen's per-pair rescore would gather two
      dense embedding rows for every survivor and lose.

    Both engines give the same rankings away from exact value ties.  They
    shard the build and run the shards on ``num_workers`` threads;
    results merge by range, so every worker count returns byte-identical
    sequences.  ``shard_plan`` overrides the screened engine's row-range
    plan (the dense engine derives its own block-aligned sorted-order
    ranges).

    ``state_loader`` is a zero-argument callable (usually a
    :class:`repro.graph.storage.ScreenStateLoader`) that assembles the
    screening state from a stored bundle.  ``entropy`` may then be
    ``None`` — the bundle's entropy sidecar holds the byte-exact same
    arrays, so the sequences are identical to an in-RAM screened build.
    """
    if max_candidates < 1:
        raise ValueError(f"max_candidates must be >= 1, got {max_candidates}")
    if num_workers < 1:
        raise ValueError(f"num_workers must be >= 1, got {num_workers}")
    tel = get_telemetry()
    if state_loader is not None:
        if shuffle or H is not None:
            raise ValueError(
                "state_loader streams the screened engine; it takes "
                "neither shuffle nor provided rows"
            )
        with tel.span(
            "entropy.sequences", engine="screened-streamed", workers=num_workers
        ):
            return _build_screened(
                graph,
                entropy,
                max_candidates,
                num_workers=num_workers,
                shard_plan=shard_plan,
                state_loader=state_loader,
            )
    if shuffle:
        with tel.span("entropy.sequences", engine="reference"):
            return build_entropy_sequences_reference(
                graph, entropy, max_candidates, rng=rng, shuffle=True, H=H
            )
    if H is not None:
        with tel.span("entropy.sequences", engine="provided_rows"):
            return _build_from_rows(
                graph, lambda s, e: H[s:e], max_candidates, block_size
            )
    if graph.num_nodes >= SCREEN_AUTO_MIN and sparse_features(entropy.Z) is None:
        with tel.span(
            "entropy.sequences", engine="screened", workers=num_workers
        ):
            return _build_screened(
                graph,
                entropy,
                max_candidates,
                num_workers=num_workers,
                shard_plan=shard_plan,
            )
    with tel.span("entropy.sequences", engine="sorted", workers=num_workers):
        return _build_sorted(
            graph, entropy, max_candidates, num_workers=num_workers
        )


def build_entropy_sequences_reference(
    graph: Graph,
    entropy: RelativeEntropy,
    max_candidates: int = 16,
    rng: Optional[np.random.Generator] = None,
    shuffle: bool = False,
    H: Optional[np.ndarray] = None,
) -> EntropySequences:
    """The seed's O(N * deg) per-node loop, with the same deterministic
    tie-breaking as the vectorised builder.  Kept as the ground truth for
    the equivalence property tests and as the baseline the scaling
    benchmark measures speedups against."""
    if max_candidates < 1:
        raise ValueError(f"max_candidates must be >= 1, got {max_candidates}")
    n = graph.num_nodes
    remote = np.full((n, max_candidates), -1, dtype=np.int64)
    remote_scores = np.full((n, max_candidates), -np.inf)
    neighbors: List[np.ndarray] = []
    neighbor_scores: List[np.ndarray] = []

    if shuffle and rng is None:
        rng = np.random.default_rng(0)

    for v in range(n):
        row = H[v] if H is not None else entropy.row(v)
        neigh = graph.neighbors(v)

        # --- one-hop neighbours, ascending entropy (deletion order) -----
        neigh_vals = row[neigh]
        order = np.argsort(np.round(neigh_vals, TIE_DECIMALS), kind="stable")
        if shuffle:
            order = rng.permutation(len(neigh))
        neighbors.append(neigh[order])
        neighbor_scores.append(neigh_vals[order])

        # --- remote candidates, descending entropy (addition order) -----
        masked = row.copy()
        masked[v] = -np.inf
        masked[neigh] = -np.inf
        top = np.argsort(-masked, kind="stable")[:max_candidates]
        top = top[np.isfinite(masked[top])]
        if shuffle:
            pool = np.flatnonzero(np.isfinite(masked))
            take = min(max_candidates, n - 1 - len(neigh), len(pool))
            top = rng.choice(pool, size=max(take, 0), replace=False)
        remote[v, : len(top)] = top
        remote_scores[v, : len(top)] = masked[top]

    return EntropySequences(
        remote=remote,
        remote_scores=remote_scores,
        neighbors=neighbors,
        neighbor_scores=neighbor_scores,
    )

"""Screen-then-rescore candidate engine for the entropy sequences.

The dense builders score every ``(v, u)`` pair — the ``O(N^2 * L)`` wall the
ROADMAP calls out at 100k+ nodes.  This module cracks it with a pruned
screening pass built on the bound

    ``H(v, u) = H_f(v, u) + lam * H_s(v, u)  <=  H_f(v, u) + lam * hs_max``

where ``hs_max = 1`` for the paper's JS structural entropy (``H_s = 1 - JS``
with ``JS in [0, 1]``) and ``1 + slack`` for the clamped symmetrised-KL
ablation.  Because ``H_f`` is a strictly increasing function of the feature
logit ``<z_v, z_u>`` on the relevant range, the whole screen runs on one
float32 GEMM — no ``N x N`` exponentials, no structural work:

1. *Seed*: per row, take the ~``screen_size`` highest-logit candidates via
   an adaptive Gaussian tail threshold (mean/std of the row + a normal
   quantile, widened for rows where the estimate under-collects, with an
   exact ``partition`` fallback) and rescore them exactly.
2. *Threshold*: ``tau_v`` = the ``mc``-th largest exact ``H`` among the
   seeds.  ``tau_v`` never exceeds the true ``mc``-th best, so the bound
   above gives a *certified* pruning rule: any ``u`` with
   ``H_f(v, u) + lam * hs_max < tau_v`` cannot enter the top ``mc``.
3. *Rescore*: the rule is evaluated in logit space by inverting ``H_f``
   with the Lambert-W function (one scalar per row); every surviving
   candidate is rescored exactly and the final top-``mc`` selection is the
   same (descending score, ascending id) order the dense builders use.

Exactness: every node whose exact ``H`` ties or beats the true ``mc``-th
value has an upper bound ``>= tau_v`` and is therefore rescored, so the
returned rankings match the dense builder's *identically away from exact
value ties* (a float32 safety margin on the logit threshold absorbs the
GEMM precision gap; all reported scores come from the float64 rescorer).

The engine executes as row-range shards: an :class:`EntropyShardPlan`
splits ``[0, N)`` into contiguous node ranges balanced by adjacency volume
(the same ranges map to contiguous slices of the graph's sorted int64
edge-key arrays), and :func:`run_sharded` runs one worker per shard on a
thread pool.  Results are merged by row range, so the output is
byte-identical for any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np
from scipy.special import lambertw

from ..graph import Graph
from ..telemetry import SIZE_BUCKETS, Telemetry, get_telemetry, use_telemetry
from .relative_entropy import RelativeEntropy

#: ``build_entropy_sequences`` screens from this many nodes, unless the
#: embedding passes the wide-sparse rule (then the dense builder's CSR Gram
#: beats the screen's dense per-pair rescore); below it the dense tiled
#: builder is already fast and the screen's fixed overhead is not worth
#: paying.
SCREEN_AUTO_MIN = 4096

#: Default over-decomposition of the screened build.  Deliberately a fixed
#: constant, NOT a function of ``num_workers``: shard boundaries determine
#: batch groupings, and per-pair float summation order (e.g. the scorer's
#: batch-quantile evaluation width) shifts scores at the ULP level with the
#: grouping — so a worker-count-dependent plan would break the documented
#: "byte-identical for every worker count" contract.  Sixteen shards keep
#: any sane pool balanced while costing serial runs only scratch reuse.
SCREEN_DEFAULT_SHARDS = 16

#: Clamp for ``log2`` inputs in the flat JS kernel (see sequence.py).
_TINY = 1e-300

#: Zero-clamp of the symmetrised-KL convention (matches
#: ``structural_entropy.kl_divergence_block``).
_KL_EPS = 1e-12

#: float32 GEMM error allowance on the certified logit threshold.  Logits
#: are cosine-like dot products in [-1, 1]; a float32 accumulation over the
#: embedding dimension is accurate to ~1e-5, so 1e-4 is a safe superset
#: margin (a looser threshold only adds rescoring work, never drops a true
#: candidate).
_LOGIT_MARGIN = 1e-4


def _plogp(x: np.ndarray) -> np.ndarray:
    """Elementwise ``x * log2(x)`` with the ``0 log 0 = 0`` convention."""
    out = np.zeros_like(x)
    np.log2(x, out=out, where=x > 0)
    out *= x
    return out


def _suffix_sums(x: np.ndarray) -> np.ndarray:
    """Row-wise suffix sums, shape ``(n, m + 1)``; column ``k`` holds
    ``x[:, k:].sum(axis=1)`` (zero in the last column)."""
    n, m = x.shape
    out = np.zeros((n, m + 1))
    out[:, :m] = np.cumsum(x[:, ::-1], axis=1)[:, ::-1]
    return out


# ---------------------------------------------------------------------------
# Shard planning over row ranges / sorted edge-key ranges
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class EntropyShardPlan:
    """Contiguous node row-ranges balanced by adjacency volume.

    The plan is the unit of work distribution for the entropy builders:
    shard ``i`` owns rows ``[starts[i], starts[i + 1])``, which map to one
    contiguous slice of the graph's sorted canonical edge-key array (see
    :meth:`Graph.edge_key_range` / :meth:`edge_key_ranges`).  Today's
    in-memory workers index shared CSR state directly; the range/slice
    contract is what the roadmap's disk-streaming step will hand each
    worker instead.  Merging shard outputs by range is order-independent,
    which keeps the parallel build seed-stable.
    """

    num_nodes: int
    starts: np.ndarray
    """``(num_shards + 1,)`` int64 row boundaries; ``starts[0] == 0`` and
    ``starts[-1] == num_nodes``."""

    @classmethod
    def build(
        cls, graph: Graph, num_shards: int, min_rows: int = 64
    ) -> "EntropyShardPlan":
        """Split ``[0, N)`` into up to ``num_shards`` ranges with roughly
        equal cost, estimated as adjacency entries plus a per-row constant
        (so dense hubs and long empty tails both spread evenly)."""
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        n = graph.num_nodes
        num_shards = max(1, min(num_shards, max(1, n // max(min_rows, 1))))
        indptr, _ = graph.csr_neighbors()
        cost = indptr.astype(np.float64) + np.arange(n + 1, dtype=np.float64)
        targets = np.linspace(0.0, cost[-1], num_shards + 1)[1:-1]
        cuts = np.searchsorted(cost, targets)
        starts = np.unique(
            np.concatenate([[0], cuts, [n]]).astype(np.int64)
        )
        return cls(num_nodes=n, starts=starts)

    @property
    def num_shards(self) -> int:
        """Number of row ranges in the plan."""
        return len(self.starts) - 1

    def ranges(self) -> List[Tuple[int, int]]:
        """Row ranges ``[(r0, r1), ...]`` covering ``[0, N)`` in order."""
        return [
            (int(self.starts[i]), int(self.starts[i + 1]))
            for i in range(self.num_shards)
        ]

    def edge_key_ranges(self, graph: Graph) -> List[Tuple[int, int]]:
        """Per-shard index ranges into ``graph.edge_keys()`` (contiguous,
        disjoint, covering every edge exactly once by smaller endpoint)."""
        if graph.num_nodes != self.num_nodes:
            raise ValueError(
                f"plan built for N={self.num_nodes}, got N={graph.num_nodes}"
            )
        return [graph.edge_key_range(r0, r1) for r0, r1 in self.ranges()]


class _TracedWorker:
    """Telemetry-capture shim wrapped around a shard worker.

    Pool threads start with no active telemetry context (the session
    rides a ``ContextVar``, which a new thread does not inherit), so when
    the dispatching session is enabled each task instead runs under a fresh
    worker-local session and returns ``(result, snapshot)``.
    ``run_sharded`` absorbs the snapshots back into the parent
    *positionally*, making the merged spans and metrics deterministic for
    every worker count.
    """

    def __init__(self, worker: Callable) -> None:
        self.worker = worker

    def __call__(self, task):
        local = Telemetry(enabled=True)
        with use_telemetry(local):
            with local.span("entropy.shard", hist="entropy.shard_s"):
                result = self.worker(task)
        return result, local.export_state()


def run_sharded(
    worker: Callable,
    tasks: Sequence,
    num_workers: int = 1,
    state=None,
) -> list:
    """Run ``worker`` over ``tasks`` on a thread pool; results keep task
    order (the merge is positional, so parallel runs are deterministic).

    Workers share read-only numpy state; BLAS and the elementwise kernels
    release the GIL.  With one worker or one task the pool is skipped
    entirely.  ``state`` is an optional shared payload prepended to every
    task tuple before it reaches ``worker``.

    When a telemetry session is active (``repro.telemetry``), each task
    runs under a worker-local capture (one ``entropy.shard`` span plus
    whatever the worker records) whose snapshot is merged back here in
    task order — the observability stream, like the results, is
    byte-for-byte independent of ``num_workers``.
    """
    tasks = list(tasks)
    if state is not None:
        tasks = [(state, *t) for t in tasks]
    tel = get_telemetry()
    if tel.enabled:
        worker = _TracedWorker(worker)
    if num_workers > 1 and len(tasks) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(
            max_workers=min(num_workers, len(tasks))
        ) as pool:
            results = list(pool.map(worker, tasks))
    else:
        results = [worker(t) for t in tasks]
    if tel.enabled:
        merged = []
        for result, snapshot in results:
            tel.absorb(snapshot)
            merged.append(result)
        return merged
    return results


# ---------------------------------------------------------------------------
# Exact flat pair scoring (the rescore half of screen-then-rescore)
# ---------------------------------------------------------------------------
@dataclass
class PairEntropyScorer:
    """Vectorised exact ``H(v, u)`` for flat index arrays of node pairs.

    Equivalent to :meth:`RelativeEntropy.pairs` but built for bulk
    rescoring: the structural divergence is decomposed around precomputed
    per-node terms so each pair only touches ``K = min(len_v, len_u)``
    profile columns (pairs are processed in descending-``K`` buckets), and
    the cross term runs on fused contiguous scratch.  For JS,

        ``JS = 0.5 (S_v + S_u) - sum_{k<K} f((p_k + q_k) / 2)
               - T_v[K] - T_u[K]``

    with ``f(x) = x log2 x``, ``S`` the per-node ``sum f(p)`` and ``T`` the
    suffix sums of ``f(p / 2)`` (beyond ``K`` at most one side is nonzero).
    For symmetrised KL the cross term is ``p_v Lq + p_u Lv`` with clamped
    logs ``L`` and the suffix collapses to ``log2(eps) * suffix-mass``.
    """

    Z: np.ndarray
    log_denominator: float
    feature_scale: float
    lam: float
    mode: str
    profiles: np.ndarray
    lengths: np.ndarray
    U: np.ndarray
    """Folded per-node suffix state, shape ``(n, m + 1)``: the divergence
    of a pair evaluated at width ``w`` is ``U[v, w] + U[u, w] - cross``
    (``- 0.5 * cross`` for KL), so each pair pays one strided gather per
    endpoint instead of separate ``S``/suffix lookups."""
    L: Optional[np.ndarray] = None       # kl: log2(max(p, eps))
    chunk_elements: int = 8_000_000

    @classmethod
    def from_entropy(cls, entropy: RelativeEntropy) -> "PairEntropyScorer":
        """Precompute the per-node profile reductions of ``entropy``."""
        P = entropy.profiles
        lengths = (P > 0).sum(axis=1).astype(np.int64)
        S = _plogp(P).sum(axis=1)
        kw = dict(
            Z=entropy.Z,
            log_denominator=entropy.log_denominator,
            feature_scale=entropy.feature_scale,
            lam=entropy.lam,
            mode=entropy.structural_mode,
            profiles=P,
            lengths=lengths,
        )
        if entropy.structural_mode == "kl":
            kw["L"] = np.log2(np.maximum(P, _KL_EPS))
            U = 0.5 * (S[:, None] - np.log2(_KL_EPS) * _suffix_sums(P))
        else:
            U = 0.5 * S[:, None] - _suffix_sums(_plogp(P / 2.0))
        # Column-major: the scorer reads one width-column per chunk, so the
        # strided U[v, width] gathers stay inside a contiguous column.
        kw["U"] = np.asfortranarray(U)
        return cls(**kw)

    # ------------------------------------------------------------------
    def feature(self, v: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Exact float64 feature entropy ``H_f`` for aligned pair arrays."""
        logit = np.einsum("ij,ij->i", self.Z[v], self.Z[u])
        logit -= self.log_denominator
        hf = np.exp(logit)
        hf *= logit
        hf *= -1.0 / self.feature_scale
        return hf

    def _structural_chunk(
        self, v: np.ndarray, u: np.ndarray, width: int
    ) -> np.ndarray:
        """Divergence for a chunk of pairs evaluated at a common ``width``.

        Any ``width >= min(len_v, len_u)`` is exact: past the shorter
        profile at most one side is nonzero, so the dropped columns
        collapse to the precomputed suffix terms at ``width``.
        """
        P = self.profiles
        if self.mode == "kl":
            cross = np.einsum("ij,ij->i", P[v, :width], self.L[u, :width])
            cross += np.einsum("ij,ij->i", P[u, :width], self.L[v, :width])
            return self.U[v, width] + self.U[u, width] - 0.5 * cross
        t = P[v, :width] + P[u, :width]
        t *= 0.5
        np.maximum(t, _TINY, out=t)
        ell = np.log2(t)
        ell *= t
        cross = ell.sum(axis=1)
        return self.U[v, width] + self.U[u, width] - cross

    def structural(self, v: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Exact structural divergence for aligned pair arrays.

        Pairs are split into a *narrow* bucket evaluated at the 90th
        percentile of ``K = min(len_v, len_u)`` and a *wide* remainder at
        full profile width — typical heavy-tailed graphs have short
        profiles almost everywhere, so most pairs never pay full width,
        without any per-pair sorting.
        """
        m = v.shape[0]
        out = np.empty(m)
        if not m:
            return out
        max_m = self.profiles.shape[1]
        K = np.minimum(self.lengths[v], self.lengths[u])
        K = np.minimum(K, max_m)
        w0 = int(K[np.argpartition(K, (9 * m) // 10)[(9 * m) // 10]]) if m > 16 else int(K.max())
        narrow = np.flatnonzero(K <= w0)
        wide = np.flatnonzero(K > w0)
        for idx, width in ((narrow, w0), (wide, max_m)):
            chunk = max(1, self.chunk_elements // max(width, 1))
            for s in range(0, idx.shape[0], chunk):
                sub = idx[s : s + chunk]
                out[sub] = self._structural_chunk(v[sub], u[sub], width)
        return out

    def score(self, v: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Exact ``H(v, u) = H_f + lam * (1 - divergence)`` per pair."""
        v = np.asarray(v, dtype=np.int64)
        u = np.asarray(u, dtype=np.int64)
        out = np.empty(v.shape[0])
        chunk = max(1, self.chunk_elements // max(self.Z.shape[1], 1))
        for s in range(0, v.shape[0], chunk):
            sl = slice(s, s + chunk)
            out[sl] = self.feature(v[sl], u[sl])
        if self.lam > 0:
            out += self.lam
            div = self.structural(v, u)
            div *= self.lam
            out -= div
        return out


# ---------------------------------------------------------------------------
# Certified logit threshold (Lambert-W inversion of the feature entropy)
# ---------------------------------------------------------------------------
def feature_logit_threshold(
    h: np.ndarray, log_denominator: float, feature_scale: float
) -> np.ndarray:
    """Smallest feature logit whose entropy reaches ``h`` (elementwise).

    ``H_f(x) = -e^u u / scale`` with ``u = x - log_denominator`` is
    strictly increasing on the pair-probability range ``P = e^u < 1/e``, so
    ``H_f(x) >= h  <=>  x >= W_{-1}(-h * scale) + log_denominator``.
    Entries with ``h <= 0`` (or an untrustworthy normaliser on degenerate
    tiny graphs, where ``P < 1/e`` is not guaranteed) give ``-inf`` — the
    caller then rescans every candidate, trading speed for exactness.
    """
    h = np.atleast_1d(np.asarray(h, dtype=np.float64))
    out = np.full(h.shape, -np.inf)
    if log_denominator <= 2.0:
        return out
    pos = np.isfinite(h) & (h > 0)
    if pos.any():
        y = np.minimum(h[pos] * feature_scale, np.exp(-1.0))
        u = lambertw(-y, k=-1).real
        out[pos] = log_denominator + u
    # +inf thresholds (h above the attainable maximum) select nothing.
    out[np.isposinf(h)] = np.inf
    return out


# ---------------------------------------------------------------------------
# The screening shard worker
# ---------------------------------------------------------------------------
@dataclass
class ScreenState:
    """Read-only state shared by every screening shard worker."""

    Z32: np.ndarray
    scorer: PairEntropyScorer
    indptr: np.ndarray
    indices: np.ndarray
    num_nodes: int
    max_candidates: int
    screen_size: int
    hs_max: float
    block_rows: int
    sample: np.ndarray
    """Fixed stratified column sample used for the per-row seed-threshold
    quantile estimate (part of the state so every shard sees the same
    sample and parallel builds stay byte-identical)."""

    release: Optional[object] = None
    """Optional page-release policy for memmap-backed state
    (:class:`repro.graph.storage.MmapReleaser`): ``release.step()`` runs
    after every screened row block, ``release.flush()`` at shard end, so
    a streaming worker's resident set stays bounded by one block's
    gathers.  ``None`` (in-RAM state) skips both calls."""


#: Neighbour scores equal to this many decimals rank as ties, which keep
#: ascending id order.  Mathematically equal pairs (structurally identical
#: neighbours, common on low-degree graphs) can differ in the last bits
#: depending on which kernel, column tile or batch scored them; rounding
#: makes the deletion order a function of the entropy itself.
TIE_DECIMALS = 12


def neighbor_order(rows: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Permutation putting flat ``(row, score)`` neighbour entries in
    deletion order: by row, then ascending score rounded to
    :data:`TIE_DECIMALS`.  The sort is stable, so ties keep their input
    order — ascending id for CSR neighbour lists."""
    return np.lexsort((np.round(vals, TIE_DECIMALS), rows))


def select_topk_flat(
    r: np.ndarray,
    ids: np.ndarray,
    scores: np.ndarray,
    num_rows: int,
    k: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-row top-``k`` of flat ``(row, id, score)`` triples under the
    builders' (descending score, ascending id) order.

    Returns ``(ids, scores)`` of shape ``(num_rows, k)`` padded with
    ``-1`` / ``-inf``; non-finite scores never qualify.
    """
    out_ids = np.full((num_rows, k), -1, dtype=np.int64)
    out_scores = np.full((num_rows, k), -np.inf)
    if not r.shape[0] or k == 0:
        return out_ids, out_scores
    keep = np.isfinite(scores)
    r, ids, scores = r[keep], ids[keep], scores[keep]
    if not r.shape[0]:
        return out_ids, out_scores
    order = np.lexsort((ids, -scores, r))
    r, ids, scores = r[order], ids[order], scores[order]
    counts = np.bincount(r, minlength=num_rows)
    offsets = np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(counts)[:-1]])
    rank = np.arange(r.shape[0]) - offsets[r]
    keep = rank < k
    out_ids[r[keep], rank[keep]] = ids[keep]
    out_scores[r[keep], rank[keep]] = scores[keep]
    return out_ids, out_scores


#: Sentinel written over masked (self / current-neighbour) logits.  True
#: logits are cosines in [-1, 1], so any threshold clamped to >= _MASK_CUT
#: excludes sentinels without a separate finite-mask pass.
_MASK_VAL = np.float32(-2.0)
_MASK_CUT = -1.5


def _extract_seeds(
    state: ScreenState,
    logits: np.ndarray,
    target: np.ndarray,
    mc: int,
    mask_buf: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Row-major ``(ri, ci, counts, thresholds)`` of the ~``target``
    best-logit candidates per row.

    Thresholds come from per-row tail quantiles of a sorted, fixed column
    sample (adapting to whatever shape the logit distribution has).  Rows
    whose seed count lands badly off target — below half of it (or below
    ``mc``, which τ quality really needs) or more than 3x above — are
    re-thresholded and re-extracted: first with a proportionally corrected
    sample quantile, then, for the rare rows the sample cannot serve, with
    the exact ``target``-th largest logit from a batched ``partition``
    (sentinels sort below every true logit, so the picked value is real).
    Seed-count accuracy only affects speed, never correctness — the
    certified rescan uses ``tau`` bounds, not these thresholds.
    """
    n = state.num_nodes
    b = logits.shape[0]
    ls = logits[:, state.sample]
    ls.sort(axis=1)
    ssize = ls.shape[1]
    ratio = ssize / max(n, 1)

    def quantile_for(rows: np.ndarray, want: np.ndarray) -> np.ndarray:
        # Index of the ~want-th largest full-row value inside the sample.
        above = np.clip(np.ceil(want * ratio).astype(np.int64) + 1, 1, ssize)
        return np.maximum(ls[rows, ssize - above], _MASK_CUT)

    t = quantile_for(np.arange(b), target.astype(np.float64))
    mask = np.greater_equal(logits, t[:, None], out=mask_buf[:b])
    ri, ci = np.nonzero(mask)
    counts = np.bincount(ri, minlength=b)
    floor = np.maximum(target // 2, np.minimum(mc, target))

    for attempt in (0, 1):
        bad = counts < floor
        if attempt == 0:
            bad |= counts > 3 * target
        redo = np.flatnonzero(bad)
        if not redo.size:
            break
        if attempt == 0:
            want = target[redo] * (
                target[redo].astype(np.float64) / np.maximum(counts[redo], 1.0)
            )
            t[redo] = quantile_for(redo, np.maximum(want, 1.0))
        else:
            for want_i in np.unique(target[redo]):
                rows = redo[target[redo] == want_i]
                if want_i <= 0:
                    t[rows] = np.inf
                    continue
                sub = np.partition(logits[rows], -int(want_i), axis=1)
                t[rows] = np.maximum(sub[:, -int(want_i)], _MASK_CUT)
        # Splice the re-extracted rows in; the stable sort restores the
        # row-major grouping the downstream rank bookkeeping needs.
        is_redo = np.zeros(b, dtype=bool)
        is_redo[redo] = True
        keep = ~is_redo[ri]
        ri2, ci2 = np.nonzero(logits[redo] >= t[redo, None])
        ri = np.concatenate([ri[keep], redo[ri2]])
        ci = np.concatenate([ci[keep], ci2])
        order = np.argsort(ri, kind="stable")
        ri, ci = ri[order], ci[order]
        counts = np.bincount(ri, minlength=b)
    return ri, ci, counts, t


def _screen_block(
    state: ScreenState,
    start: int,
    stop: int,
    scratch: Tuple[np.ndarray, np.ndarray],
) -> Tuple[np.ndarray, np.ndarray]:
    """Screen-then-rescore one row block; returns ``(ids, scores)`` of
    shape ``(stop - start, mc)`` in the dense builders' order.

    ``scratch`` holds the per-shard ``(block_rows, N)`` float32 logit and
    bool mask buffers — reused across blocks so the hot loop never goes
    back to the page allocator for its largest temporaries.
    """
    n = state.num_nodes
    mc = state.max_candidates
    scorer = state.scorer
    b = stop - start

    logit_buf, mask_buf = scratch
    logits = np.matmul(state.Z32[start:stop], state.Z32.T, out=logit_buf[:b])

    # Mask self and current neighbours before any selection.
    deg = np.diff(state.indptr[start : stop + 1])
    row_local = np.repeat(np.arange(b), deg)
    nbr = state.indices[state.indptr[start] : state.indptr[stop]]
    logits[np.arange(b), np.arange(start, stop)] = _MASK_VAL
    logits[row_local, nbr] = _MASK_VAL
    valid = (n - 1) - deg

    # --- seed: exact rescore of the ~screen_size best-logit candidates ----
    target = np.minimum(state.screen_size, valid)
    ri, ci, counts1, t = _extract_seeds(state, logits, target, mc, mask_buf)
    seed_scores = scorer.score(start + ri, ci)

    # --- threshold: tau = mc-th best exact H among the seeds --------------
    offsets = np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(counts1)[:-1]])
    rank = np.arange(ri.shape[0]) - offsets[ri]
    pad = np.full((b, max(int(counts1.max()) if counts1.size else 0, mc)), -np.inf)
    pad[ri, rank] = seed_scores
    tau = -np.partition(-pad, mc - 1, axis=1)[:, mc - 1]

    # --- certified survivors: H_f + lam * hs_max >= tau in logit space ----
    # The seed threshold usually sits below the certified bound already
    # (the seed pool is sized past the typical survivor count), so only
    # the rows where it does not get a second, banded extraction.
    need = tau - scorer.lam * state.hs_max
    bound = feature_logit_threshold(
        need, scorer.log_denominator, scorer.feature_scale
    )
    bound32 = np.maximum(bound - _LOGIT_MARGIN, _MASK_CUT).astype(np.float32)
    rescan = np.flatnonzero(bound32 < t)
    if rescan.size:
        sub = logits[rescan]
        band = sub >= bound32[rescan, None]
        band &= sub < t[rescan, None]
        rei, ce = np.nonzero(band)
        re_ = rescan[rei]
        extra_scores = scorer.score(start + re_, ce)
        ri = np.concatenate([ri, re_])
        ci = np.concatenate([ci, ce])
        seed_scores = np.concatenate([seed_scores, extra_scores])

    # Entries below tau can never reach the top mc; dropping them up front
    # keeps the exact tie-breaking lexsort tiny.
    keep = seed_scores >= tau[ri]

    tel = get_telemetry()
    if tel.enabled:
        tel.count("entropy.screen.rows", b)
        tel.count("entropy.screen.seed_pairs", int(counts1.sum()))
        tel.count("entropy.screen.rescored_pairs", int(seed_scores.shape[0]))
        tel.count("entropy.screen.survivor_pairs", int(keep.sum()))

    return select_topk_flat(ri[keep], ci[keep], seed_scores[keep], b, mc)


def screen_shard(args) -> Tuple[int, int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Worker: remote + neighbour rankings for one row-range shard.

    Returns ``(r0, r1, remote_ids, remote_scores, flat_neighbor_ids,
    flat_neighbor_scores)``; the neighbour arrays are the shard's slice of
    the CSR edge list reordered to ascending entropy per row.
    """
    state, r0, r1 = args
    mc = state.max_candidates
    rows = r1 - r0
    remote = np.full((rows, mc), -1, dtype=np.int64)
    remote_scores = np.full((rows, mc), -np.inf)
    block = min(state.block_rows, max(rows, 1))
    scratch = (
        np.empty((block, state.num_nodes), dtype=np.float32),
        np.empty((block, state.num_nodes), dtype=bool),
    )
    for start in range(r0, r1, state.block_rows):
        stop = min(r1, start + state.block_rows)
        ids, scores = _screen_block(state, start, stop, scratch)
        remote[start - r0 : stop - r0] = ids
        remote_scores[start - r0 : stop - r0] = scores
        if state.release is not None:
            state.release.step()

    lo, hi = int(state.indptr[r0]), int(state.indptr[r1])
    tel = get_telemetry()
    if tel.enabled:
        # Adjacency volume is the shard balancer's load proxy; recording
        # its distribution shows how even the decomposition really was.
        tel.observe("entropy.shard_volume", hi - lo, buckets=SIZE_BUCKETS)
    nbr = state.indices[lo:hi]
    rows_flat = np.repeat(
        np.arange(r0, r1), np.diff(state.indptr[r0 : r1 + 1])
    )
    vals = state.scorer.score(rows_flat, nbr) if nbr.size else np.empty(0)
    perm = neighbor_order(rows_flat, vals)
    nbr, vals = nbr[perm], vals[perm]
    if state.release is not None:
        state.release.flush()
    return r0, r1, remote, remote_scores, nbr, vals


def default_screen_params(
    n: int,
    max_candidates: int,
    screen_size: Optional[int] = None,
    block_rows: Optional[int] = None,
) -> Tuple[int, int]:
    """Resolve ``(screen_size, block_rows)`` defaults for a screen build.

    One shared formula for :func:`build_screen_state` and the bundle
    state loader (:class:`repro.graph.storage.ScreenStateLoader`): both
    paths must agree or the streamed and in-RAM screens would group rows
    differently and drift at the ULP level (the scorer's batch-quantile
    width depends on the block grouping).
    """
    if screen_size is None:
        screen_size = max(8 * max_candidates, 64)
    if block_rows is None:
        # Cap the (B, N) float32 logit block at ~128 MB.
        block_rows = int(min(1024, max(64, 32_000_000 // max(n, 1))))
    return int(screen_size), int(block_rows)


def screen_sample(n: int) -> np.ndarray:
    """Stratified column sample for the seed quantile estimate (every
    n-th node); deterministic, so all shards, worker counts and state
    construction paths (in-RAM or bundle-loaded) agree."""
    return np.unique(np.linspace(0, n - 1, min(n, 1024)).astype(np.int64))


def build_screen_state(
    graph: Graph,
    entropy: RelativeEntropy,
    max_candidates: int,
    screen_size: Optional[int] = None,
    block_rows: Optional[int] = None,
) -> ScreenState:
    """Assemble the shared screening state for one (graph, entropy) pair."""
    indptr, indices = graph.csr_neighbors()
    scorer = PairEntropyScorer.from_entropy(entropy)
    n = graph.num_nodes
    screen_size, block_rows = default_screen_params(
        n, max_candidates, screen_size, block_rows
    )
    sample = screen_sample(n)
    # The clamped symmetrised KL can dip a hair below zero (by at most
    # ``log2(1 + M * eps)``), so pad the structural upper bound for "kl".
    hs_max = 1.0 if entropy.structural_mode == "js" else 1.0 + 1e-9
    return ScreenState(
        Z32=np.ascontiguousarray(entropy.Z, dtype=np.float32),
        scorer=scorer,
        indptr=indptr,
        indices=indices,
        num_nodes=n,
        max_candidates=max_candidates,
        screen_size=int(screen_size),
        hs_max=hs_max,
        block_rows=int(block_rows),
        sample=sample,
    )

"""Node structural entropy (Sec. IV-A.2, Eq. 5-8).

A node's local structure is summarised by the descending sequence of degrees
of the node and its one-hop neighbours (Eq. 5), normalised into a
distribution (Eq. 6).  The paper replaces [50]'s unbounded KL divergence
with the Jensen-Shannon divergence (Eq. 7-8), giving a structural entropy

    ``H_s(v, u) = 1 - JS(p(v), p(u))  in  [0, 1]``

that is symmetric and equals 1 exactly when the two degree profiles match.
An optional raw-KL variant is kept for the DESIGN.md ablation comparing the
paper's choice against [50].

All kernels here are batched numpy over the graph's CSR layout — profiles
are built by one scatter + one row sort, and divergences come in a
``(B, N)`` block form so callers never loop over nodes in Python.  The
original per-node loop survives as :func:`degree_profiles_reference` for the
equivalence property tests and the scaling benchmark.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..graph import Graph


def degree_profiles(graph: Graph, max_len: Optional[int] = None) -> np.ndarray:
    """Normalised descending degree profiles ``p(v)``, shape ``(N, M)``.

    ``M`` is the maximum node degree plus one (the profile holds the node's
    own degree and its neighbours'; shorter profiles are zero-padded as in
    Eq. 5).  ``max_len`` truncates profiles (and renormalises) to bound the
    cost on heavy-tailed graphs; ranking quality degrades gracefully because
    profiles are sorted descending, so truncation drops the smallest degrees.

    Vectorised: one flat scatter of ``[deg_v, deg_{N1(v)}]`` into a dense
    ragged table, one ``sort(axis=1)``, no Python loop over nodes.  The
    dense table is ``max_degree + 1`` wide (sorting must see every entry
    before truncation), so rows are processed in chunks that cap its
    footprint — heavy-tailed graphs never materialise an ``(N, d_max)``
    intermediate.
    """
    deg = graph.degrees().astype(np.float64)
    n = graph.num_nodes
    full_len = int(deg.max()) + 1 if n else 1
    m = full_len if max_len is None else min(full_len, max_len)

    indptr, indices = graph.csr_neighbors()
    counts = np.diff(indptr) + 1  # own degree plus each neighbour's
    offsets = np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(counts)])
    total = int(offsets[-1])

    values = np.empty(total)
    self_pos = offsets[:-1]
    values[self_pos] = deg
    neigh_mask = np.ones(total, dtype=bool)
    neigh_mask[self_pos] = False
    values[neigh_mask] = deg[indices]

    profiles = np.zeros((n, m))
    chunk = min(max(int(2_000_000 // full_len), 1), n)
    buf = np.zeros((chunk, full_len))
    for start in range(0, n, chunk):
        stop = min(n, start + chunk)
        b = stop - start
        lo, hi = int(offsets[start]), int(offsets[stop])
        rows = np.repeat(np.arange(b), counts[start:stop])
        cols = np.arange(lo, hi) - offsets[start:stop][rows]
        dense = buf[:b]
        dense.fill(0.0)
        dense[rows, cols] = values[lo:hi]
        dense.sort(axis=1)  # ascending: padding zeros first, degrees last
        profiles[start:stop] = dense[:, ::-1][:, :m]  # descending, padded

    totals = profiles.sum(axis=1, keepdims=True)
    totals[totals == 0] = 1.0
    return profiles / totals


def degree_profiles_reference(
    graph: Graph, max_len: Optional[int] = None
) -> np.ndarray:
    """The seed's per-node loop — kept as the equivalence/bench reference."""
    deg = graph.degrees().astype(np.float64)
    n = graph.num_nodes
    full_len = int(deg.max()) + 1 if n else 1
    m = full_len if max_len is None else min(full_len, max_len)
    profiles = np.zeros((n, m))
    for v in range(n):
        neigh = graph.neighbors(v)
        seq = np.sort(np.concatenate([[deg[v]], deg[neigh]]))[::-1][:m]
        profiles[v, : len(seq)] = seq
    totals = profiles.sum(axis=1, keepdims=True)
    totals[totals == 0] = 1.0
    return profiles / totals


def js_divergence(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Jensen-Shannon divergence between rows of ``p`` and ``q`` (Eq. 7).

    Accepts ``(M,)`` vs ``(M,)``, ``(M,)`` vs ``(N, M)`` or matching
    ``(N, M)`` shapes; zero entries contribute zero by convention.
    """
    scalar = np.ndim(p) == 1 and np.ndim(q) == 1
    p = np.atleast_2d(p)
    q = np.atleast_2d(q)
    m = 0.5 * (p + q)
    with np.errstate(divide="ignore", invalid="ignore"):
        kl_pm = np.where(p > 0, p * np.log2(p / m), 0.0).sum(axis=-1)
        kl_qm = np.where(q > 0, q * np.log2(q / m), 0.0).sum(axis=-1)
    out = 0.5 * (kl_pm + kl_qm)
    return out.reshape(()) if scalar else out


def js_divergence_block(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Pairwise JS between every row of ``P`` (B, M) and ``Q`` (N, M).

    Returns a ``(B, N)`` matrix, bitwise-identical to stacking
    ``js_divergence(P[i], Q)`` row by row, without the Python loop.  It
    materialises an ``O(B * N * M)`` broadcast intermediate, so chunk
    ``P`` at the call site.
    """
    P3 = P[:, None, :]
    Q3 = Q[None, :, :]
    m = 0.5 * (P3 + Q3)
    with np.errstate(divide="ignore", invalid="ignore"):
        kl_pm = np.where(P3 > 0, P3 * np.log2(P3 / m), 0.0).sum(axis=-1)
        kl_qm = np.where(Q3 > 0, Q3 * np.log2(Q3 / m), 0.0).sum(axis=-1)
    return 0.5 * (kl_pm + kl_qm)


def kl_divergence(p: np.ndarray, q: np.ndarray, eps: float = 1e-12) -> np.ndarray:
    """Raw KL divergence (the [50] variant kept for ablation)."""
    scalar = np.ndim(p) == 1 and np.ndim(q) == 1
    p = np.atleast_2d(p)
    q = np.atleast_2d(q)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(p > 0, p * np.log2(p / np.maximum(q, eps)), 0.0).sum(axis=-1)
    return out.reshape(()) if scalar else out


def kl_divergence_block(
    P: np.ndarray, Q: np.ndarray, eps: float = 1e-12
) -> np.ndarray:
    """Pairwise raw KL ``KL(P_i || Q_j)`` as a ``(B, N)`` block."""
    P3 = P[:, None, :]
    Q3 = np.maximum(Q[None, :, :], eps)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(P3 > 0, P3 * np.log2(P3 / Q3), 0.0).sum(axis=-1)


def symmetric_kl_divergence_block(
    P: np.ndarray, Q: np.ndarray, eps: float = 1e-12
) -> np.ndarray:
    """Symmetrised KL ``0.5 (KL(P_i || Q_j) + KL(Q_j || P_i))`` as ``(B, N)``.

    Algebraically identical to averaging the two clamped one-sided KLs, but
    folded into a single pass: with ``Lp = log2 max(p, eps)`` and
    ``Lq = log2 max(q, eps)``,

        ``p (Lp - Lq) + q (Lq - Lp) = (p - q)(Lp - Lq)``

    holds for every zero pattern under the ``0 log 0 = 0`` convention, so
    one broadcast difference and one clamped-log difference replace the two
    separate ``(B, N, M)`` ratio/where intermediates.
    """
    diff = P[:, None, :] - Q[None, :, :]
    logs = np.log2(np.maximum(P, eps))[:, None, :] - np.log2(
        np.maximum(Q, eps)
    )[None, :, :]
    logs *= diff
    return 0.5 * logs.sum(axis=-1)


def symmetric_kl_divergence_pairs(
    p: np.ndarray, q: np.ndarray, eps: float = 1e-12
) -> np.ndarray:
    """Symmetrised KL for aligned rows of ``p`` and ``q`` (same folding)."""
    p = np.atleast_2d(p)
    q = np.atleast_2d(q)
    diff = p - q
    logs = np.log2(np.maximum(p, eps)) - np.log2(np.maximum(q, eps))
    logs *= diff
    return 0.5 * logs.sum(axis=-1)


def structural_entropy_pairs(profiles: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """``H_s(v, u) = 1 - JS`` for an array of pairs of shape ``(m, 2)``."""
    pairs = np.asarray(pairs)
    return 1.0 - js_divergence(profiles[pairs[:, 0]], profiles[pairs[:, 1]])


def structural_entropy_row(profiles: np.ndarray, v: int) -> np.ndarray:
    """``H_s(v, u)`` for one node against all others (vectorised)."""
    return 1.0 - js_divergence(profiles[v], profiles)


def structural_entropy_matrix(
    profiles: np.ndarray, block: int = 256
) -> np.ndarray:
    """Dense ``N x N`` structural-entropy matrix, built in row blocks."""
    n = profiles.shape[0]
    out = np.empty((n, n))
    for start in range(0, n, block):
        stop = min(n, start + block)
        out[start:stop] = 1.0 - js_divergence_block(
            profiles[start:stop], profiles
        )
    return out

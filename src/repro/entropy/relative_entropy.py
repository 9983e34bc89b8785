"""Combined node relative entropy ``H(v, u) = H_f + lambda * H_s`` (Eq. 9)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..graph import Graph
from .feature_entropy import (
    EmbeddingFn,
    embed_features,
    entropy_from_logits,
    log_pair_normalizer,
)
from .structural_entropy import (
    degree_profiles,
    js_divergence,
    js_divergence_block,
    symmetric_kl_divergence_block,
    symmetric_kl_divergence_pairs,
)


@dataclass
class RelativeEntropy:
    """Precomputed state for relative-entropy queries on one graph.

    The paper computes entropy once before training (Sec. IV-A, complexity
    analysis); this object captures the reusable pieces: the feature
    embeddings ``Z``, the global softmax normaliser, and the degree
    profiles.  Rows are evaluated lazily and chunked so the full ``N x N``
    matrix is only materialised on demand (small graphs / Fig. 8).  The
    batched :meth:`rows` block is the workhorse of the vectorised
    entropy-sequence build — one GEMM plus one broadcast JS per block
    instead of ``N`` per-row passes.
    """

    Z: np.ndarray
    log_denominator: float
    profiles: np.ndarray
    lam: float
    feature_scale: float = 1.0
    """Divisor applied to the feature term so both entropies share the
    [0, 1] range.  The raw ``-P log P`` values are ``O(log(N^2)/N^2)`` while
    the JS-based structural entropy lives in [0, 1]; without rescaling,
    lambda=1 would make the feature term vanish, contradicting the paper's
    Table IV (where lambda=0.1 behaves like "feature entropy alone").  We
    divide by the maximum attainable value ``-P_max log P_max`` (reached at
    dot product 1 for unit-norm embeddings), a strictly monotone rescaling
    that preserves every ranking."""

    structural_mode: str = "js"
    """``"js"`` (the paper's bounded Jensen-Shannon form, Eq. 7-8) or
    ``"kl"`` (the unbounded symmetrised KL of [50], kept for the DESIGN.md
    ablation: the paper motivates JS precisely because raw KL "has no
    practical meaning when the value is too large")."""

    @classmethod
    def from_graph(
        cls,
        graph: Graph,
        lam: float = 1.0,
        embedding: EmbeddingFn = "normalize",
        embedding_dim: int = 64,
        max_profile_len: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
        normalize_feature: bool = True,
        structural_mode: str = "js",
    ) -> "RelativeEntropy":
        """Precompute entropy state for ``graph`` with weight ``lam`` (Eq. 9).

        Raises ``ValueError`` on missing or non-finite features: one NaN
        would make the global normaliser NaN and silently empty every
        node's remote ranking.
        """
        if graph.features is None:
            raise ValueError("relative entropy requires node features")
        bad = ~np.isfinite(graph.features)
        if bad.any():
            first = int(np.flatnonzero(bad.any(axis=1))[0])
            raise ValueError(
                f"relative entropy requires finite node features: "
                f"{int(bad.sum())} non-finite entries, first in row {first}"
            )
        if lam < 0:
            raise ValueError(f"lambda must be non-negative, got {lam}")
        if structural_mode not in ("js", "kl"):
            raise ValueError(
                f"structural_mode must be 'js' or 'kl', got {structural_mode!r}"
            )
        Z = embed_features(graph.features, embedding, dim=embedding_dim, rng=rng)
        log_denominator = log_pair_normalizer(Z)
        scale = 1.0
        if normalize_feature:
            scale = float(entropy_from_logits(np.array([1.0]), log_denominator)[0])
        return cls(
            Z=Z,
            log_denominator=log_denominator,
            profiles=degree_profiles(graph, max_len=max_profile_len),
            lam=lam,
            feature_scale=scale,
            structural_mode=structural_mode,
        )

    @property
    def num_nodes(self) -> int:
        """Number of nodes ``N`` (rows of the embedding ``Z``)."""
        return self.Z.shape[0]

    # ------------------------------------------------------------------
    def feature_row(self, v: int) -> np.ndarray:
        """``H_f(v, u)`` for all ``u`` (Eq. 4, rescaled by feature_scale)."""
        logits = self.Z @ self.Z[v]
        return entropy_from_logits(logits, self.log_denominator) / self.feature_scale

    def feature_rows(self, start: int, stop: int) -> np.ndarray:
        """``H_f`` for a contiguous block of nodes, shape ``(stop-start, N)``."""
        logits = self.Z[start:stop] @ self.Z.T
        return entropy_from_logits(logits, self.log_denominator) / self.feature_scale

    def _structural_divergence(self, p, q) -> np.ndarray:
        if self.structural_mode == "kl":
            # Symmetrised raw KL, as in [50]; unbounded above.
            out = symmetric_kl_divergence_pairs(p, q)
            return out.reshape(()) if np.ndim(p) == 1 and np.ndim(q) == 1 else out
        return js_divergence(p, q)

    def _structural_divergence_block(
        self, P: np.ndarray, Q: np.ndarray
    ) -> np.ndarray:
        """Pairwise divergence between block ``P`` (B, M) and all of ``Q``."""
        if self.structural_mode == "kl":
            return symmetric_kl_divergence_block(P, Q)
        return js_divergence_block(P, Q)

    def structural_row(self, v: int) -> np.ndarray:
        """``H_s(v, u)`` for all ``u`` (Eq. 8)."""
        return 1.0 - self._structural_divergence(self.profiles[v], self.profiles)

    def structural_rows(self, start: int, stop: int) -> np.ndarray:
        """``H_s`` for a contiguous block of nodes, shape ``(stop-start, N)``."""
        return 1.0 - self._structural_divergence_block(
            self.profiles[start:stop], self.profiles
        )

    def row(self, v: int) -> np.ndarray:
        """``H(v, u) = H_f + lam * H_s`` for all ``u`` (Eq. 9)."""
        return self.feature_row(v) + self.lam * self.structural_row(v)

    def rows(self, start: int, stop: int) -> np.ndarray:
        """Batched ``H`` rows for nodes ``start..stop``, shape ``(B, N)``.

        One GEMM + one broadcast divergence; keep ``stop - start`` modest
        (a few hundred) so the ``(B, N, M)`` JS intermediate stays in cache.
        """
        return self.feature_rows(start, stop) + self.lam * self.structural_rows(
            start, stop
        )

    def pairs(self, pairs: np.ndarray) -> np.ndarray:
        """``H(v, u)`` for an ``(m, 2)`` array of node pairs."""
        pairs = np.asarray(pairs)
        logits = np.einsum("ij,ij->i", self.Z[pairs[:, 0]], self.Z[pairs[:, 1]])
        hf = entropy_from_logits(logits, self.log_denominator) / self.feature_scale
        hs = 1.0 - self._structural_divergence(
            self.profiles[pairs[:, 0]], self.profiles[pairs[:, 1]]
        )
        return hf + self.lam * hs

    def matrix(self, block: int = 256) -> np.ndarray:
        """Dense ``N x N`` relative-entropy matrix, built in row blocks."""
        n = self.num_nodes
        out = np.empty((n, n))
        for start in range(0, n, block):
            stop = min(n, start + block)
            out[start:stop] = self.rows(start, stop)
        return out


def class_pair_entropy(
    entropy: RelativeEntropy,
    labels: np.ndarray,
    block: int = 256,
    num_classes: Optional[int] = None,
) -> np.ndarray:
    """Mean relative entropy per (class, class) pair — the Fig. 8 heatmap.

    Fully batched: each block of ``H`` rows is reduced with one matmul
    against the class-membership one-hot matrix; trivial self pairs are
    excluded exactly as in the per-node definition.

    Label arrays may have gaps (e.g. ids ``{0, 2}`` with no node of class
    1): cells involving an empty class have no pairs to average and come
    back as ``NaN`` instead of a silently misleading ``0.0``.  Labels must
    be non-negative integers of shape ``(N,)``; ``num_classes`` optionally
    widens the heatmap beyond ``labels.max() + 1``.
    """
    labels = np.asarray(labels)
    n = entropy.num_nodes
    if labels.shape != (n,):
        raise ValueError(f"labels shape {labels.shape} != ({n},)")
    if not np.issubdtype(labels.dtype, np.integer):
        raise ValueError(f"labels must be integers, got dtype {labels.dtype}")
    if labels.size and labels.min() < 0:
        raise ValueError(f"labels must be non-negative, got {labels.min()}")
    derived = int(labels.max()) + 1 if labels.size else 0
    if num_classes is None:
        num_classes = derived
    elif num_classes < derived:
        raise ValueError(
            f"num_classes ({num_classes}) < labels.max() + 1 ({derived})"
        )
    onehot = np.zeros((n, num_classes))
    onehot[np.arange(n), labels] = 1.0
    class_sizes = np.bincount(labels, minlength=num_classes).astype(np.float64)

    sums = np.zeros((num_classes, num_classes))
    for start in range(0, n, block):
        stop = min(n, start + block)
        H = entropy.rows(start, stop)
        lab = labels[start:stop]
        np.add.at(sums, lab, H @ onehot)
        # Exclude the trivial self pair H(v, v) from the diagonal cell.
        diag = H[np.arange(stop - start), np.arange(start, stop)]
        np.add.at(sums, (lab, lab), -diag)

    counts = np.outer(class_sizes, class_sizes) - np.diag(class_sizes)
    with np.errstate(invalid="ignore", divide="ignore"):
        out = sums / counts
    out[counts == 0] = np.nan
    return out

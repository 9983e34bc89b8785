"""Node feature entropy (Sec. IV-A.1, Eq. 3-4).

The paper embeds raw features with a function ``phi`` (an MLP in their
implementation), turns every pairwise embedding dot product into a
probability with a softmax over *all* node pairs, and scores a pair by
``H_f(v, u) = -P(z_v, z_u) log P(z_v, z_u)``.

Because the pair probabilities are tiny (``P ~ 1/N^2 << 1/e``) the map
``P -> -P log P`` is strictly increasing on the relevant range, so a larger
dot product always means a larger feature entropy — the property the node
ranking relies on.  We compute the global log-normaliser with a chunked
log-sum-exp so the full ``N x N`` matrix never has to be materialised.

Every row block of the Gram matrix ``Z Zᵀ`` comes from :class:`GramBlocks`.
When ``Z`` is wide and sparse — bag-of-words features under the
``"normalize"`` embedding keep their zeros — a block is a CSR x CSR
product made dense one block at a time, so only the overlapping feature
pairs are multiplied; any other ``Z`` keeps the BLAS GEMM.  The sparse
product sums each dot product in ascending feature order, so its logits
are float64-allclose to the GEMM's, not bitwise equal.
"""

from __future__ import annotations

from typing import Callable, Optional, Union

import numpy as np

from ..tensor.sparse import sparse_features

EmbeddingFn = Union[str, Callable[[np.ndarray], np.ndarray]]


def embed_features(
    features: np.ndarray,
    method: EmbeddingFn = "normalize",
    dim: int = 64,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Apply the embedding function ``phi`` of Eq. 3.

    Methods
    -------
    ``"normalize"``
        L2-normalise rows of ``X`` (dot products become cosine similarities).
    ``"random_projection"``
        Seeded Gaussian projection to ``dim`` dimensions followed by tanh and
        L2 normalisation — a training-free stand-in for the paper's MLP
        ``phi`` (entropy is computed once *before* any training, so the MLP
        weights are untrained there as well).
    callable
        Any ``X -> Z`` map; rows are L2-normalised afterwards.
    """
    X = np.asarray(features, dtype=np.float64)
    if callable(method):
        Z = np.asarray(method(X), dtype=np.float64)
    elif method == "normalize":
        Z = X
    elif method == "random_projection":
        if rng is None:
            rng = np.random.default_rng(0)
        W = rng.standard_normal((X.shape[1], dim)) / np.sqrt(X.shape[1])
        Z = np.tanh(X @ W)
    else:
        raise ValueError(f"unknown embedding method {method!r}")
    norms = np.linalg.norm(Z, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return Z / norms


class GramBlocks:
    """Dense row blocks ``Z[start:stop] @ Z.T`` of the embedding Gram matrix.

    Wide, sparse ``Z`` (the rule of :func:`repro.tensor.sparse.sparse_features`)
    is multiplied as CSR x CSR and each block made dense on return; any
    other ``Z`` goes through the BLAS GEMM, bit for bit the plain
    ``Z[start:stop] @ Z.T``.  ``perm`` reorders the rows (and so the
    columns) of ``Z`` first; the rule is decided on ``Z`` itself, so a
    permuted view reuses its memoised CSR.

    Examples
    --------
    >>> gram = GramBlocks(Z)
    >>> gram(0, 64).shape == (64, Z.shape[0])
    True
    """

    def __init__(self, Z: np.ndarray, perm: Optional[np.ndarray] = None) -> None:
        csr = sparse_features(Z)
        if csr is None:
            self.rows = Z if perm is None else np.ascontiguousarray(Z[perm])
            self.cols = None
        else:
            self.rows = csr if perm is None else csr[perm]
            self.cols = self.rows.T.tocsr()

    def __call__(self, start: int, stop: int) -> np.ndarray:
        if self.cols is None:
            return self.rows[start:stop] @ self.rows.T
        return (self.rows[start:stop] @ self.cols).toarray()


def log_pair_normalizer(Z: np.ndarray, chunk: int = 256) -> float:
    """``log sum_{i,j} exp(<z_i, z_j>)`` computed in row chunks (Eq. 4 denom)."""
    n = Z.shape[0]
    gram = GramBlocks(Z)
    total = -np.inf
    for start in range(0, n, chunk):
        block = gram(start, min(n, start + chunk))  # (c, n)
        m = block.max()
        total = np.logaddexp(total, m + np.log(np.exp(block - m).sum()))
    return float(total)


def entropy_from_logits(logits: np.ndarray, log_denominator: float) -> np.ndarray:
    """Map dot products to ``-P log P`` given the global normaliser."""
    log_p = logits - log_denominator
    return -np.exp(log_p) * log_p


def feature_entropy_pairs(
    Z: np.ndarray, pairs: np.ndarray, log_denominator: Optional[float] = None
) -> np.ndarray:
    """``H_f(v, u)`` for an array of pairs of shape ``(m, 2)``."""
    pairs = np.asarray(pairs)
    if log_denominator is None:
        log_denominator = log_pair_normalizer(Z)
    logits = np.einsum("ij,ij->i", Z[pairs[:, 0]], Z[pairs[:, 1]])
    return entropy_from_logits(logits, log_denominator)


def feature_entropy_matrix(
    Z: np.ndarray, log_denominator: Optional[float] = None
) -> np.ndarray:
    """Dense ``N x N`` feature-entropy matrix (small graphs / Fig. 8 only)."""
    if log_denominator is None:
        log_denominator = log_pair_normalizer(Z)
    return entropy_from_logits(Z @ Z.T, log_denominator)

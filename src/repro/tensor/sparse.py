"""The wide-sparse rule: when a dense feature matrix is better kept as CSR.

Bag-of-words features (the WebKB/wiki/Planetoid stand-ins) are thousands
of columns wide and a few percent dense.  Two consumers multiply such a
matrix: the first ``Linear`` of a projection-first backbone
(:func:`repro.gnn.features_tensor`) and the entropy embedding's Gram
blocks ``Z Zᵀ`` (:mod:`repro.entropy.feature_entropy`).  Both ask
:func:`sparse_features` whether the matrix passes one fixed rule and get
one memoised CSR conversion if it does; narrow or dense matrices stay on
the dense BLAS path.
"""

from __future__ import annotations

import weakref
from typing import Dict, Optional, Tuple

import numpy as np
import scipy.sparse as sp

#: Matrices at least this wide ...
SPARSE_MIN_WIDTH = 256
#: ... with at most this fraction of nonzero entries are kept as CSR.
SPARSE_MAX_DENSITY = 0.10

#: ``id(array) -> (weakref to the array, its CSR or None)``; entries are
#: dropped when the array is collected.
_CSR_MEMO: Dict[int, Tuple[weakref.ref, Optional[sp.csr_matrix]]] = {}


def _to_csr(features: np.ndarray) -> sp.csr_matrix:
    return sp.csr_matrix(features)


def sparse_features(features: np.ndarray) -> Optional[sp.csr_matrix]:
    """The CSR form of ``features`` if they are wide and sparse, else ``None``.

    The rule is fixed: at least :data:`SPARSE_MIN_WIDTH` columns and at
    most :data:`SPARSE_MAX_DENSITY` nonzero entries.  The answer (and the
    conversion) is memoised per *array*, so every graph sharing one
    ``features`` object — all rewires of a base graph do — reuses a
    single conversion.  Arrays passed here are treated as immutable.

    Examples
    --------
    >>> x = np.zeros((4, 300)); x[:, 0] = 1.0
    >>> sparse_features(x).nnz
    4
    >>> sparse_features(np.ones((4, 8))) is None
    True
    """
    key = id(features)
    hit = _CSR_MEMO.get(key)
    if hit is not None and hit[0]() is features:
        return hit[1]
    sparse = (
        features.shape[1] >= SPARSE_MIN_WIDTH
        and np.count_nonzero(features) <= SPARSE_MAX_DENSITY * features.size
    )
    csr = _to_csr(features) if sparse else None
    _CSR_MEMO[key] = (weakref.ref(features), csr)
    weakref.finalize(features, _CSR_MEMO.pop, key, None)
    return csr

"""Shared infrastructure for the GNN backbones.

Every backbone is a :class:`repro.nn.Module` whose ``forward`` takes the
graph and a feature tensor and returns class logits.  Propagation matrices
are memoised on the (immutable) graph via :func:`cached_matrix`, so
re-running many epochs on one topology costs a single normalisation.

The feature operand itself comes from :func:`features_tensor`: a dense
:class:`~repro.tensor.Tensor`, or — for backbones declared
``projection_first`` on wide, sparse bag-of-words features — one
memoised CSR matrix that dropout masks on its nonzeros and the first
``Linear`` multiplies through ``spmm``.
"""

from __future__ import annotations

from typing import Callable, Optional, Union

import numpy as np
import scipy.sparse as sp

from ..graph import Graph
from ..nn import Module
from ..tensor import Tensor, no_grad
from ..tensor.sparse import sparse_features


def cached_matrix(graph: Graph, key: str, builder: Callable[[Graph], sp.spmatrix]):
    """Memoise ``builder(graph)`` in the graph's cache under ``key``."""
    if key not in graph.cache:
        graph.cache[key] = builder(graph)
    return graph.cache[key]


class GNNBackbone(Module):
    """Base class: a node classifier ``(graph, X) -> logits``."""

    #: ``True`` declares that ``forward`` touches the raw features only
    #: through ``Dropout`` and then a first ``Linear`` — the contract
    #: under which :func:`features_tensor` may hand it a CSR operand.
    #: Not inherited: a subclass that overrides ``forward`` re-declares it.
    projection_first = False

    def __init__(self, in_features: int, num_classes: int) -> None:
        super().__init__()
        self.in_features = in_features
        self.num_classes = num_classes

    def forward(self, graph: Graph, x: Tensor) -> Tensor:
        raise NotImplementedError

    def predict_logits(self, graph: Graph) -> np.ndarray:
        """Eval-mode logits as a plain array (no autograd bookkeeping)."""
        was_training = self.training
        self.eval()
        with no_grad():
            out = self.forward(graph, features_tensor(graph, self)).data
        if was_training:
            self.train()
        return out


def features_tensor(
    graph: Graph, model: Optional[GNNBackbone] = None
) -> Union[Tensor, sp.csr_matrix]:
    """The first-layer input operand for ``graph``'s features.

    A constant dense :class:`~repro.tensor.Tensor` — unless ``model``'s
    class declares ``projection_first = True`` and the features pass the
    wide-sparse rule of :func:`repro.tensor.sparse.sparse_features`, in
    which case one CSR matrix is returned, memoised per feature array
    (every rewire of a graph shares its ``features`` object, so a fit
    converts once).  Only ``ops.dropout`` and ``nn.Linear`` accept that
    operand: dropout masks its nonzeros, ``Linear`` projects it through
    ``ops.spmm``.  Every forward that starts from ``graph.features``
    (training, evaluation, stacked forwards) goes through here, so a
    backbone sees one operand type.

    Examples
    --------
    >>> model = build_backbone("gcn", graph.num_features, num_classes)
    >>> x = features_tensor(graph, model)    # CSR on wide sparse features
    >>> logits = model(graph, x)
    """
    if graph.features is None:
        raise ValueError("graph has no node features")
    if model is not None and vars(type(model)).get("projection_first", False):
        csr = sparse_features(graph.features)
        if csr is not None:
            return csr
    return Tensor(graph.features)

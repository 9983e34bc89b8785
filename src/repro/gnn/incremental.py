"""The reward evaluator's former home, kept as a thin dense shim.

Every reward is scored by the co-trained GNN's full eval-mode forward
(:class:`~repro.rl.vector.stacked.StackedGraphBuilder`; one graph is its
own stack).  Nothing in the package calls :class:`IncrementalEvaluator`;
it stays only for callers that still construct one.
"""

from __future__ import annotations

import numpy as np

from ..graph import Graph
from .base import GNNBackbone

__all__ = ["IncrementalEvaluator"]


class IncrementalEvaluator:
    """``model``'s dense eval-mode logits; ``base_graph`` is not read.

    Examples
    --------
    >>> inc = IncrementalEvaluator(model, base)
    >>> logits = inc.predict_logits(rewired)   # model.predict_logits(rewired)
    """

    def __init__(self, model: GNNBackbone, base_graph: Graph) -> None:
        self.model = model

    def predict_logits(self, graph: Graph) -> np.ndarray:
        """Full-graph eval-mode logits of ``graph`` under the bound model."""
        return self.model.predict_logits(graph)

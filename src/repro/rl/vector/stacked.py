"""Block-diagonal stacking of graphs over one shared node set.

The batched-forward kernel behind every reward of
:class:`~repro.core.env.TopologyEnv` and every micro-batch of
``repro serve`` (:mod:`repro.serve`), extracted into one reusable builder:

* ``B`` graphs over the same ``N`` nodes, features and labels are unioned
  into one ``B * N``-node graph whose per-graph blocks carry the
  per-graph edges (no edges cross blocks), so any propagation matrix of
  the union is the block-diagonal of the per-graph ones and **one** GNN
  forward scores all ``B`` graphs.
* The stacked graph is built from the member graphs' edge keys and
  builds its own propagation matrices on the forward (one O(B * E) pass
  each, :mod:`repro.graph.normalize`); nothing is cached on a member
  graph, so a memoised rewire holds only its edge keys.
* One graph is its own stack: ``stacked_graph([g])`` is ``g``, so a
  width-1 score is the plain per-graph forward on ``g``'s own
  propagation caches.

The builder reads only the node count, features and labels of the graph
it is built from, which edge churn never changes, so one builder serves
a topology for its whole lifetime, rebases included.  Unlike the env
(which always stacks exactly ``num_envs`` graphs), it accepts any batch
width up to ``max_width`` — the serving micro-batcher flushes partial
batches when the collection window closes — so every width reads a view
of one ``max_width`` tiling of the features and labels.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ...graph import Graph

__all__ = ["StackedGraphBuilder"]


class StackedGraphBuilder:
    """Builds block-diagonal unions of graphs and scores them in one forward.

    Parameters
    ----------
    graph:
        Any graph over the shared node set; only its node count,
        features and labels are read (every stacked block carries them).
    model:
        The GNN scoring the stacked graphs (needed by
        :meth:`stacked_logits`; stacking alone works without it).
    max_width:
        Largest batch width this builder will be asked to stack.

    Examples
    --------
    >>> stack = StackedGraphBuilder(base, model, max_width=8)
    >>> logits = stack.stacked_logits([g1, g2, g3])   # (3, N, C)
    """

    def __init__(self, graph: Graph, model=None, max_width: int = 1) -> None:
        if max_width < 1:
            raise ValueError(f"max_width must be >= 1, got {max_width}")
        self.num_nodes = graph.num_nodes
        self.features = graph.features
        self.labels = graph.labels
        self.model = model
        self.max_width = int(max_width)
        self._tiling: Optional[Tuple[Optional[np.ndarray], ...]] = None
        self._tiled: Dict[int, Tuple[Optional[np.ndarray], Optional[np.ndarray]]] = {}

    # ------------------------------------------------------------------
    def tiled_arrays(
        self, width: int
    ) -> Tuple[Optional[np.ndarray], Optional[np.ndarray]]:
        """``width`` copies of the features/labels: leading views of one
        ``max_width`` tiling (built on first use), memoised per width so
        each width keeps one array object — the key of the CSR feature
        memo (:func:`repro.tensor.sparse.sparse_features`)."""
        got = self._tiled.get(width)
        if got is None:
            if self._tiling is None:
                self._tiling = tuple(
                    None if a is None else np.concatenate([a] * self.max_width)
                    for a in (self.features, self.labels)
                )
            rows = width * self.num_nodes
            got = self._tiled[width] = tuple(
                None if a is None else a[:rows] for a in self._tiling
            )
        return got

    def stacked_graph(self, graphs: List[Graph]) -> Graph:
        """Block-diagonal union of ``graphs``, built from their edge keys.

        Graph ``b``'s nodes occupy ids ``[b * N, (b + 1) * N)``; no edges
        cross blocks.  One graph is returned as is.  The member graphs
        are only read: nothing is derived or cached on them.
        """
        width = len(graphs)
        if not 1 <= width <= self.max_width:
            raise ValueError(
                f"cannot stack {width} graphs (max_width={self.max_width})"
            )
        if width == 1:
            return graphs[0]
        n = np.int64(self.num_nodes)
        big = np.int64(width) * n
        parts = []
        for b, g in enumerate(graphs):
            keys = g.edge_keys()
            u = keys // n
            off = np.int64(b) * n
            parts.append((u + off) * big + (keys - u * n + off))
        features, labels = self.tiled_arrays(width)
        return Graph._from_keys(
            width * self.num_nodes, np.concatenate(parts), features, labels
        )

    # ------------------------------------------------------------------
    def stacked_logits(self, graphs: List[Graph]) -> np.ndarray:
        """Eval-mode logits of every graph from one stacked forward.

        Returns shape ``(B, N, C)``: row ``b`` holds graph ``b``'s
        full-graph logits, bitwise equal to
        ``model.predict_logits(graphs[b])`` on this BLAS (row-independent
        CSR spmm + row-chunk-stable GEMM; see
        ``docs/equivalence-policy.md``).  At ``B = 1`` it *is* that
        forward.
        """
        logits = self.model.predict_logits(self.stacked_graph(graphs))
        return logits.reshape(len(graphs), self.num_nodes, -1)

"""Block-diagonal stacking of graphs over one shared node set.

The batched-forward kernel behind every reward of
:class:`~repro.core.env.TopologyEnv` and every micro-batch of
``repro serve`` (:mod:`repro.serve`), extracted into one reusable builder:

* ``B`` graphs over the same ``N`` nodes, features and labels are unioned
  into one ``B * N``-node graph whose per-graph blocks carry the
  per-graph edges (no edges cross blocks), so any propagation matrix of
  the union is the block-diagonal of the per-graph ones and **one** GNN
  forward scores all ``B`` graphs.
* One graph is its own stack: ``stacked_graph([g])`` is ``g``, so a
  width-1 score is the plain per-graph forward on ``g``'s own
  propagation caches.
* Stacked graphs are cached FIFO on per-graph object identity — callers
  that memoise their rewires (the env/serving ``(k, d)`` memos) hand
  back shared objects, so repeated batch compositions (and their cached
  propagation matrices) are free.

The builder reads only the node count, features and labels of the graph
it is built from, which edge churn never changes, so one builder serves
a topology for its whole lifetime, rebases included.  Unlike the env
(which always stacks exactly ``num_envs`` graphs), it accepts any batch
width up to ``max_width`` — the serving micro-batcher flushes partial
batches when the collection window closes — so per-width tiled features
are built lazily and memoised per width.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from ...gnn.base import cached_matrix
from ...graph import Graph
from ...graph.normalize import gcn_norm, row_norm

__all__ = ["STACKED_CACHE_LIMIT", "StackedGraphBuilder"]

#: Propagation-matrix cache keys whose stacked matrix is exactly the
#: block-diagonal of the per-graph ones (no edges cross blocks, so
#: degrees — and hence every normalisation — are per-block local).
#: Assembling from per-graph cached blocks skips the O(width * E) rebuild
#: a fresh stacked graph would otherwise pay on its first forward.
_BLOCK_DIAG_BUILDERS = {
    "gcn_norm": gcn_norm,
    "row_norm": row_norm,
    "h2gcn_a1": lambda g: gcn_norm(g, add_self_loops=False),
}

#: Stacked block-diagonal graphs kept alive (with their cached propagation
#: matrices).  Keys hold strong references to the per-episode graphs, so
#: ``id``-based keying stays valid for the lifetime of an entry.
STACKED_CACHE_LIMIT = 16


class StackedGraphBuilder:
    """Builds (and caches) block-diagonal unions of graphs.

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
    cache_limit:
        Stacked graphs kept alive (FIFO on per-graph identity).

    Examples
    --------
    >>> stack = StackedGraphBuilder(base, model, max_width=8)
    >>> logits = stack.stacked_logits([g1, g2, g3])   # (3, N, C)
    """

    def __init__(
        self,
        graph: Graph,
        model=None,
        max_width: int = 1,
        cache_limit: int = STACKED_CACHE_LIMIT,
    ) -> None:
        if max_width < 1:
            raise ValueError(f"max_width must be >= 1, got {max_width}")
        self.num_nodes = graph.num_nodes
        self.features = graph.features
        self.labels = graph.labels
        self.model = model
        self.max_width = int(max_width)
        self.cache_limit = int(cache_limit)
        self._tiled: Dict[int, Tuple[Optional[np.ndarray], Optional[np.ndarray]]] = {}
        self._cache: Dict[tuple, tuple] = {}
        #: Which propagation caches the model actually reads — learned
        #: from the first width > 1 forward, then pre-seeded
        #: block-diagonally on every later stacked build (see
        #: ``_seed_norms``).
        self._seed_keys: Optional[Tuple[str, ...]] = None

    # ------------------------------------------------------------------
    def tiled_arrays(
        self, width: int
    ) -> Tuple[Optional[np.ndarray], Optional[np.ndarray]]:
        """``width`` copies of the features/labels, memoised per width
        (built on the first stacked graph of that width)."""
        got = self._tiled.get(width)
        if got is None:
            features, labels = self.features, self.labels
            got = (
                np.tile(features, (width, 1)) if features is not None else None,
                np.tile(labels, width) if labels is not None else None,
            )
            self._tiled[width] = got
        return got

    def stacked_graph(self, graphs: List[Graph]) -> Graph:
        """Block-diagonal union of ``graphs`` (cached on identity).

        Graph ``b``'s nodes occupy ids ``[b * N, (b + 1) * N)``; no edges
        cross blocks.  One graph is returned as is.  The FIFO cache entry
        pins the per-graph objects, keeping the id-based key valid for
        its lifetime.
        """
        width = len(graphs)
        if not 1 <= width <= self.max_width:
            raise ValueError(
                f"cannot stack {width} graphs (max_width={self.max_width})"
            )
        if width == 1:
            return graphs[0]
        key = tuple(map(id, graphs))
        hit = self._cache.get(key)
        if hit is not None:
            return hit[1]
        n = np.int64(self.num_nodes)
        big = np.int64(width) * n
        parts = []
        for b, g in enumerate(graphs):
            ea = g.edge_array()
            if ea.shape[0]:
                off = np.int64(b) * n
                parts.append((ea[:, 0] + off) * big + (ea[:, 1] + off))
        keys = (
            np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
        )
        features, labels = self.tiled_arrays(width)
        stacked = Graph._from_keys(
            width * self.num_nodes, keys, features, labels
        )
        if self._seed_keys:
            self._seed_norms(stacked, graphs)
        while len(self._cache) >= self.cache_limit:
            self._cache.pop(next(iter(self._cache)))
        # The entry pins the per-episode graphs, keeping the id-key valid.
        self._cache[key] = (list(graphs), stacked)
        return stacked

    def _assemble_norm(self, key: str, graphs: List[Graph]) -> sp.csr_matrix:
        """Block-diagonal propagation matrix from per-graph cached blocks.

        Each block is memoised on *its* graph (built once per candidate
        lifetime, reused by every later batch containing it); the
        assembly is pure concatenation, preserving every block's row
        order entry for entry.
        """
        builder = _BLOCK_DIAG_BUILDERS[key]
        blocks = [cached_matrix(g, key, builder) for g in graphs]
        # Direct CSR concatenation — scipy's ``block_diag`` detours
        # through COO (rebuild + validation), which costs more than the
        # normalisation it would replace at serving batch rates.
        n = self.num_nodes
        width = len(blocks)
        total = sum(int(b.nnz) for b in blocks)
        idx_dtype = (
            np.int64 if max(width * n, total) >= np.iinfo(np.int32).max
            else np.int32
        )
        data = np.concatenate([b.data for b in blocks])
        indices = np.empty(total, dtype=idx_dtype)
        indptr = np.empty(width * n + 1, dtype=idx_dtype)
        indptr[0] = 0
        pos = 0
        for i, block in enumerate(blocks):
            nnz = int(block.nnz)
            np.add(
                block.indices, idx_dtype(i * n),
                out=indices[pos:pos + nnz], casting="unsafe",
            )
            np.add(
                block.indptr[1:], idx_dtype(pos),
                out=indptr[1 + i * n: 1 + (i + 1) * n], casting="unsafe",
            )
            pos += nnz
        return sp.csr_matrix(
            (data, indices, indptr), shape=(width * n, width * n)
        )

    def _seed_norms(self, stacked: Graph, graphs: List[Graph]) -> None:
        """Pre-seed the stacked graph's propagation caches block-diagonally.

        Only keys that passed :meth:`_validated_seed_keys` are seeded, so
        every seeded matrix is bitwise what the from-scratch build would
        have produced — at concatenation cost instead of normalisation
        cost.
        """
        for key in self._seed_keys:
            stacked.cache[key] = self._assemble_norm(key, graphs)

    def _validated_seed_keys(
        self, stacked: Graph, graphs: List[Graph]
    ) -> Tuple[str, ...]:
        """Which propagation caches the first dense forward populated AND
        whose block-diagonal assembly reproduces the from-scratch matrix
        exactly (indptr, indices and data, byte for byte).

        Validating against the direct build keeps the pre-seed strictly
        an optimisation: a backbone whose normalisation comes out of
        scipy's SpGEMM with a different within-row entry order (summation
        order is rounding-visible in the forward) simply never seeds.
        """
        keys = []
        for key in _BLOCK_DIAG_BUILDERS:
            direct = stacked.cache.get(key)
            if direct is None:
                continue
            mat = self._assemble_norm(key, graphs)
            if (
                np.array_equal(mat.indptr, direct.indptr)
                and np.array_equal(mat.indices, direct.indices)
                and mat.data.tobytes() == direct.data.tobytes()
            ):
                keys.append(key)
        return tuple(keys)

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
        stacked = self.stacked_graph(graphs)
        logits = self.model.predict_logits(stacked)
        if self._seed_keys is None and len(graphs) > 1:
            # Learn which propagation caches this backbone populates (and
            # assembles reproducibly); later stacked builds pre-seed
            # exactly those block-diagonally.
            self._seed_keys = self._validated_seed_keys(stacked, graphs)
        return logits.reshape(len(graphs), self.num_nodes, -1)

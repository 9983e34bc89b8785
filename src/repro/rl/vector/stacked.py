"""Block-diagonal stacking of graphs derived from one shared base.

The batched-forward kernel behind :class:`~repro.core.env.TopologyEnv` at
``num_envs > 1`` — and, since the serving layer (:mod:`repro.serve`) micro-batches
concurrent requests into the same kernel, behind ``repro serve`` too —
extracted into one reusable builder:

* ``B`` graphs over the same ``N`` nodes are unioned into one
  ``B * N``-node graph whose per-episode blocks carry the per-graph
  edges (no edges cross blocks), so any propagation matrix of the union
  is the block-diagonal of the per-graph ones and **one** GNN forward
  scores all ``B`` graphs.
* Stacked graphs are cached FIFO on per-graph object identity — callers
  that memoise their rewires (the env/serving ``(k, d)`` memos) hand
  back shared objects, so repeated batch compositions (and their cached
  propagation matrices) are free.
* With ``incremental=True`` each stacked graph additionally carries the
  block-diagonal union of the per-graph
  :class:`~repro.graph.GraphDelta` edits against a stacked copy of the
  delta root, so a per-width
  :class:`~repro.gnn.IncrementalEvaluator` re-evaluates only the
  blocks' edit halos against cached stacked-base logits.

Unlike the env (which always stacks exactly ``num_envs`` graphs), the
builder accepts any batch width up to ``max_width`` — the serving
micro-batcher flushes partial batches when the collection window
closes, so per-width tiled features, stacked bases and incremental
evaluators are built lazily and memoised per width.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from ...gnn.base import cached_matrix, features_tensor
from ...gnn.incremental import IncrementalEvaluator
from ...graph import Graph, GraphDelta
from ...graph.normalize import gcn_norm, row_norm
from ...tensor import no_grad

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
    """Builds (and caches) block-diagonal unions of derived graphs.

    Parameters
    ----------
    base_graph:
        The shared topology every stacked graph's blocks derive from.
    model:
        The GNN scoring the stacked graphs (needed by
        :meth:`stacked_logits`; stacking alone works without it).
    max_width:
        Largest batch width this builder will be asked to stack.
    incremental:
        Record block-diagonal deltas and evaluate through per-width
        :class:`~repro.gnn.IncrementalEvaluator` instances instead of
        dense stacked forwards.
    max_halo_frac:
        Passed through to the incremental evaluators: halo fractions
        above it fall back to the dense stacked forward.
    cache_limit:
        Stacked graphs kept alive (FIFO on per-graph identity).

    Examples
    --------
    >>> stack = StackedGraphBuilder(base, model, max_width=8)
    >>> logits = stack.stacked_logits([g1, g2, g3])   # (3, N, C)
    """

    def __init__(
        self,
        base_graph: Graph,
        model=None,
        max_width: int = 1,
        incremental: bool = False,
        max_halo_frac: float = 0.5,
        cache_limit: int = STACKED_CACHE_LIMIT,
    ) -> None:
        if max_width < 1:
            raise ValueError(f"max_width must be >= 1, got {max_width}")
        self.base_graph = base_graph
        self.model = model
        self.max_width = int(max_width)
        self.incremental = bool(incremental)
        self.max_halo_frac = float(max_halo_frac)
        self.cache_limit = int(cache_limit)
        #: The delta root: rewires of a graph that is itself derived
        #: collapse to the root, so the stacked base must too.
        self.delta_root: Graph = (
            base_graph.delta.base if base_graph.delta is not None
            else base_graph
        )
        self._tiled: Dict[int, Tuple[Optional[np.ndarray], Optional[np.ndarray]]] = {}
        self._stacked_bases: Dict[int, Graph] = {}
        self._incs: Dict[int, IncrementalEvaluator] = {}
        self._cache: Dict[tuple, tuple] = {}
        #: Which propagation caches the model actually reads — learned
        #: from the first dense forward, then pre-seeded block-diagonally
        #: on every later stacked build (see ``_seed_norms``).
        self._seed_keys: Optional[Tuple[str, ...]] = None

    # ------------------------------------------------------------------
    def block_keys(
        self, u: np.ndarray, v: np.ndarray, block: int, width: int
    ) -> np.ndarray:
        """Canonical keys of edges ``(u, v)`` placed in block ``block`` of
        the ``width * N`` block-diagonal id space — the one encoding
        shared by the stacked graph, the stacked base and the stacked
        delta."""
        n = self.base_graph.num_nodes
        off = np.int64(block * n)
        big = np.int64(width * n)
        return (u + off) * big + (v + off)

    def tiled_arrays(
        self, width: int
    ) -> Tuple[Optional[np.ndarray], Optional[np.ndarray]]:
        """``width`` copies of the base features/labels, memoised per
        width (built on the first stacked graph of that width)."""
        got = self._tiled.get(width)
        if got is None:
            features = self.base_graph.features
            labels = self.base_graph.labels
            got = (
                np.tile(features, (width, 1)) if features is not None else None,
                np.tile(labels, width) if labels is not None else None,
            )
            self._tiled[width] = got
        return got

    # ------------------------------------------------------------------
    def stacked_base(self, width: int) -> Graph:
        """``width`` block-diagonal copies of the delta root — the
        reference topology the incremental evaluators cache logits for."""
        stacked = self._stacked_bases.get(width)
        if stacked is None:
            ea = self.delta_root.edge_array()
            if ea.shape[0]:
                keys = np.concatenate(
                    [
                        self.block_keys(ea[:, 0], ea[:, 1], b, width)
                        for b in range(width)
                    ]
                )
            else:
                keys = np.empty(0, dtype=np.int64)
            features, labels = self.tiled_arrays(width)
            stacked = Graph._from_keys(
                width * self.base_graph.num_nodes, keys, features, labels
            )
            self._stacked_bases[width] = stacked
        return stacked

    def incremental_for(self, width: int) -> Optional[IncrementalEvaluator]:
        """The per-width stacked evaluator (lazily built), or ``None``
        when the builder is not incremental or it was never needed."""
        if not self.incremental:
            return None
        inc = self._incs.get(width)
        if inc is None:
            inc = IncrementalEvaluator(
                self.model, self.stacked_base(width),
                max_halo_frac=self.max_halo_frac,
            )
            self._incs[width] = inc
        return inc

    def invalidate(self) -> None:
        """Drop every cached incremental base state (after weight updates)."""
        for inc in self._incs.values():
            inc.invalidate()

    # ------------------------------------------------------------------
    def stacked_graph(self, graphs: List[Graph]) -> Graph:
        """Block-diagonal union of ``graphs`` (cached on identity).

        Graph ``b``'s nodes occupy ids ``[b * N, (b + 1) * N)``; no edges
        cross blocks.  The FIFO cache entry pins the per-graph objects,
        keeping the id-based key valid for its lifetime.
        """
        width = len(graphs)
        if not 1 <= width <= self.max_width:
            raise ValueError(
                f"cannot stack {width} graphs (max_width={self.max_width})"
            )
        key = tuple(map(id, graphs))
        hit = self._cache.get(key)
        if hit is not None:
            return hit[1]
        parts = []
        for b, g in enumerate(graphs):
            ea = g.edge_array()
            if ea.shape[0]:
                parts.append(self.block_keys(ea[:, 0], ea[:, 1], b, width))
        keys = (
            np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
        )
        features, labels = self.tiled_arrays(width)
        stacked = Graph._from_keys(
            width * self.base_graph.num_nodes, keys, features, labels
        )
        if self.incremental:
            self._attach_delta(stacked, graphs)
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
        if len(blocks) == 1:
            return blocks[0]
        # Direct CSR concatenation — scipy's ``block_diag`` detours
        # through COO (rebuild + validation), which costs more than the
        # normalisation it would replace at serving batch rates.
        n = self.base_graph.num_nodes
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

    def _attach_delta(self, stacked: Graph, graphs: List[Graph]) -> None:
        """Record the stacked graph's edge delta against the stacked base.

        The block-diagonal union of per-graph deltas (offset into each
        block's node range) *is* the stacked delta, so the stacked
        forward inherits the halo-restricted path for free.  Graphs of
        unknown provenance (no delta against the shared root) leave the
        stacked graph delta-less — the evaluator then falls back to the
        dense stacked forward.
        """
        width = len(graphs)
        n = self.base_graph.num_nodes
        added: List[np.ndarray] = []
        removed: List[np.ndarray] = []
        for b, g in enumerate(graphs):
            if g is self.delta_root:
                continue
            delta = g.delta
            if delta is None or delta.base is not self.delta_root:
                return
            for keys, out in ((delta.added, added), (delta.removed, removed)):
                if keys.shape[0]:
                    out.append(
                        self.block_keys(keys // n, keys % n, b, width)
                    )
        empty = np.empty(0, dtype=np.int64)
        stacked.delta = GraphDelta(
            self.stacked_base(width),
            np.concatenate(added) if added else empty,
            np.concatenate(removed) if removed else empty,
        )

    # ------------------------------------------------------------------
    def stacked_logits(self, graphs: List[Graph]) -> np.ndarray:
        """Eval-mode logits of every graph from one stacked forward.

        Returns shape ``(B, N, C)``: row ``b`` holds graph ``b``'s
        full-graph logits, bitwise equal to a single-graph forward on
        this BLAS (row-independent CSR spmm + row-chunk-stable GEMM; see
        ``docs/equivalence-policy.md``).  With ``incremental=True`` only
        the blocks' edit halos are re-scored against the cached
        stacked-base logits (ulp-level on the halo, byte-identical off
        it).
        """
        stacked = self.stacked_graph(graphs)
        width = len(graphs)
        if self.incremental:
            logits = self.incremental_for(width).predict_logits(stacked)
        else:
            was_training = self.model.training
            self.model.eval()
            with no_grad():
                logits = self.model(
                    stacked, features_tensor(stacked, self.model)
                ).data
            if was_training:
                self.model.train()
            if self._seed_keys is None:
                # Learn which propagation caches this backbone populates
                # (and assembles reproducibly); later stacked builds
                # pre-seed exactly those block-diagonally.
                self._seed_keys = self._validated_seed_keys(stacked, graphs)
        return logits.reshape(width, self.base_graph.num_nodes, -1)

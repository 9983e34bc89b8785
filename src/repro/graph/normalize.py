"""Propagation-matrix constructions shared by the GNN backbones.

``gcn_norm`` and ``row_norm`` are built in one pass over the graph's
sorted edge keys (:func:`~repro.graph.graph.csr_layout`), cache nothing
on the graph, and equal the scipy SpGEMM construction byte for byte
(``docs/equivalence-policy.md``, "Propagation matrices").
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .graph import Graph, csr_layout


def gcn_norm(graph: Graph, add_self_loops: bool = True) -> sp.csr_matrix:
    """Symmetric GCN normalisation ``D^{-1/2} (A + I) D^{-1/2}`` (Kipf-Welling).

    With ``add_self_loops=False`` the plain ``D^{-1/2} A D^{-1/2}`` is
    returned (H2GCN aggregates *without* the ego connection).  Columns
    ascend within each row.
    """
    n = graph.num_nodes
    indptr, indices, counts = csr_layout(graph.edge_keys(), n, add_self_loops)
    deg = counts.astype(np.float64)
    inv_sqrt = np.zeros_like(deg)
    nz = deg > 0
    inv_sqrt[nz] = deg[nz] ** -0.5
    data = np.repeat(inv_sqrt, counts) * inv_sqrt[indices]
    return sp.csr_matrix((data, indices, indptr), shape=(n, n))


def row_norm(graph: Graph, add_self_loops: bool = False) -> sp.csr_matrix:
    """Row-normalised adjacency ``D^{-1} A`` (mean aggregation, GraphSAGE).

    Columns descend within each row, as in the ``diag @ A`` product.
    """
    n = graph.num_nodes
    indptr, indices, counts = csr_layout(
        graph.edge_keys(), n, add_self_loops, descending=True
    )
    deg = counts.astype(np.float64)
    inv = np.zeros_like(deg)
    nz = deg > 0
    inv[nz] = 1.0 / deg[nz]
    data = np.repeat(inv, counts)
    return sp.csr_matrix((data, indices, indptr), shape=(n, n))


def two_hop_adjacency(graph: Graph) -> sp.csr_matrix:
    """Strict 2-hop adjacency: reachable in exactly two hops, excluding
    one-hop neighbours and the ego node (the H2GCN neighbourhood N2)."""
    adj = graph.adjacency()
    two = (adj @ adj).tocsr()
    two.setdiag(0)
    two.eliminate_zeros()
    two.data = np.ones_like(two.data)
    # Remove entries that are also one-hop edges.
    overlap = two.multiply(adj)
    two = (two - overlap).tocsr()
    two.eliminate_zeros()
    return two


def adjacency_from_matrix(matrix: sp.spmatrix) -> sp.csr_matrix:
    """Binarise and symmetrise an arbitrary sparse matrix (kNN graphs)."""
    m = matrix.tocsr()
    m.data = np.ones_like(m.data)
    sym = ((m + m.T) > 0).astype(np.float64).tocsr()
    sym.setdiag(0)
    sym.eliminate_zeros()
    return sym

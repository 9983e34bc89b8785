"""The scipy SpGEMM construction of the propagation matrices: the oracle
the O(E) builders of :mod:`repro.graph.normalize` are held to byte for
byte (``docs/equivalence-policy.md``, "Propagation matrices")."""

import numpy as np
import scipy.sparse as sp


def oracle_adjacency(graph):
    """``A`` through scipy's COO -> CSR conversion of both orientations."""
    n = graph.num_nodes
    keys = graph.edge_keys()
    if not keys.shape[0]:
        return sp.csr_matrix((n, n))
    u, v = keys // n, keys % n
    rows = np.concatenate([u, v])
    cols = np.concatenate([v, u])
    return sp.csr_matrix((np.ones(rows.shape[0]), (rows, cols)), shape=(n, n))


def _with_loops(graph, add_self_loops):
    adj = oracle_adjacency(graph)
    if add_self_loops:
        adj = (adj + sp.eye(graph.num_nodes, format="csr")).tocsr()
    return adj


def oracle_gcn_norm(graph, add_self_loops=True):
    """``D^{-1/2} (A + I) D^{-1/2}`` as two sparse products."""
    adj = _with_loops(graph, add_self_loops)
    deg = np.asarray(adj.sum(axis=1)).ravel()
    inv_sqrt = np.zeros_like(deg)
    nz = deg > 0
    inv_sqrt[nz] = deg[nz] ** -0.5
    d_half = sp.diags(inv_sqrt)
    return (d_half @ adj @ d_half).tocsr()


def oracle_row_norm(graph, add_self_loops=False):
    """``D^{-1} A`` as one sparse product (rows come out column-descending)."""
    adj = _with_loops(graph, add_self_loops)
    deg = np.asarray(adj.sum(axis=1)).ravel()
    inv = np.zeros_like(deg)
    nz = deg > 0
    inv[nz] = 1.0 / deg[nz]
    return (sp.diags(inv) @ adj).tocsr()


def assert_csr_bytes_equal(got, want):
    """Same shape, and ``indptr``, ``indices`` and ``data`` equal byte for
    byte, dtypes included."""
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, (name, a.dtype, b.dtype)
        assert a.tobytes() == b.tobytes(), name


def assert_untouched(graph):
    """Nothing is derived or cached on ``graph``."""
    assert graph.cache == {}
    assert graph._adj is None
    assert graph._edge_array is None

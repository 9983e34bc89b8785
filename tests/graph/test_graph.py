"""Tests for the Graph container."""

import numpy as np
import pytest

from repro.graph import Graph, canonical_edge


def triangle():
    return Graph(3, [(0, 1), (1, 2), (2, 0)])


def test_canonical_edge_orders_endpoints():
    assert canonical_edge(3, 1) == (1, 3)
    assert canonical_edge(1, 3) == (1, 3)


def test_edges_are_deduplicated_and_undirected():
    g = Graph(3, [(0, 1), (1, 0), (0, 1)])
    assert g.num_edges == 1
    assert g.has_edge(1, 0)


def test_self_loop_rejected():
    with pytest.raises(ValueError, match="self-loop"):
        Graph(2, [(0, 0)])


def test_out_of_range_edge_rejected():
    with pytest.raises(ValueError, match="out of range"):
        Graph(2, [(0, 5)])


def test_zero_nodes_rejected():
    with pytest.raises(ValueError, match="positive"):
        Graph(0, [])


def test_feature_shape_validated():
    with pytest.raises(ValueError, match="rows"):
        Graph(3, [], features=np.zeros((2, 4)))


def test_label_shape_validated():
    with pytest.raises(ValueError):
        Graph(3, [], labels=np.zeros((2,), dtype=int))


def test_non_finite_features_rejected():
    features = np.zeros((3, 2))
    features[0, 1] = np.nan
    with pytest.raises(ValueError, match="1 non-finite entries, first in row 0"):
        Graph(3, [(0, 1), (1, 2)], features=features, labels=[-1, 0, 1])
    features = np.zeros((4, 2))
    features[2, 0] = np.inf
    features[3] = -np.inf
    with pytest.raises(ValueError, match="3 non-finite entries, first in row 2"):
        Graph(4, [], features=features)


def test_one_dimensional_features_rejected():
    with pytest.raises(ValueError, match=r"2-D \(N, d\).*shape \(3,\)"):
        Graph(3, [(0, 1)], features=np.ones(3))


def test_negative_labels_rejected():
    with pytest.raises(ValueError, match="2 negative, first -2 at node 1"):
        Graph(4, [(0, 1)], labels=[0, -2, 1, -1])


def test_valid_features_and_labels_accepted():
    g = Graph(3, [(0, 1)], features=np.ones((3, 2)), labels=[0, 2, 1])
    assert g.num_features == 2
    assert g.num_classes == 3


def test_adjacency_symmetric_no_selfloops():
    adj = triangle().adjacency().toarray()
    np.testing.assert_allclose(adj, adj.T)
    np.testing.assert_allclose(np.diag(adj), 0)
    assert adj.sum() == 6  # 3 undirected edges -> 6 entries


def test_degrees():
    g = Graph(4, [(0, 1), (0, 2), (0, 3)])
    np.testing.assert_array_equal(g.degrees(), [3, 1, 1, 1])


def test_neighbors_sorted():
    g = Graph(4, [(2, 0), (2, 3), (2, 1)])
    np.testing.assert_array_equal(g.neighbors(2), [0, 1, 3])
    np.testing.assert_array_equal(g.neighbors(0), [2])


def test_edge_index_has_both_directions():
    ei = triangle().edge_index()
    assert ei.shape == (2, 6)
    pairs = set(map(tuple, ei.T))
    assert (0, 1) in pairs and (1, 0) in pairs


def test_empty_graph_adjacency():
    g = Graph(3, [])
    assert g.adjacency().nnz == 0
    assert g.num_edges == 0


def test_add_edges_returns_new_graph():
    g = triangle()
    g2 = g.add_edges([(0, 1)])  # already present
    assert g2.num_edges == 3
    g3 = g.add_edges([(0, 2), (1, 2)])
    assert g.num_edges == 3  # original untouched
    assert g3.num_edges == 3


def test_add_edges_skips_self_loops():
    g = triangle().add_edges([(1, 1)])
    assert g.num_edges == 3


def test_remove_edges():
    g = triangle().remove_edges([(1, 0), (5, 4) if False else (2, 1)])
    assert g.num_edges == 1
    assert g.has_edge(0, 2)


def test_remove_absent_edge_is_noop():
    g = Graph(4, [(0, 1)]).remove_edges([(2, 3)])
    assert g.num_edges == 1


def test_remove_out_of_range_edge_is_noop():
    # (0, 15) is absent, but its key 0*10+15 would alias edge (1, 5)'s
    # key 1*10+5 if it were not range-filtered before the key diff.
    g = Graph(10, [(1, 5), (2, 3)]).remove_edges([(0, 15)])
    assert g.edges == frozenset({(1, 5), (2, 3)})
    g2 = Graph(10, [(1, 5)]).remove_edges([(-3, 1), (1, 1)])
    assert g2.edges == frozenset({(1, 5)})


def test_with_edges_preserves_features_labels():
    X = np.ones((3, 2))
    y = np.array([0, 1, 0])
    g = Graph(3, [(0, 1)], features=X, labels=y)
    g2 = g.with_edges([(1, 2)])
    assert g2.features is X
    assert g2.labels is y


def test_num_classes_and_features():
    g = Graph(3, [], features=np.zeros((3, 5)), labels=np.array([0, 2, 1]))
    assert g.num_classes == 3
    assert g.num_features == 5


def test_equality():
    X = np.ones((3, 1))
    a = Graph(3, [(0, 1)], features=X)
    b = Graph(3, [(1, 0)], features=X.copy())
    assert a == b
    assert a != Graph(3, [(0, 2)], features=X)


def test_repr():
    g = Graph(3, [(0, 1)], features=np.zeros((3, 4)), labels=np.array([0, 1, 1]))
    assert "N=3" in repr(g)
    assert "|E|=1" in repr(g)

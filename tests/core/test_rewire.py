"""Tests for the graph topology optimisation module."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    clamp_state,
    edit_distance,
    rewire_graph,
    rewire_graph_reference,
)
from repro.datasets import planted_partition_graph
from repro.entropy import RelativeEntropy, build_entropy_sequences


@pytest.fixture(scope="module")
def setup():
    graph = planted_partition_graph(num_nodes=50, homophily=0.3, seed=0)
    entropy = RelativeEntropy.from_graph(graph, lam=1.0)
    sequences = build_entropy_sequences(graph, entropy, max_candidates=10)
    return graph, sequences


def test_zero_state_is_identity(setup):
    graph, seqs = setup
    n = graph.num_nodes
    out = rewire_graph(graph, seqs, np.zeros(n, int), np.zeros(n, int))
    assert out.edges == graph.edges


def test_add_only_increases_edges(setup):
    graph, seqs = setup
    n = graph.num_nodes
    out = rewire_graph(
        graph, seqs, np.full(n, 2), np.zeros(n, int), remove_edges=False
    )
    assert out.num_edges > graph.num_edges
    assert graph.edges <= out.edges


def test_remove_only_decreases_edges(setup):
    graph, seqs = setup
    n = graph.num_nodes
    out = rewire_graph(
        graph, seqs, np.zeros(n, int), np.full(n, 1), add_edges=False
    )
    assert out.num_edges < graph.num_edges
    assert out.edges <= graph.edges


def test_added_edges_follow_sequence(setup):
    graph, seqs = setup
    n = graph.num_nodes
    k = np.zeros(n, int)
    k[0] = 3
    out = rewire_graph(graph, seqs, k, np.zeros(n, int))
    for u in seqs.top_remote(0, 3):
        assert out.has_edge(0, int(u))


def test_removed_edges_are_worst_neighbors(setup):
    graph, seqs = setup
    n = graph.num_nodes
    v = int(np.argmax(graph.degrees()))
    d = np.zeros(n, int)
    d[v] = 2
    out = rewire_graph(graph, seqs, np.zeros(n, int), d)
    for u in seqs.worst_neighbors(v, 2):
        assert not out.has_edge(v, int(u))


def test_rewire_keeps_graph_valid(setup):
    graph, seqs = setup
    n = graph.num_nodes
    rng = np.random.default_rng(0)
    out = rewire_graph(
        graph, seqs, rng.integers(0, 5, n), rng.integers(0, 3, n)
    )
    adj = out.adjacency().toarray()
    np.testing.assert_allclose(adj, adj.T)
    np.testing.assert_allclose(np.diag(adj), 0)
    assert out.features is graph.features
    assert out.labels is graph.labels


def test_rewire_shape_validation(setup):
    graph, seqs = setup
    with pytest.raises(ValueError, match="shape"):
        rewire_graph(graph, seqs, np.zeros(3, int), np.zeros(graph.num_nodes, int))


def test_rewire_respects_budget(setup):
    """Each node adds at most k_v edges and deletes at most d_v."""
    graph, seqs = setup
    n = graph.num_nodes
    k = np.full(n, 2)
    out = rewire_graph(graph, seqs, k, np.zeros(n, int), remove_edges=False)
    added = out.edges - graph.edges
    per_node = np.zeros(n, int)
    for u, v in added:
        per_node[u] += 1
        per_node[v] += 1
    # An edge may be requested by both endpoints, so the per-node count can
    # exceed k_v only through edges another node initiated.
    for v in range(n):
        own_requests = set(map(int, seqs.top_remote(v, 2)))
        own_added = {u for u in own_requests if (min(u, v), max(u, v)) in added}
        assert len(own_added) <= 2


def test_clamp_state_bounds(setup):
    graph, seqs = setup
    n = graph.num_nodes
    k = np.full(n, 100)
    d = np.full(n, 100)
    k2, d2 = clamp_state(k, d, graph, seqs, k_max=5, d_max=4)
    assert (k2 <= 5).all()
    assert (d2 <= np.minimum(4, graph.degrees())).all()
    kneg, dneg = clamp_state(-np.ones(n, int), -np.ones(n, int), graph, seqs, 5, 5)
    assert (kneg == 0).all()
    assert (dneg == 0).all()


def test_clamp_state_respects_available_candidates(setup):
    graph, seqs = setup
    n = graph.num_nodes
    avail = (seqs.remote >= 0).sum(axis=1)
    k2, _ = clamp_state(np.full(n, 100), np.zeros(n, int), graph, seqs, 100, 5)
    assert (k2 <= avail).all()


def test_edit_distance(setup):
    graph, seqs = setup
    n = graph.num_nodes
    assert edit_distance(graph, graph) == 0
    out = rewire_graph(graph, seqs, np.full(n, 1), np.zeros(n, int),
                       remove_edges=False)
    assert edit_distance(graph, out) == out.num_edges - graph.num_edges


# ---------------------------------------------------------------------------
# Rewiring a churned graph; GraphDelta recording of add/remove edits
# ---------------------------------------------------------------------------
N = 36


@pytest.fixture(scope="module")
def world():
    graph = planted_partition_graph(
        num_nodes=N, homophily=0.4, feature_signal=0.4, num_features=12, seed=0
    )
    entropy = RelativeEntropy.from_graph(graph, lam=1.0)
    sequences = build_entropy_sequences(graph, entropy, max_candidates=6)
    return graph, sequences


counts = st.lists(st.integers(0, 4), min_size=N, max_size=N)
pairs = st.lists(
    st.tuples(st.integers(0, N - 1), st.integers(0, N - 1)), max_size=12
)


@settings(max_examples=25, deadline=None)
@given(counts, counts, pairs, st.integers(0, 30))
def test_rewire_of_churned_graph_matches_reference(world, ks, ds, adds, drop):
    """A churned (derived) topology rewires to the reference's keys, and
    the rewire carries no delta: it keeps no other graph alive."""
    graph, seqs = world
    churned = graph.add_edges(adds).remove_edges(graph.edge_array()[:drop])
    k, d = clamp_state(np.array(ks), np.array(ds), graph, seqs, 6, 6)
    out = rewire_graph(churned, seqs, k, d)
    want = rewire_graph_reference(churned, seqs, k, d)
    np.testing.assert_array_equal(out.edge_keys(), want.edge_keys())
    assert out.delta is None
    assert out.features is graph.features and out.labels is graph.labels


def test_add_remove_edges_record_delta(world):
    graph = world[0]
    extra = graph.add_edges([(0, 1), (2, 3)])
    # Only genuinely new keys land in the delta.
    expected = np.setdiff1d(extra.edge_keys(), graph.edge_keys())
    np.testing.assert_array_equal(extra.delta.added, expected)
    assert extra.delta.removed.shape[0] == 0

    u, v = map(int, graph.edge_array()[0])
    fewer = graph.remove_edges([(u, v), (0, 0 + 1)])
    assert fewer.delta.base is graph
    assert fewer.delta.added.shape[0] == 0
    np.testing.assert_array_equal(
        fewer.delta.removed, np.setdiff1d(graph.edge_keys(), fewer.edge_keys())
    )


def test_chained_edits_collapse_to_the_root(world):
    """Iterative add/remove chains keep ONE back-reference (the root), so
    intermediates stay collectable."""
    graph = world[0]
    g = graph
    for i in range(4):
        g = g.add_edges([(i, i + 10)])
        g = g.remove_edges([(i, i + 10)])
    assert g.delta.base is graph  # not the previous intermediate
    np.testing.assert_array_equal(
        g.delta.added, np.setdiff1d(g.edge_keys(), graph.edge_keys())
    )
    np.testing.assert_array_equal(
        g.delta.removed, np.setdiff1d(graph.edge_keys(), g.edge_keys())
    )

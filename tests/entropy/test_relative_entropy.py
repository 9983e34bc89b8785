"""Tests for the combined relative entropy and sequence construction."""

import numpy as np
import pytest

from repro.datasets import planted_partition_graph
from repro.entropy import (
    RelativeEntropy,
    build_entropy_sequences,
    class_pair_entropy,
)
from repro.graph import Graph


@pytest.fixture(scope="module")
def graph():
    return planted_partition_graph(num_nodes=60, homophily=0.85, seed=0)


@pytest.fixture(scope="module")
def entropy(graph):
    return RelativeEntropy.from_graph(graph, lam=1.0)


def test_from_graph_requires_features():
    g = Graph(3, [(0, 1)], labels=np.array([0, 1, 0]))
    with pytest.raises(ValueError, match="features"):
        RelativeEntropy.from_graph(g)


def test_from_graph_rejects_non_finite_features(graph):
    """One NaN would make the normaliser NaN and empty every remote list."""
    features = graph.features.copy()
    features[7, 3] = np.nan
    features[41, 0] = np.inf
    bad = Graph._from_keys(
        graph.num_nodes, graph.edge_keys(), features, graph.labels
    )
    with pytest.raises(
        ValueError, match="2 non-finite entries, first in row 7"
    ):
        RelativeEntropy.from_graph(bad)


def test_from_graph_rejects_negative_lambda(graph):
    with pytest.raises(ValueError, match="lambda"):
        RelativeEntropy.from_graph(graph, lam=-0.5)


def test_row_matches_matrix(graph, entropy):
    H = entropy.matrix()
    for v in (0, 13, 59):
        np.testing.assert_allclose(entropy.row(v), H[v])


def test_pairs_match_matrix(graph, entropy):
    H = entropy.matrix()
    pairs = np.array([[0, 5], [10, 20], [59, 1]])
    np.testing.assert_allclose(entropy.pairs(pairs), H[pairs[:, 0], pairs[:, 1]])


def test_matrix_symmetric(entropy):
    H = entropy.matrix()
    np.testing.assert_allclose(H, H.T, atol=1e-12)


def test_lambda_zero_is_feature_only(graph):
    re0 = RelativeEntropy.from_graph(graph, lam=0.0)
    np.testing.assert_allclose(re0.row(0), re0.feature_row(0))


def test_lambda_scales_structural_term(graph):
    re1 = RelativeEntropy.from_graph(graph, lam=1.0)
    re10 = RelativeEntropy.from_graph(graph, lam=10.0)
    diff = re10.row(0) - re1.row(0)
    np.testing.assert_allclose(diff, 9.0 * re1.structural_row(0), atol=1e-10)


def test_same_class_pairs_have_higher_entropy(graph, entropy):
    """The paper's Fig. 8 observation: same-label pairs score higher."""
    H = entropy.matrix()
    labels = graph.labels
    same = labels[:, None] == labels[None, :]
    np.fill_diagonal(same, False)
    off_diag = ~np.eye(len(labels), dtype=bool)
    mean_same = H[same & off_diag].mean()
    mean_diff = H[~same & off_diag].mean()
    assert mean_same > mean_diff


def test_class_pair_entropy_diagonal_dominates(graph, entropy):
    M = class_pair_entropy(entropy, graph.labels)
    assert M.shape == (graph.num_classes, graph.num_classes)
    diag = np.diag(M).mean()
    off = M[~np.eye(len(M), dtype=bool)].mean()
    assert diag > off


def test_class_pair_entropy_label_gaps(graph, entropy):
    """Labels with an unused class id: empty cells are NaN, not 0."""
    labels = np.where(graph.labels >= 1, graph.labels + 1, graph.labels)
    M = class_pair_entropy(entropy, labels)
    assert M.shape == (int(labels.max()) + 1, int(labels.max()) + 1)
    assert np.isnan(M[1]).all() and np.isnan(M[:, 1]).all()
    present = np.unique(labels)
    sub = M[np.ix_(present, present)]
    assert np.isfinite(sub).all()
    # Present-class cells agree with the gap-free labelling.
    dense = class_pair_entropy(entropy, graph.labels)
    np.testing.assert_allclose(sub, dense)


def test_class_pair_entropy_num_classes_widens(graph, entropy):
    M = class_pair_entropy(entropy, graph.labels, num_classes=graph.num_classes + 2)
    assert M.shape == (graph.num_classes + 2,) * 2
    assert np.isnan(M[-1]).all() and np.isnan(M[:, -2]).all()
    with pytest.raises(ValueError, match="num_classes"):
        class_pair_entropy(entropy, graph.labels, num_classes=1)


def test_class_pair_entropy_rejects_bad_labels(graph, entropy):
    with pytest.raises(ValueError, match="non-negative"):
        class_pair_entropy(entropy, graph.labels - 1)
    with pytest.raises(ValueError, match="labels shape"):
        class_pair_entropy(entropy, graph.labels[:-1])
    with pytest.raises(ValueError, match="integers"):
        class_pair_entropy(entropy, graph.labels.astype(np.float64))


def test_class_pair_entropy_singleton_class(entropy, graph):
    """A class with one node has no non-self pairs: its diagonal is NaN."""
    labels = graph.labels.copy()
    solo = int(labels.max()) + 1
    labels[0] = solo
    M = class_pair_entropy(entropy, labels)
    assert np.isnan(M[solo, solo])
    assert np.isfinite(M[solo, :solo]).all()


# ---------------------------------------------------------------------------
# Entropy sequences
# ---------------------------------------------------------------------------
def test_sequences_shapes(graph, entropy):
    seqs = build_entropy_sequences(graph, entropy, max_candidates=8)
    assert seqs.remote.shape == (60, 8)
    assert seqs.num_nodes == 60
    assert seqs.max_candidates == 8
    assert len(seqs.neighbors) == 60


def test_remote_excludes_self_and_neighbors(graph, entropy):
    seqs = build_entropy_sequences(graph, entropy, max_candidates=8)
    for v in range(graph.num_nodes):
        cands = seqs.remote[v][seqs.remote[v] >= 0]
        assert v not in cands
        assert not set(cands) & set(graph.neighbors(v))


def test_remote_sorted_descending(graph, entropy):
    seqs = build_entropy_sequences(graph, entropy, max_candidates=8)
    for v in (0, 30):
        scores = seqs.remote_scores[v]
        valid = scores[np.isfinite(scores)]
        assert (np.diff(valid) <= 1e-12).all()


def test_neighbors_sorted_ascending(graph, entropy):
    seqs = build_entropy_sequences(graph, entropy, max_candidates=8)
    for v in range(graph.num_nodes):
        s = seqs.neighbor_scores[v]
        if len(s) > 1:
            assert (np.diff(s) >= -1e-12).all()


def test_top_remote_and_worst_neighbors(graph, entropy):
    seqs = build_entropy_sequences(graph, entropy, max_candidates=8)
    v = 0
    top3 = seqs.top_remote(v, 3)
    assert len(top3) <= 3
    np.testing.assert_array_equal(top3, seqs.remote[v][:len(top3)])
    d2 = seqs.worst_neighbors(v, 2)
    np.testing.assert_array_equal(d2, seqs.neighbors[v][:2])


def test_top_remote_handles_padding(entropy):
    # A near-complete graph leaves few remote candidates.
    g = Graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)],
              features=np.eye(4))
    re = RelativeEntropy.from_graph(g)
    seqs = build_entropy_sequences(g, re, max_candidates=5)
    assert len(seqs.top_remote(0, 5)) == 1  # only node 3 is remote for 0


def test_shuffle_breaks_ordering(graph, entropy):
    ordered = build_entropy_sequences(graph, entropy, max_candidates=8)
    shuffled = build_entropy_sequences(
        graph, entropy, max_candidates=8, shuffle=True,
        rng=np.random.default_rng(0),
    )
    # The shuffled variant must disagree with the entropy ordering somewhere.
    assert any(
        not np.array_equal(a, b)
        for a, b in zip(ordered.neighbors, shuffled.neighbors)
    )


def test_sequences_invalid_max_candidates(graph, entropy):
    with pytest.raises(ValueError):
        build_entropy_sequences(graph, entropy, max_candidates=0)


def test_remote_candidates_prefer_same_class(graph, entropy):
    """Remote top candidates should be enriched for the ego node's class."""
    seqs = build_entropy_sequences(graph, entropy, max_candidates=5)
    labels = graph.labels
    hits, total = 0, 0
    for v in range(graph.num_nodes):
        cands = seqs.top_remote(v, 5)
        hits += int((labels[cands] == labels[v]).sum())
        total += len(cands)
    base_rate = max(np.bincount(labels)) / len(labels)
    assert hits / total > base_rate

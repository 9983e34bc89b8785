"""Tests for the spatio-temporal GraphRARE extension."""

import numpy as np
import pytest

from repro.core import RareConfig, TemporalGraphRARE, drifting_snapshots
from repro.datasets.synthetic import DatasetSpec
from repro.graph import homophily_ratio, random_split


def spec():
    return DatasetSpec(
        name="temporal_toy",
        num_nodes=50,
        num_edges=150,
        num_features=48,
        num_classes=3,
        homophily=0.25,
        feature_signal=0.4,
    )


@pytest.fixture(scope="module")
def snapshots():
    return drifting_snapshots(spec(), num_snapshots=3, drift=0.3, seed=0)


def test_snapshots_share_nodes_features_labels(snapshots):
    base = snapshots[0]
    for snap in snapshots[1:]:
        assert snap.num_nodes == base.num_nodes
        assert snap.features is base.features
        assert snap.labels is base.labels


def test_snapshots_drift_but_overlap(snapshots):
    for a, b in zip(snapshots, snapshots[1:]):
        overlap = len(a.edges & b.edges) / len(a.edges)
        assert 0.3 < overlap < 1.0  # drifted, not replaced


def test_snapshots_preserve_homophily(snapshots):
    for snap in snapshots:
        assert abs(homophily_ratio(snap) - 0.25) < 0.1


def test_snapshots_edge_counts_stable(snapshots):
    for snap in snapshots:
        assert abs(snap.num_edges - 150) <= 15


def test_drifting_snapshots_validation():
    with pytest.raises(ValueError, match="drift"):
        drifting_snapshots(spec(), drift=1.5)
    with pytest.raises(ValueError, match="num_snapshots"):
        drifting_snapshots(spec(), num_snapshots=0)


def test_single_snapshot_is_base_graph():
    snaps = drifting_snapshots(spec(), num_snapshots=1, seed=0)
    assert len(snaps) == 1


def test_temporal_rare_end_to_end(snapshots):
    split = random_split(snapshots[0].labels, np.random.default_rng(0))
    cfg = RareConfig(
        k_max=3, d_max=3, max_candidates=8, episodes=1, horizon=3,
        co_train_epochs=3, final_epochs=30, final_patience=8, seed=0,
    )
    result = TemporalGraphRARE("gcn", cfg).fit(snapshots, split)
    assert 0.0 <= result.test_acc <= 1.0
    assert 0.0 <= result.baseline_test_acc <= 1.0
    assert len(result.per_snapshot) == 3
    assert len(result.homophily_curve) == 3
    # Only the final snapshot carries a baseline.
    assert np.isnan(result.per_snapshot[0].baseline_test_acc)
    assert not np.isnan(result.per_snapshot[-1].baseline_test_acc)


def test_snapshots_chain_as_one_delta_against_the_base(snapshots):
    """Later snapshots are base + ONE collapsed GraphDelta — the shape
    the streaming engine keys on."""
    base = snapshots[0]
    assert base.delta is None
    for snap in snapshots[1:]:
        assert snap.delta is not None
        assert snap.delta.base is base
        # The recorded edits are genuine and disjoint.
        assert np.isin(snap.delta.removed, base.edge_keys()).all()
        assert not np.isin(snap.delta.added, base.edge_keys()).any()
        assert np.intersect1d(snap.delta.added, snap.delta.removed).size == 0


def test_empty_drift_step_reuses_the_base_edges():
    """drift=0.0 keeps every base edge; a snapshot that ends up with the
    identical edge set IS the base object (no spurious delta)."""
    snaps = drifting_snapshots(spec(), num_snapshots=3, drift=0.0, seed=0)
    base = snaps[0]
    for snap in snaps[1:]:
        # Nothing was removed: the base edge set survives intact.
        assert np.isin(base.edge_keys(), snap.edge_keys()).all()
        if snap.num_edges == base.num_edges:
            assert snap is base


def test_duplicate_resampled_edges_collapse():
    """Full replacement (drift=1.0): resampled edges that duplicate a
    kept or earlier-sampled edge collapse into the set — snapshots never
    carry duplicate keys, in either orientation."""
    snaps = drifting_snapshots(spec(), num_snapshots=4, drift=1.0, seed=1)
    for snap in snaps:
        keys = snap.edge_keys()
        assert np.unique(keys).size == keys.size
        arr = snap.edge_array()
        assert (arr[:, 0] < arr[:, 1]).all()  # canonical orientation


def test_temporal_fit_warm_starts_across_snapshots(snapshots):
    """The co-trained backbone threads through the snapshot sequence:
    one model object carries the whole temporal trajectory (what the
    docstring promises), while baselines/final evals stay fresh."""
    split = random_split(snapshots[0].labels, np.random.default_rng(0))
    cfg = RareConfig(
        k_max=2, d_max=2, max_candidates=8, episodes=1, horizon=2,
        co_train_epochs=2, final_epochs=5, final_patience=3, seed=0,
    )
    result = TemporalGraphRARE("gcn", cfg).fit(snapshots, split)
    carried = {id(r.co_trained_model) for r in result.per_snapshot}
    assert len(carried) == 1
    assert result.per_snapshot[0].co_trained_model is not None
    # Independent single-graph runs do NOT share a model.
    from repro.core import GraphRARE

    a = GraphRARE("gcn", cfg).fit(snapshots[0], split, train_baseline=False)
    b = GraphRARE("gcn", cfg).fit(snapshots[0], split, train_baseline=False)
    assert a.co_trained_model is not b.co_trained_model


def test_temporal_rare_validation(snapshots):
    split = random_split(snapshots[0].labels, np.random.default_rng(0))
    model = TemporalGraphRARE("gcn", RareConfig(episodes=1, horizon=2))
    with pytest.raises(ValueError, match="at least one"):
        model.fit([], split)

    from repro.graph import Graph

    mismatched = snapshots[:1] + [Graph(10, [], labels=np.zeros(10, int))]
    with pytest.raises(ValueError, match="share the node set"):
        model.fit(mismatched, split)

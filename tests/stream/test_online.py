"""OnlineEvaluator: sliding-window metrics, byte-identical to recompute.

The incremental integer state (edge count, same-label count, degree
vector) is updated from net keys only; every float metric derived from
it must be **bitwise equal** to rebuilding each windowed record from a
brand-new fully-validated Graph.  Model metrics join the bitwise class.
"""

import numpy as np
import pytest

from repro.gnn import GCN
from repro.graph import Graph
from repro.stream import (
    OnlineEvaluator,
    StreamConfig,
    StreamingGraph,
    degree_entropy,
    make_stream,
)

N = 30


def make_graph(seed=0, num_edges=60):
    rng = np.random.default_rng(seed)
    pairs = set()
    while len(pairs) < num_edges:
        u, v = rng.integers(N, size=2)
        if u != v:
            pairs.add((min(u, v), max(u, v)))
    arr = np.array(sorted(pairs), dtype=np.int64)
    return Graph(
        N, arr,
        features=rng.normal(size=(N, 4)),
        labels=rng.integers(0, 3, N),
    )


def churn_and_observe(online, sg, stream, batches, per_batch=4):
    for _ in range(batches):
        report = sg.apply(stream.take(per_batch))
        online.observe(sg.current, report.added_keys, report.removed_keys)


# ---------------------------------------------------------------------------
# Structural byte-identity across regimes
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("regime", ["drift", "burst", "hubs"])
def test_window_aggregates_bitwise_equal_recompute(regime):
    g = make_graph()
    sg = StreamingGraph(g, rebase_threshold=1.0)
    stream = make_stream(g, StreamConfig(regime=regime, seed=4))
    online = OnlineEvaluator(g, window=12)
    for batches in (3, 9, 13):  # partial, full, and wrapped windows
        churn_and_observe(online, sg, stream, batches)
        online.verify()  # asserts bitwise equality internally


def test_verify_holds_across_rebases():
    g = make_graph()
    sg = StreamingGraph(g, rebase_threshold=0.15)
    stream = make_stream(g, StreamConfig(seed=6))
    online = OnlineEvaluator(g, window=16)
    churn_and_observe(online, sg, stream, 40)
    assert sg.rebases >= 1
    online.verify()


def test_incremental_state_matches_a_cold_rescan():
    g = make_graph()
    sg = StreamingGraph(g, rebase_threshold=1.0)
    stream = make_stream(g, StreamConfig(seed=1))
    warm = OnlineEvaluator(g, window=8)
    churn_and_observe(warm, sg, stream, 10)
    # Cold-start path: no net keys, full rescan of the final graph.
    cold = OnlineEvaluator(g, window=8)
    cold.observe(sg.current)
    warm_rec = warm.records()[-1]
    cold_rec = cold.records()[-1]
    assert warm_rec == cold_rec
    for name in warm_rec:
        assert np.float64(warm_rec[name]).tobytes() == (
            np.float64(cold_rec[name]).tobytes()
        )


# ---------------------------------------------------------------------------
# Window semantics
# ---------------------------------------------------------------------------
def test_ring_caps_at_window_length():
    g = make_graph()
    sg = StreamingGraph(g, rebase_threshold=1.0)
    stream = make_stream(g, StreamConfig(seed=0))
    online = OnlineEvaluator(g, window=5)
    churn_and_observe(online, sg, stream, 12)
    assert len(online) == 5
    metrics = online.window_metrics()
    assert metrics["events"] == 5.0
    # The *_last aggregates reflect the newest record only.
    assert metrics["num_edges_last"] == online.records()[-1]["num_edges"]


def test_empty_window_aggregates_to_nothing():
    online = OnlineEvaluator(make_graph(), window=4)
    assert online.window_metrics() == {}
    assert online.recompute_window() == {}
    assert len(online) == 0
    online.verify()  # vacuously equal


def test_window_must_be_positive():
    with pytest.raises(ValueError, match="window"):
        OnlineEvaluator(make_graph(), window=0)


def test_degree_entropy_formula():
    assert degree_entropy(np.zeros(4, dtype=np.int64)) == 0.0
    # Uniform degrees over k active nodes -> log(k).
    assert degree_entropy(np.array([2, 2, 2, 2, 0])) == pytest.approx(
        np.log(4.0)
    )


def test_structural_metrics_values():
    # A graph small enough to check the metrics by hand.
    labels = np.array([0, 0, 1, 1])
    g = Graph(
        4, np.array([[0, 1], [1, 2], [2, 3]]),
        features=np.eye(4), labels=labels,
    )
    online = OnlineEvaluator(g, window=4)
    rec = online.observe(g)
    assert rec["num_edges"] == 3.0
    assert rec["homophily"] == pytest.approx(2.0 / 3.0)
    assert rec["degree_entropy"] == pytest.approx(
        degree_entropy(np.array([1, 2, 2, 1]))
    )


# ---------------------------------------------------------------------------
# Model metrics are bitwise
# ---------------------------------------------------------------------------
def test_dense_model_metrics_are_bitwise():
    g = make_graph()
    model = GCN(4, 3, hidden=8, rng=np.random.default_rng(0))
    mask = np.zeros(N, dtype=bool)
    mask[: N // 2] = True
    sg = StreamingGraph(g, rebase_threshold=1.0)
    stream = make_stream(g, StreamConfig(seed=2))
    online = OnlineEvaluator(g, window=6, model=model, mask=mask)
    churn_and_observe(online, sg, stream, 8)
    metrics = online.verify()  # acc/loss included in the bitwise check
    assert "acc_mean" in metrics and "loss_last" in metrics

"""StreamingGraph: the two-graph invariant under churn and rebases.

``current`` must always be ``root`` plus ONE collapsed delta — through
external event batches, interleaved agent-style edits, and across
bitwise-verified rebases.  Version bumps happen exactly on *effective*
batches and on rebases, because the ``(k, d)`` rewire memos are emptied
exactly when it changes.
"""

import numpy as np
import pytest

from repro.graph import Graph
from repro.stream import (
    ADD,
    REMOVE,
    DriftStream,
    EdgeEvent,
    StreamConfig,
    StreamingGraph,
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


def lift(raw):
    return [EdgeEvent(t, kind, u, v) for t, (kind, u, v) in enumerate(raw)]


# ---------------------------------------------------------------------------
# apply(): reports and the collapsed-delta invariant
# ---------------------------------------------------------------------------
def test_report_keys_match_the_before_after_diff():
    g = make_graph()
    sg = StreamingGraph(g, rebase_threshold=1.0)
    stream = DriftStream(g, seed=2)
    for _ in range(10):
        before = set(sg.current.edge_keys().tolist())
        report = sg.apply(stream.take(5))
        after = set(sg.current.edge_keys().tolist())
        assert set(report.added_keys.tolist()) == after - before
        assert set(report.removed_keys.tolist()) == before - after
        assert report.applied == 5
        # Net keys are sorted and canonical — exact integer inputs for
        # incremental metric maintenance.
        assert np.all(np.diff(report.added_keys) > 0)
        assert np.all(np.diff(report.removed_keys) > 0)


def test_current_stays_one_delta_against_the_root():
    g = make_graph()
    sg = StreamingGraph(g, rebase_threshold=1.0)
    stream = DriftStream(g, seed=0)
    for _ in range(20):
        sg.apply(stream.take(3))
        assert sg.root is g
        if sg.current is not g:
            assert sg.current.delta is not None
            assert sg.current.delta.base is g


def test_effective_batches_bump_version_noop_batches_do_not():
    g = make_graph()
    sg = StreamingGraph(g, rebase_threshold=1.0)
    present = tuple(g.edge_array()[0])
    absent = None
    for u in range(N):
        for v in range(u + 1, N):
            if np.int64(u) * N + v not in g.edge_keys():
                absent = (u, v)
                break
        if absent:
            break
    # A fully no-op batch: re-add a present edge, re-remove an absent one.
    report = sg.apply(lift([(ADD, *present), (REMOVE, *absent)]))
    assert sg.version == 0 and report.version == 0
    assert report.added_keys.size == 0 and report.removed_keys.size == 0
    assert sg.events_applied == 2
    # An effective batch bumps exactly once, however many events it holds.
    report = sg.apply(lift([(REMOVE, *present), (ADD, *absent)]))
    assert sg.version == 1 and report.version == 1
    # An empty batch is also version-neutral.
    assert sg.apply([]).version == 1


def test_interleaved_agent_edits_collapse_to_the_same_root():
    g = make_graph()
    sg = StreamingGraph(g, rebase_threshold=1.0)
    stream = DriftStream(g, seed=1)
    sg.apply(stream.take(6))
    # Agent-style functional edits against the live graph chain back to
    # the SAME root, so every root-bound cache stays eligible.
    edited = sg.current.add_edges(
        np.array([[0, 1], [2, 5]], dtype=np.int64)
    ).remove_edges(np.array([list(g.edge_array()[3])], dtype=np.int64))
    assert edited.delta is not None and edited.delta.base is g
    sg.current = edited
    report = sg.apply(stream.take(6))
    assert sg.current.delta is not None and sg.current.delta.base is g
    assert report.applied == 6


# ---------------------------------------------------------------------------
# dirty fraction and rebase
# ---------------------------------------------------------------------------
def test_dirty_fraction_counts_touched_nodes():
    g = make_graph()
    sg = StreamingGraph(g, rebase_threshold=1.0)
    assert sg.dirty_fraction() == 0.0
    sg.apply(lift([(REMOVE, *tuple(g.edge_array()[0]))]))
    assert sg.dirty_fraction() == (
        sg.current.delta.touched_nodes().shape[0] / N
    )
    assert sg.dirty_fraction() > 0.0


def test_rebase_triggers_at_threshold_and_promotes_the_root():
    g = make_graph()
    sg = StreamingGraph(g, rebase_threshold=0.1)
    stream = DriftStream(g, seed=0)
    rebased_report = None
    for _ in range(50):
        report = sg.apply(stream.take(4))
        if report.rebased:
            rebased_report = report
            break
    assert rebased_report is not None, "hub-free drift never rebased at 0.1"
    assert rebased_report.dirty_fraction == 0.0
    assert sg.rebases == 1
    # The promoted root IS the current graph: delta-free, cache-fresh.
    assert sg.current is sg.root
    assert sg.current.delta is None
    assert sg.current is not g
    # ... and bitwise identical to replaying the whole trace.
    twin = make_stream(g, StreamConfig(seed=0))
    from repro.stream import apply_events

    replayed = apply_events(g, twin.take(stream.time))
    np.testing.assert_array_equal(
        sg.current.edge_keys(), replayed.edge_keys()
    )


def test_rebase_bumps_version_once_on_top_of_the_apply():
    g = make_graph()
    sg = StreamingGraph(g, rebase_threshold=0.01)  # every edit rebases
    report = sg.apply(lift([(REMOVE, *tuple(g.edge_array()[0]))]))
    assert report.rebased
    # One bump for the effective apply, one for the rebase.
    assert sg.version == 2 and report.version == 2


def test_manual_rebase_is_bitwise_verified():
    g = make_graph()
    sg = StreamingGraph(g, rebase_threshold=1.0)
    stream = DriftStream(g, seed=3)
    sg.apply(stream.take(12))
    chained_keys = sg.current.edge_keys().copy()
    fresh = sg.rebase()
    np.testing.assert_array_equal(fresh.edge_keys(), chained_keys)
    assert fresh.features is not None and fresh.labels is not None
    assert sg.root is fresh and sg.current is fresh


def test_streaming_continues_after_a_rebase():
    g = make_graph()
    sg = StreamingGraph(g, rebase_threshold=0.15)
    stream = DriftStream(g, seed=7)
    total_rebases = 0
    for _ in range(80):
        report = sg.apply(stream.take(4))
        total_rebases += report.rebased
        if sg.current.delta is not None:
            assert sg.current.delta.base is sg.root
    assert total_rebases >= 2
    assert sg.rebases == total_rebases
    assert sg.events_applied == 320


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------
def test_derived_input_graph_is_adopted_with_its_base_as_root():
    g = make_graph()
    derived = g.add_edges(np.array([[0, 1]], dtype=np.int64))
    if derived.delta is None:  # (0,1) already present; pick another pair
        derived = g.remove_edges(g.edge_array()[:1])
    sg = StreamingGraph(derived)
    assert sg.root is g
    assert sg.current is derived


def test_invalid_rebase_threshold_raises():
    g = make_graph()
    for bad in (0.0, -1.0, 1.5):
        with pytest.raises(ValueError, match="rebase_threshold"):
            StreamingGraph(g, rebase_threshold=bad)

"""Sessions and artifacts: spec validation, artifact sharing, memo
reuse, LRU eviction (including eviction with a request in flight), memos
emptied by churn while other threads drop them."""

import sys
import threading
import time
from collections import deque

import numpy as np
import pytest

from repro.core.lru import LRUCache
from repro.serve.protocol import BadRequestError, UnknownSessionError
from repro.serve.session import (
    SessionManager,
    SessionSpec,
    build_artifact,
)
from repro.stream import ADD, REMOVE, EdgeEvent

from ..propagation_oracle import assert_untouched

SPEC = SessionSpec(
    dataset="synthetic", num_nodes=120, num_features=8,
    warmup_epochs=1, k_max=2, d_max=2,
)


@pytest.fixture(scope="module")
def artifact():
    return build_artifact(SPEC, max_batch=4)


def test_spec_from_wire_rejects_unknown_fields():
    with pytest.raises(BadRequestError, match="unknown spec field"):
        SessionSpec.from_wire({"dataset": "synthetic", "warp_factor": 9})
    # Artifacts have no incremental mode: its fields are unknown too.
    for field in ({"incremental": True}, {"max_halo_frac": 0.5}):
        with pytest.raises(BadRequestError, match="unknown spec field"):
            SessionSpec.from_wire(field)


def test_spec_from_wire_rejects_non_mapping():
    with pytest.raises(BadRequestError, match="invalid spec"):
        SessionSpec.from_wire(["dataset"])


@pytest.mark.parametrize("field,value", [
    ("dataset", "bogus"), ("backbone", "transformer"), ("scale", 0),
    ("scale", 1.5), ("num_nodes", 0), ("hidden", -1), ("k_max", -1),
    ("d_max", 2.5), ("warmup_epochs", -1), ("lam", float("nan")),
    ("lam", -1.0), ("seed", "7"),
])
def test_spec_values_are_validated(field, value):
    with pytest.raises(BadRequestError, match="invalid spec"):
        SessionSpec.from_wire({"dataset": "synthetic", field: value})


def test_spec_is_the_artifact_key():
    assert SessionSpec.from_wire({"dataset": "synthetic"}) == SessionSpec(
        dataset="synthetic"
    )
    assert hash(SPEC) == hash(SessionSpec(**SPEC.__dict__))


def test_build_artifact_synthetic(artifact):
    assert artifact.graph.num_nodes == 120
    assert artifact.graph.features.shape[1] == 8
    assert artifact.stack.max_width == 4
    assert artifact.train_idx.dtype == np.int64


def test_clamp_validates_shape(artifact):
    n = artifact.graph.num_nodes
    with pytest.raises(BadRequestError, match="length-120"):
        artifact.clamp(np.zeros(n + 1, dtype=np.int64),
                       np.zeros(n, dtype=np.int64))


def test_clamp_canonicalises_infeasible_requests(artifact):
    n = artifact.graph.num_nodes
    k, d = artifact.clamp(np.full(n, 99), np.full(n, 99))
    assert k.max() <= SPEC.k_max and d.max() <= SPEC.d_max


def test_rewire_memo_returns_shared_objects(artifact):
    n = artifact.graph.num_nodes
    memo = LRUCache(8)
    rng = np.random.default_rng(0)
    k, d = artifact.clamp(rng.integers(0, 3, size=n),
                          rng.integers(0, 3, size=n))
    first = artifact.rewired(k, d, memo)
    second = artifact.rewired(k, d, memo)
    assert first is second
    assert memo.stats["hits"] == 1


def test_score_blocks_pins_nothing_on_memoised_graphs(artifact):
    """A batched score leaves a memoised rewire holding only its keys
    and delta: no propagation matrix, adjacency or edge array."""
    n = artifact.graph.num_nodes
    memo = LRUCache(8)
    rng = np.random.default_rng(2)
    graphs = [
        artifact.rewired(
            *artifact.clamp(rng.integers(0, 3, size=n),
                            rng.integers(0, 3, size=n)),
            memo,
        )
        for _ in range(3)
    ]
    assert len(artifact.score_blocks(graphs)) == 3
    for graph in graphs:
        assert_untouched(graph)


def test_artifacts_shared_across_sessions():
    manager = SessionManager(max_sessions=4, memo_entries=8)
    a = manager.open(SPEC, max_batch=4)
    b = manager.open(SPEC, max_batch=4)
    assert a.artifact is b.artifact
    assert a.session_id != b.session_id
    assert a.memo is not b.memo           # per-tenant rewire memo
    assert manager.stats()["artifacts"] == 1


def test_session_lru_eviction_and_unknown_session():
    manager = SessionManager(max_sessions=2, memo_entries=8)
    first = manager.open(SPEC, max_batch=4)
    manager.open(SPEC, max_batch=4)
    manager.open(SPEC, max_batch=4)       # evicts `first`
    assert len(manager) == 2
    with pytest.raises(UnknownSessionError):
        manager.get(first.session_id)


def test_evicted_session_still_serves_in_flight_requests():
    """A strong session reference (as every queued request holds) keeps
    the evicted tenant's memo usable until the batch completes."""
    manager = SessionManager(max_sessions=1, memo_entries=8)
    session = manager.open(SPEC, max_batch=4)
    in_flight = manager.get(session.session_id)
    manager.open(SPEC, max_batch=4)       # evicts it mid-request
    n = in_flight.artifact.graph.num_nodes
    rng = np.random.default_rng(1)
    k, d = in_flight.artifact.clamp(rng.integers(0, 3, size=n),
                                    rng.integers(0, 3, size=n))
    graph = in_flight.artifact.rewired(k, d, in_flight.memo)
    scores = in_flight.artifact.score_blocks([graph])
    assert len(scores) == 1


def test_close_session():
    manager = SessionManager(max_sessions=2, memo_entries=8)
    session = manager.open(SPEC, max_batch=4)
    assert manager.close(session.session_id) is True
    assert manager.close(session.session_id) is False
    with pytest.raises(UnknownSessionError):
        manager.get(session.session_id)


def test_artifact_build_is_deterministic():
    """Equal specs build artifacts with identical warm weights."""
    one = build_artifact(SPEC, max_batch=2)
    two = build_artifact(SPEC, max_batch=2)
    for p1, p2 in zip(one.model.parameters(), two.model.parameters()):
        assert p1.data.tobytes() == p2.data.tobytes()


def test_churn_empties_memos_while_other_threads_drop_them():
    """The server fills memos and churns on its worker thread, while the
    event-loop thread may drop the last reference to a session's memo at
    any moment.  Under a short switch interval, with more dropping
    threads than cores, every effective churn still succeeds and leaves
    every live memo it served empty."""
    artifact = build_artifact(SPEC, max_batch=2)
    n = artifact.graph.num_nodes
    k, d = artifact.clamp(np.ones(n, dtype=np.int64),
                          np.ones(n, dtype=np.int64))
    u, v = next(
        (0, w) for w in range(1, n) if not artifact.graph.has_edge(0, w)
    )
    handed_off: deque = deque()
    stop = threading.Event()

    def drop():
        while not stop.is_set():
            try:
                handed_off.popleft()  # the last strong reference dies here
            except IndexError:
                time.sleep(0)

    droppers = [threading.Thread(target=drop) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in droppers:
            thread.start()
        deadline = time.monotonic() + 1.5
        rounds = 0
        while time.monotonic() < deadline:
            kept = [LRUCache(2) for _ in range(2)]
            for memo in kept + [LRUCache(2) for _ in range(6)]:
                artifact.rewired(k, d, memo)
                handed_off.append(memo)
            del memo
            kind = ADD if rounds % 2 == 0 else REMOVE
            version = artifact.version
            artifact.churn([EdgeEvent(rounds, kind, u, v)])
            assert artifact.version > version
            assert [len(memo) for memo in kept] == [0, 0]
            rounds += 1
    finally:
        stop.set()
        for thread in droppers:
            thread.join(10)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in droppers)
    assert rounds > 10

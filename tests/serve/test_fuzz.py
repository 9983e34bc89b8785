"""Hypothesis fuzz of the NDJSON request boundary.

Random JSON-object frames go to one live server over one connection:
``op`` is one of the seven request ops or junk, and ``session``, ``k``,
``d``, ``spec``, ``events`` and ``deadline_ms`` are drawn from JSON
values (with well-formed values mixed in, so frames also reach the
batcher, the rewire and the churn engine; the fields of a well-formed
event list are also drawn from unbounded integers, floats, text and
booleans).  ``internal`` is reserved for server bugs, so no frame may
answer it, and the connection must keep serving: a ``ping`` after each
example answers.
"""

import asyncio
import json
import socket
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.config import ServeConfig
from repro.serve.server import RewiringServer
from repro.telemetry import Telemetry

SPEC = {
    "dataset": "synthetic", "num_nodes": 60, "num_features": 8,
    "warmup_epochs": 1, "k_max": 2, "d_max": 2,
}
OPS = ("rewire", "score", "churn", "ping", "open_session", "close_session",
       "stats")

json_values = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=8),
    lambda children: (
        st.lists(children, max_size=4)
        | st.dictionaries(st.text(max_size=6), children, max_size=4)
    ),
    max_leaves=8,
)


def event_lists(n):
    """Lists of ``[kind, u, v]`` / ``[time, kind, u, v]`` events whose
    fields are near-valid integers, unbounded or int64-edge integers,
    floats, text or booleans."""
    field = (
        st.integers(-2, n + 1) | st.integers()
        | st.integers(2 ** 63 - 2, 2 ** 64) | st.booleans()
        | st.floats(allow_nan=False, allow_infinity=False)
        | st.text(max_size=4)
    )
    return st.lists(
        st.lists(field, min_size=3, max_size=4), min_size=1, max_size=4
    )


@pytest.fixture(scope="module")
def live():
    """``ask(frame) -> response`` on one connection to a server running on
    its own event-loop thread, plus an open session id and its size."""
    server = RewiringServer(
        ServeConfig(port=0, max_batch=4, max_wait_ms=1.0, max_sessions=64),
        tel=Telemetry(enabled=True),
    )
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    asyncio.run_coroutine_threadsafe(server.start(), loop).result(60)
    sock = socket.create_connection(("127.0.0.1", server.address[1]),
                                    timeout=60)
    lines = sock.makefile("rb")

    def ask(frame):
        sock.sendall(json.dumps(frame).encode() + b"\n")
        return json.loads(lines.readline())

    opened = ask({"id": 0, "op": "open_session", "spec": SPEC})["result"]
    yield ask, opened["session"], opened["num_nodes"]
    lines.close()
    sock.close()
    asyncio.run_coroutine_threadsafe(server.stop(), loop).result(60)
    loop.call_soon_threadsafe(loop.stop)
    thread.join(60)
    loop.close()


def _frame(draw, session, n):
    vector = json_values | st.lists(st.integers(-2, 6), min_size=n,
                                    max_size=n)
    fields = {
        "session": st.just(session) | json_values,
        "k": vector,
        "d": vector,
        "spec": json_values | st.just(SPEC),
        "events": json_values | event_lists(n),
        "deadline_ms": json_values | st.floats(0.0, 1e4),
    }
    frame = {"op": draw(st.sampled_from(OPS) | json_values)}
    for name, values in fields.items():
        if draw(st.booleans()):
            frame[name] = draw(values)
    return frame


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_random_frames_never_answer_internal(live, data):
    ask, session, n = live
    count = data.draw(st.integers(1, 6))
    for i in range(1, count + 1):
        frame = _frame(data.draw, session, n)
        frame["id"] = i
        answer = ask(frame)
        assert answer["id"] == i
        if not answer["ok"]:
            assert answer["error"]["code"] != "internal", (frame, answer)
    assert ask({"id": -1, "op": "ping"}) == {
        "id": -1, "ok": True, "result": {"pong": True},
    }


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_random_churn_events_never_answer_internal(live, data):
    """Churn frames on an open session: every event list either applies
    or answers ``bad_request``."""
    ask, _, n = live
    # The random frames above may have closed or evicted the fixture's
    # session; a fresh one reuses the artifact.
    session = ask({"id": 0, "op": "open_session", "spec": SPEC})
    events = data.draw(event_lists(n))
    answer = ask({"id": 1, "op": "churn",
                  "session": session["result"]["session"], "events": events})
    assert answer["id"] == 1
    if not answer["ok"]:
        assert answer["error"]["code"] == "bad_request", (events, answer)

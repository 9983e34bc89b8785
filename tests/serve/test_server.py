"""End-to-end server tests over real sockets: protocol dispatch,
batched-vs-direct bitwise equality, deadlines and lifecycle."""

import asyncio
import base64
import json

import numpy as np
import pytest

from repro.nn import masked_metrics
from repro.serve.client import ServeClient
from repro.serve.config import ServeConfig
from repro.serve.protocol import (
    BadRequestError,
    DeadlineExceededError,
    UnknownSessionError,
)
from repro.serve.server import RewiringServer
from repro.telemetry import Telemetry

SPEC = {
    "dataset": "synthetic", "num_nodes": 120, "num_features": 8,
    "warmup_epochs": 1, "k_max": 2, "d_max": 2,
}


def config(**overrides):
    base = dict(max_batch=8, max_wait_ms=5.0, max_queue=64, port=0)
    base.update(overrides)
    return ServeConfig(**base)


async def _serving(cfg, tel=None):
    """Started server + connected client (caller closes both)."""
    server = RewiringServer(cfg, tel=tel or Telemetry(enabled=True))
    await server.start()
    if cfg.unix_path is not None:
        client = await ServeClient.connect(unix_path=cfg.unix_path)
    else:
        client = await ServeClient.connect(port=server.address[1])
    return server, client


def _direct_scores(server, session_id, candidates):
    """Ground truth: per-graph single-env scoring on the live artifact."""
    session = server.sessions.get(session_id)
    artifact = session.artifact
    labels = artifact.graph.labels
    out = []
    for k, d in candidates:
        k, d = artifact.clamp(k, d)
        graph = artifact.rewired(k, d, session.memo)
        logits = artifact.model.predict_logits(graph)
        out.append(masked_metrics(logits, labels, artifact.train_idx))
    return out


def _candidates(num_nodes, count, seed=3):
    rng = np.random.default_rng(seed)
    return [
        (rng.integers(0, 3, size=num_nodes), rng.integers(0, 3, size=num_nodes))
        for _ in range(count)
    ]


def test_single_request_scores_bitwise_equal_to_direct():
    """A served B=1 score equals the direct single-env computation
    byte for byte."""

    async def run():
        server, client = await _serving(
            config(max_batch=1, max_wait_ms=0.0)
        )
        info = await client.open_session(SPEC)
        (k, d), = _candidates(info["num_nodes"], 1)
        served = await client.score(info["session"], k, d)
        direct, = _direct_scores(server, info["session"], [(k, d)])
        await client.close()
        await server.stop()
        return served, direct

    served, (acc, loss) = asyncio.run(run())
    assert served["acc"] == acc
    assert served["loss"] == loss
    assert served["batch_width"] == 1 and served["unique_width"] == 1


def test_concurrent_scores_batch_and_stay_bitwise_equal():
    """Concurrent requests fuse into wide batches, yet every score is
    byte-identical to its unbatched twin."""
    tel = Telemetry(enabled=True)

    async def run():
        server, client = await _serving(config(max_wait_ms=20.0), tel=tel)
        info = await client.open_session(SPEC)
        candidates = _candidates(info["num_nodes"], 6)
        served = await asyncio.gather(*[
            client.score(info["session"], k, d) for k, d in candidates
        ])
        direct = _direct_scores(server, info["session"], candidates)
        await client.close()
        await server.stop()
        return served, direct

    served, direct = asyncio.run(run())
    for got, (acc, loss) in zip(served, direct):
        assert got["acc"] == acc
        assert got["loss"] == loss
    assert max(r["batch_width"] for r in served) > 1
    assert tel.snapshot()["counters"]["serve.batches"] < len(served)


def test_unknown_session_and_unknown_op():
    async def run():
        server, client = await _serving(config())
        n = SPEC["num_nodes"]
        with pytest.raises(UnknownSessionError):
            await client.score("s999", np.zeros(n), np.zeros(n))
        with pytest.raises(BadRequestError, match="unknown op"):
            await client.request("frobnicate")
        await client.close()
        await server.stop()

    asyncio.run(run())


def test_score_requires_k_and_d():
    async def run():
        server, client = await _serving(config())
        info = await client.open_session(SPEC)
        with pytest.raises(BadRequestError, match="'k' and 'd'"):
            await client.request("score", session=info["session"])
        await client.close()
        await server.stop()

    asyncio.run(run())


def test_deadline_expires_end_to_end():
    """A microscopic deadline is rejected before costing a forward."""

    async def run():
        server, client = await _serving(config(max_wait_ms=50.0))
        info = await client.open_session(SPEC)
        n = info["num_nodes"]
        with pytest.raises(DeadlineExceededError):
            await client.score(
                info["session"], np.ones(n), np.ones(n), deadline_ms=0.001
            )
        await client.close()
        await server.stop()

    asyncio.run(run())


def test_stats_exposes_serve_telemetry():
    async def run():
        server, client = await _serving(config())
        info = await client.open_session(SPEC)
        n = info["num_nodes"]
        await client.score(info["session"], np.ones(n), np.ones(n))
        stats = await client.stats()
        await client.close()
        await server.stop()
        return stats

    stats = asyncio.run(run())
    assert stats["sessions"]["open_sessions"] == 1
    assert "queue_depth" in stats
    counters = stats["telemetry"]["counters"]
    assert counters["serve.requests"] >= 2
    assert counters["serve.batches"] >= 1
    # The session build runs on the batcher's executor thread and still
    # records into the server's session, as do the LRU counters.
    assert counters["serve.artifact_builds"] == 1
    assert counters["serve.sessions.hits"] >= 1
    assert counters["serve.session_memo.misses"] >= 1
    assert "serve.request_s" in stats["telemetry"]["histograms"]
    assert "serve.build_artifact_s" in stats["telemetry"]["histograms"]
    assert all(
        name.startswith("serve.")
        for kind in stats["telemetry"].values()
        for name in kind
    )


def test_ping_close_session_and_shutdown():
    """The full lifecycle: serve_forever exits on a shutdown request."""

    async def run():
        server = RewiringServer(config(), tel=Telemetry(enabled=True))
        await server.start()
        forever = asyncio.get_running_loop().create_task(
            server.serve_forever()
        )
        client = await ServeClient.connect(port=server.address[1])
        assert (await client.ping())["pong"] is True
        info = await client.open_session(SPEC)
        assert (await client.close_session(info["session"]))["closed"] is True
        assert (await client.close_session(info["session"]))["closed"] is False
        assert (await client.shutdown())["stopping"] is True
        await asyncio.wait_for(forever, timeout=10.0)
        await client.close()

    asyncio.run(run())


def test_unix_socket_transport(tmp_path):
    async def run():
        server, client = await _serving(
            config(unix_path=str(tmp_path / "serve.sock"))
        )
        info = await client.open_session(SPEC)
        n = info["num_nodes"]
        result = await client.score(info["session"], np.ones(n), np.ones(n))
        await client.close()
        await server.stop()
        return result

    result = asyncio.run(run())
    assert 0.0 <= result["acc"] <= 1.0


def test_rewire_then_score_hits_session_memo():
    """An explicit rewire primes the memo the scoring path reuses."""

    async def run():
        server, client = await _serving(config())
        info = await client.open_session(SPEC)
        n = info["num_nodes"]
        k, d = np.ones(n), np.ones(n)
        first = await client.rewire(info["session"], k, d)
        second = await client.rewire(info["session"], k, d)
        await client.score(info["session"], k, d)
        stats = await client.stats()
        await client.close()
        await server.stop()
        return first, second, stats

    first, second, stats = asyncio.run(run())
    assert first["cached"] is False
    assert second["cached"] is True
    assert second["memo"]["hits"] >= 1
    assert stats["telemetry"]["counters"]["serve.requests"] >= 5


def _frame(obj) -> bytes:
    return json.dumps(obj).encode() + b"\n"


#: Malformed requests, each as ``(session_id, num_nodes) -> wire line``.
#: Every one used to answer ``internal`` or be accepted.
MALFORMED = {
    "b64-not-whole-int64": lambda sid, n: _frame({
        "op": "score", "session": sid, "d": [0] * n,
        "k": {"b64": base64.b64encode(bytes(8 * n - 3)).decode()},
    }),
    "int-beyond-int64": lambda sid, n: _frame({
        "op": "score", "session": sid, "k": [2**70] + [0] * (n - 1),
        "d": [0] * n,
    }),
    "float-count": lambda sid, n: _frame({
        "op": "score", "session": sid, "k": [1.5] + [0] * (n - 1),
        "d": [0] * n,
    }),
    "not-utf8": lambda sid, n: b'{"op": "ping", "note": "\xff"}\n',
    "spec-not-object": lambda sid, n: _frame(
        {"op": "open_session", "spec": 5}
    ),
    "spec-negative-k-max": lambda sid, n: _frame(
        {"op": "open_session", "spec": {**SPEC, "k_max": -1}}
    ),
    "spec-zero-scale": lambda sid, n: _frame(
        {"op": "open_session", "spec": {**SPEC, "scale": 0}}
    ),
    "spec-unknown-dataset": lambda sid, n: _frame(
        {"op": "open_session", "spec": {**SPEC, "dataset": "bogus"}}
    ),
    "deadline-not-number": lambda sid, n: _frame({
        "op": "score", "session": sid, "k": [0] * n, "d": [0] * n,
        "deadline_ms": "soon",
    }),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_frames_are_bad_requests(case):
    """A malformed frame gets a ``bad_request`` envelope and the
    connection keeps serving."""

    async def run():
        server, client = await _serving(config())
        info = await client.open_session(SPEC)
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", server.address[1]
        )
        writer.write(MALFORMED[case](info["session"], info["num_nodes"]))
        answer = json.loads(await reader.readline())
        writer.write(_frame({"id": 7, "op": "ping"}))
        pong = json.loads(await reader.readline())
        writer.close()
        await client.close()
        await server.stop()
        return answer, pong

    answer, pong = asyncio.run(run())
    assert answer["ok"] is False
    assert answer["error"]["code"] == "bad_request", answer
    assert pong == {"id": 7, "ok": True, "result": {"pong": True}}

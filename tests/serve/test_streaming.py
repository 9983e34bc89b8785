"""Serving under live churn: staleness, invalidation, burst shedding.

The serving staleness guarantee under test: any ``score`` acknowledged
after a ``churn`` acknowledgement reflects the post-churn topology —
byte-identically equal to scoring a brand-new fully-validated Graph
built from the live edge set.  Around it: memo invalidation (effective
churn empties every memo on the artifact, no-op churn preserves them),
malformed-event rejection, clean shedding under churn+score bursts, and
eviction safety for in-flight batches.
"""

import asyncio

import numpy as np
import pytest

from repro.core import rewire_graph
from repro.graph import Graph
from repro.nn import masked_metrics
from repro.serve.client import ServeClient
from repro.serve.config import ServeConfig
from repro.serve.protocol import BadRequestError, OverloadedError
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
    server = RewiringServer(cfg, tel=tel or Telemetry(enabled=True))
    await server.start()
    client = await ServeClient.connect(port=server.address[1])
    return server, client


def _fresh_ground_truth(server, session_id):
    """Dense metrics of the live topology, recomputed from scratch: a
    brand-new Graph (no delta, no caches) through a full forward."""
    artifact = server.sessions.get(session_id).artifact
    g = artifact.graph
    fresh = Graph(
        g.num_nodes, g.edge_array(), features=g.features, labels=g.labels
    )
    logits = artifact.model.predict_logits(fresh)
    return masked_metrics(logits, g.labels, artifact.train_idx)


def _effective_events(server, session_id, count, seed=0):
    """``count`` wire events that actually change the live edge set."""
    graph = server.sessions.get(session_id).artifact.graph
    n = graph.num_nodes
    rng = np.random.default_rng(seed)
    present = set(map(tuple, graph.edge_array().tolist()))
    events = []
    for i in range(count):
        if i % 2 == 0 and present:
            pair = sorted(present)[int(rng.integers(len(present)))]
            present.discard(pair)
            events.append([-1, int(pair[0]), int(pair[1])])
        else:
            while True:
                u, v = int(rng.integers(n)), int(rng.integers(n))
                if u != v and (min(u, v), max(u, v)) not in present:
                    pair = (min(u, v), max(u, v))
                    break
            present.add(pair)
            events.append([1, int(pair[0]), int(pair[1])])
    return events


# ---------------------------------------------------------------------------
# No stale scores
# ---------------------------------------------------------------------------
def test_post_churn_scores_match_fresh_recompute():
    """After a churn acknowledgement, a base-graph score (k = d = 0) is
    byte-identical to a from-scratch evaluation of the churned graph."""

    async def run():
        server, client = await _serving(config())
        info = await client.open_session(SPEC)
        sid, n = info["session"], info["num_nodes"]
        zeros = np.zeros(n, dtype=np.int64)
        checks = []
        for round_no in range(4):
            events = _effective_events(server, sid, 5, seed=round_no)
            report = await client.churn(sid, events)
            served = await client.score(sid, zeros, zeros)
            truth = _fresh_ground_truth(server, sid)
            live_edges = server.sessions.get(sid).artifact.graph.num_edges
            checks.append((report, served, truth, live_edges))
        await client.close()
        await server.stop()
        return checks

    versions = []
    for report, served, (acc, loss), live_edges in asyncio.run(run()):
        assert report["applied"] == 5
        assert report["added"] + report["removed"] >= 1
        assert served["acc"] == acc  # bitwise, not approx
        assert served["loss"] == loss
        assert served["num_edges"] == live_edges
        versions.append(report["version"])
    # Every effective churn bumped the version.
    assert versions == sorted(versions) and len(set(versions)) == 4


def test_soak_concurrent_scores_interleaved_with_churn():
    """Rounds of concurrent score traffic with churn folding in between:
    every post-ack response reflects the live topology, none a stale
    one."""
    tel = Telemetry(enabled=True)

    async def run():
        server, client = await _serving(config(max_wait_ms=10.0), tel=tel)
        info = await client.open_session(SPEC)
        sid, n = info["session"], info["num_nodes"]
        zeros = np.zeros(n, dtype=np.int64)
        rng = np.random.default_rng(9)
        checks = []
        for round_no in range(5):
            # Concurrent random-candidate traffic (fills micro-batches).
            candidates = [
                (rng.integers(0, 3, n), rng.integers(0, 3, n))
                for _ in range(6)
            ]
            burst = await asyncio.gather(*[
                client.score(sid, k, d) for k, d in candidates
            ])
            assert all(0.0 <= r["acc"] <= 1.0 for r in burst)
            # Churn, then verify the post-ack view is the live one.
            await client.churn(
                sid, _effective_events(server, sid, 4, seed=100 + round_no)
            )
            served = await client.score(sid, zeros, zeros)
            checks.append((served, _fresh_ground_truth(server, sid)))
        stats = await client.stats()
        await client.close()
        await server.stop()
        return checks, stats

    checks, stats = asyncio.run(run())
    for served, (acc, loss) in checks:
        assert served["acc"] == acc
        assert served["loss"] == loss
    counters = stats["telemetry"]["counters"]
    assert counters["serve.churns"] == 5
    assert "serve.churn_s" in stats["telemetry"]["histograms"]


def test_concurrent_churn_and_scores_in_one_batch_are_ordered():
    """Churn and scores submitted together: within a micro-batch the
    churn applies first, so co-batched scores see the churned graph."""

    async def run():
        server, client = await _serving(
            config(max_batch=8, max_wait_ms=50.0)
        )
        info = await client.open_session(SPEC)
        sid, n = info["session"], info["num_nodes"]
        zeros = np.zeros(n, dtype=np.int64)
        events = _effective_events(server, sid, 6)
        results = await asyncio.gather(
            client.churn(sid, events),
            client.score(sid, zeros, zeros),
            client.score(sid, zeros, zeros),
        )
        truth = _fresh_ground_truth(server, sid)
        await client.close()
        await server.stop()
        return results, truth

    (report, score_a, score_b), (acc, loss) = asyncio.run(run())
    assert report["added"] + report["removed"] >= 1
    for served in (score_a, score_b):
        assert served["acc"] == acc
        assert served["loss"] == loss


def test_rebase_keeps_the_stack_and_batched_scores_bitwise():
    """A rebase leaves the artifact's stacked builder in place (it reads
    nothing churn changes), and batched scores after it still equal a
    from-scratch evaluation of each rewired graph byte for byte."""

    async def run():
        server, client = await _serving(config(max_wait_ms=20.0))
        info = await client.open_session(SPEC)
        sid, n = info["session"], info["num_nodes"]
        artifact = server.sessions.get(sid).artifact
        stack = artifact.stack
        rebased = False
        for round_no in range(10):
            report = await client.churn(
                sid, _effective_events(server, sid, 12, seed=round_no)
            )
            rebased = rebased or report["rebased"]
        rng = np.random.default_rng(2)
        candidates = [
            (rng.integers(0, 3, n), rng.integers(0, 3, n)) for _ in range(6)
        ]
        served = await asyncio.gather(*[
            client.score(sid, k, d) for k, d in candidates
        ])
        truth = []
        for k, d in candidates:
            rewired = rewire_graph(
                artifact.graph, artifact.sequences, *artifact.clamp(k, d)
            )
            fresh = Graph(
                n, rewired.edge_array(),
                features=rewired.features, labels=rewired.labels,
            )
            truth.append(masked_metrics(
                artifact.model.predict_logits(fresh), fresh.labels,
                artifact.train_idx,
            ))
        await client.close()
        await server.stop()
        return rebased, artifact.stack is stack, served, truth

    rebased, same_stack, served, truth = asyncio.run(run())
    assert rebased
    assert same_stack
    assert max(r["batch_width"] for r in served) > 1
    for got, (acc, loss) in zip(served, truth):
        assert got["acc"] == acc
        assert got["loss"] == loss


# ---------------------------------------------------------------------------
# Memo invalidation semantics
# ---------------------------------------------------------------------------
def test_churn_invalidates_rewire_memo_noop_churn_preserves_it():
    """An effective churn empties every memo on the artifact, another
    tenant's included; a no-op churn keeps every entry."""

    async def run():
        server, client = await _serving(config())
        info = await client.open_session(SPEC)
        sid, n = info["session"], info["num_nodes"]
        other = (await client.open_session(SPEC))["session"]
        memos = [server.sessions.get(s).memo for s in (sid, other)]
        k = d = np.ones(n, dtype=np.int64)
        first = await client.rewire(sid, k, d)
        warm = await client.rewire(sid, k, d)
        await client.rewire(other, k, d)
        sizes = [[len(m) for m in memos]]
        # A no-op churn: re-add an edge that is already present.
        u, v = server.sessions.get(sid).artifact.graph.edge_array()[0]
        noop = await client.churn(sid, [[1, int(u), int(v)]])
        sizes.append([len(m) for m in memos])
        still_warm = await client.rewire(sid, k, d)
        effective = await client.churn(
            sid, _effective_events(server, sid, 4)
        )
        sizes.append([len(m) for m in memos])
        cold = await client.rewire(sid, k, d)
        warm_again = await client.rewire(sid, k, d)
        sizes.append([len(m) for m in memos])
        await client.close()
        await server.stop()
        return first, warm, noop, still_warm, effective, cold, warm_again, sizes

    first, warm, noop, still_warm, effective, cold, warm_again, sizes = (
        asyncio.run(run())
    )
    assert first["cached"] is False
    assert warm["cached"] is True
    assert sizes[0] == [1, 1]
    # No net change: version untouched, memo entries stay valid.
    assert noop["added"] == 0 and noop["removed"] == 0
    assert noop["version"] == 0 and noop["rebased"] is False
    assert sizes[1] == [1, 1]
    assert still_warm["cached"] is True
    # Effective churn: version bumped, every memo on the artifact emptied.
    assert effective["version"] >= 1
    assert sizes[2] == [0, 0]
    assert cold["cached"] is False
    assert warm_again["cached"] is True
    assert sizes[3] == [1, 0]


def test_bad_churn_events_are_rejected_and_harmless():
    async def run():
        server, client = await _serving(config())
        info = await client.open_session(SPEC)
        sid, n = info["session"], info["num_nodes"]
        edges_before = server.sessions.get(sid).artifact.graph.num_edges
        with pytest.raises(BadRequestError, match="non-empty"):
            await client.churn(sid, [])
        with pytest.raises(BadRequestError, match="each event"):
            await client.request("churn", session=sid, events=[[1, 2]])
        with pytest.raises(BadRequestError, match="out of range"):
            await client.churn(sid, [[1, 0, n]])
        with pytest.raises(BadRequestError, match="unknown event kind"):
            await client.churn(sid, [[3, 0, 1]])
        # Every field must be a JSON integer within int64: nothing is
        # truncated (2.9 -> node 2), parsed ("1") or widened (true -> 1),
        # and an integer past int64 is a bad request, not an overflow.
        for bad in ([[1, 2 ** 70, 3]], [[2 ** 63, 1, 2, 3]], [[1.5, 2, 3]],
                    [[1, 2.9, 3]], [["1", 2, 3]], [[True, 2, 3]],
                    [[1, 2, None]]):
            with pytest.raises(BadRequestError, match="within int64"):
                await client.request("churn", session=sid, events=bad)
        # Rejection is loop-side: nothing reached the graph, and the
        # server still serves.
        edges_after = server.sessions.get(sid).artifact.graph.num_edges
        zeros = np.zeros(n, dtype=np.int64)
        served = await client.score(sid, zeros, zeros)
        await client.close()
        await server.stop()
        return edges_before, edges_after, served

    before, after, served = asyncio.run(run())
    assert before == after
    assert 0.0 <= served["acc"] <= 1.0


def test_client_churn_sends_fields_as_given():
    """The bundled client does not coerce event fields: what the server
    rejects as a raw frame it rejects through ``client.churn`` too, and
    numpy integers (array rows) still apply."""

    async def run():
        server, client = await _serving(config())
        info = await client.open_session(SPEC)
        sid = info["session"]
        artifact = server.sessions.get(sid).artifact
        before = (artifact.version, artifact.graph.num_edges)
        for bad in ([[1, 2.9, 5]], [["1", 2, 5]], [[True, 2, 5]]):
            with pytest.raises(BadRequestError, match="within int64"):
                await client.churn(sid, bad)
        after = (artifact.version, artifact.graph.num_edges)
        events = np.asarray(_effective_events(server, sid, 2), dtype=np.int64)
        report = await client.churn(sid, events)
        await client.close()
        await server.stop()
        return before, after, report

    before, after, report = asyncio.run(run())
    assert after == before
    assert report["applied"] == 2
    assert report["version"] == before[0] + 1


# ---------------------------------------------------------------------------
# Degradation: shedding under bursts, eviction safety
# ---------------------------------------------------------------------------
def test_clean_shedding_under_churn_bursts():
    """A burst beyond the intake queue sheds with ``overloaded`` +
    ``retry_after_ms`` while the server stays healthy; retries land."""
    tel = Telemetry(enabled=True)

    async def run():
        server, client = await _serving(
            config(max_batch=2, max_wait_ms=20.0, max_queue=6), tel=tel
        )
        info = await client.open_session(SPEC)
        sid, n = info["session"], info["num_nodes"]
        zeros = np.zeros(n, dtype=np.int64)
        rng = np.random.default_rng(0)
        burst = [client.churn(sid, _effective_events(server, sid, 2, seed=i))
                 for i in range(3)]
        burst += [
            client.score(sid, rng.integers(0, 3, n), rng.integers(0, 3, n))
            for _ in range(30)
        ]
        outcomes = await asyncio.gather(*burst, return_exceptions=True)
        # Recovery: the same client immediately gets service again, and
        # the retry helper rides the server's own backoff hint.
        assert (await client.ping())["pong"] is True
        retried = await client.score_with_retry(sid, zeros, zeros)
        truth = _fresh_ground_truth(server, sid)
        await client.close()
        await server.stop()
        return outcomes, retried, truth

    outcomes, retried, (acc, loss) = asyncio.run(run())
    shed = [r for r in outcomes if isinstance(r, OverloadedError)]
    served = [r for r in outcomes if isinstance(r, dict)]
    unexpected = [
        r for r in outcomes
        if not isinstance(r, (OverloadedError, dict))
    ]
    assert not unexpected, unexpected
    assert shed, "burst never exceeded the intake queue"
    assert served, "shedding must not starve the whole burst"
    assert all(exc.retry_after_ms > 0 for exc in shed)
    # Post-burst scores are live, not stale: the retried score matches
    # the fresh recompute of whatever churn survived the burst.
    assert retried["acc"] == acc
    assert retried["loss"] == loss
    assert tel.snapshot()["counters"]["serve.shed"] == len(shed)


def test_in_flight_batch_survives_session_eviction():
    """Closing a session mid-flight: queued requests complete against
    the strong reference they hold (no use-after-evict)."""

    async def run():
        server, client = await _serving(config(max_wait_ms=40.0))
        info = await client.open_session(SPEC)
        sid, n = info["session"], info["num_nodes"]
        zeros = np.zeros(n, dtype=np.int64)
        in_flight = [
            asyncio.ensure_future(client.churn(
                sid, _effective_events(server, sid, 3)
            )),
            asyncio.ensure_future(client.score(sid, zeros, zeros)),
        ]
        await asyncio.sleep(0.005)  # let both enter the open batch window
        assert (await client.close_session(sid))["closed"] is True
        report, served = await asyncio.gather(*in_flight)
        await client.close()
        await server.stop()
        return report, served

    report, served = asyncio.run(run())
    assert report["applied"] == 3
    assert 0.0 <= served["acc"] <= 1.0

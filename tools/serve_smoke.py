"""CI smoke test of the rewiring service: load, churn, verify, shut down.

Starts an in-process :class:`~repro.serve.server.RewiringServer` on an
OS-assigned port and drives it with 16 concurrent pipelining clients in
waves: each wave sends one request per client, a mix of ``rewire`` and
``score`` over a small shared candidate pool, so micro-batching and
coalescing both engage.  Between waves one effective ``churn`` batch
(edge removals and additions that change the live graph) lands, so every
later request runs against a churned topology and emptied rewire memos.
Then it checks the things CI cares about:

* every request succeeded (the post-churn ones included), every score
  is a finite number, and every churn changed the graph and bumped the
  version;
* the ``serve.*`` telemetry names the dashboards key on are present
  and consistent (requests ≥ issued, batches ≥ 1, ``serve.churns``
  equal to the churn batches sent, latency histogram populated);
* ``serve_forever`` returns after a ``shutdown`` request — clean exit,
  no leaked worker.

Exit status 0 on success, 1 with a diagnostic on any failure.  Runs in
a few seconds on a laptop; wired to ``make serve-smoke`` and the CI
workflow.

Usage:

    python tools/serve_smoke.py [--clients 16] [--requests 4]
"""

from __future__ import annotations

import argparse
import asyncio
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from repro.serve.client import ServeClient  # noqa: E402
from repro.serve.config import ServeConfig  # noqa: E402
from repro.serve.server import RewiringServer  # noqa: E402
from repro.telemetry import Telemetry  # noqa: E402

SPEC = {
    "dataset": "synthetic", "num_nodes": 200, "num_features": 16,
    "warmup_epochs": 1, "k_max": 3, "d_max": 3,
}

#: Telemetry the smoke test requires after a loaded run.
REQUIRED_COUNTERS = ("serve.requests", "serve.batches", "serve.connections")
REQUIRED_HISTOGRAMS = ("serve.request_s", "serve.batch_forward_s")


#: Events per churn batch: half removals of present edges, half
#: additions of absent pairs, so every batch changes the graph.
CHURN_EVENTS = 4


def _effective_events(graph, rng) -> list:
    """``CHURN_EVENTS`` wire events that each change ``graph``'s edges."""
    present = graph.edge_array()
    picked = rng.choice(len(present), CHURN_EVENTS // 2, replace=False)
    events = [[-1, int(u), int(v)] for u, v in present[picked]]
    while len(events) < CHURN_EVENTS:
        u, v = (int(x) for x in rng.integers(0, graph.num_nodes, size=2))
        if u != v and not graph.has_edge(u, v):
            events.append([1, u, v])
    return events


async def smoke(clients: int, per_client: int) -> dict:
    """Run the whole scenario; returns the final stats payload."""
    tel = Telemetry(enabled=True)
    server = RewiringServer(
        ServeConfig(port=0, max_batch=16, max_wait_ms=2.0, max_queue=1024),
        tel=tel,
    )
    await server.start()
    forever = asyncio.get_running_loop().create_task(server.serve_forever())
    port = server.address[1]

    boot = await ServeClient.connect(port=port)
    info = await boot.open_session(SPEC)
    session_id, num_nodes = info["session"], info["num_nodes"]
    artifact = server.sessions.get(session_id).artifact
    # A tiny pool of candidates shared across clients, so concurrent
    # duplicates exercise the coalescing path too.
    pool = [
        tuple(np.random.default_rng(100 + seed).integers(0, 4, size=num_nodes)
              for _ in range(2))
        for seed in range(4)
    ]
    conns = [await ServeClient.connect(port=port) for _ in range(clients)]
    rngs = [np.random.default_rng(i) for i in range(clients)]
    churn_rng = np.random.default_rng(7)
    flat, reports = [], []
    try:
        for wave in range(per_client):
            if wave:
                reports.append(await boot.churn(
                    session_id, _effective_events(artifact.graph, churn_rng)
                ))
            flat += await asyncio.gather(*[
                (conn.rewire if (i + wave) % 4 == 0 else conn.score)(
                    session_id, *pool[int(rng.integers(0, len(pool)))]
                )
                for i, (conn, rng) in enumerate(zip(conns, rngs))
            ])
        stats = await boot.stats()
    finally:
        for conn in conns:
            await conn.close()

    # Clean shutdown: serve_forever must return once asked.  The boot
    # connection closes first so no handler task outlives the loop.
    await boot.shutdown()
    await boot.close()
    await asyncio.wait_for(forever, timeout=10.0)

    issued = clients * per_client
    if len(flat) != issued:
        raise AssertionError(f"expected {issued} results, got {len(flat)}")
    for result in flat:
        if "acc" in result and not math.isfinite(result["acc"]):
            raise AssertionError(f"non-finite score: {result}")
    for number, report in enumerate(reports, start=1):
        if report["added"] + report["removed"] < 1:
            raise AssertionError(f"churn {number} changed nothing: {report}")
    versions = [report["version"] for report in reports]
    if versions != sorted(set(versions)):
        raise AssertionError(f"churn versions did not advance: {versions}")

    counters = stats["telemetry"]["counters"]
    for name in REQUIRED_COUNTERS:
        if counters.get(name, 0) < 1:
            raise AssertionError(f"missing/zero counter {name!r}: {counters}")
    if counters["serve.requests"] < issued:
        raise AssertionError(
            f"serve.requests={counters['serve.requests']} < issued={issued}"
        )
    if counters.get("serve.churns", 0) != len(reports):
        raise AssertionError(
            f"serve.churns={counters.get('serve.churns', 0)} != "
            f"{len(reports)} churn batches sent"
        )
    histograms = stats["telemetry"]["histograms"]
    for name in REQUIRED_HISTOGRAMS:
        if histograms.get(name, {}).get("count", 0) < 1:
            raise AssertionError(f"empty histogram {name!r}")
    return {
        "requests": issued,
        "churns": len(reports),
        "batches": counters["serve.batches"],
        "coalesced": counters.get("serve.coalesced", 0),
        "p99_ms": 1e3 * histograms["serve.request_s"]["p99"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--clients", type=int, default=16)
    parser.add_argument("--requests", type=int, default=4,
                        help="requests per client")
    args = parser.parse_args(argv)
    try:
        summary = asyncio.run(smoke(args.clients, args.requests))
    except Exception as exc:  # CI wants one readable line, not a trace
        print(f"serve smoke FAILED: {type(exc).__name__}: {exc}")
        return 1
    print(
        "serve smoke OK: "
        f"{summary['requests']} requests over {args.clients} clients, "
        f"{summary['churns']} churns, "
        f"{summary['batches']} batches, {summary['coalesced']} coalesced, "
        f"p99 {summary['p99_ms']:.1f} ms, clean shutdown"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

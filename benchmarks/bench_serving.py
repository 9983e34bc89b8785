"""Serving-layer benchmark: micro-batched vs serial request throughput.

A load generator drives one in-process :class:`repro.serve.RewiringServer`
over real TCP with 64 concurrent :class:`~repro.serve.client.ServeClient`
connections, all scoring ``(k, d)`` rewire candidates of one shared
session (a hot pool of 8 candidates, the beam a server-side searcher
would be refining).  Two server configurations face the same load:

* **serial** — ``max_batch=1, max_wait_ms=0``: every request is its own
  executor dispatch and its own width-1 forward (the per-request
  baseline a naive RPC wrapper around ``TopologyEnv`` would give).
* **batched** — ``max_batch=64, max_wait_ms=2``: concurrent requests are
  collected into micro-batches, duplicate candidates are coalesced to
  one computation, and the surviving unique graphs are scored in one
  block-diagonal stacked forward.

Both modes share the session rewire memo.  A width-1 forward memoises
its graph's propagation matrix on that graph; a stacked forward builds
the fused graph's own matrix (one pass over its sorted edge keys) and
caches nothing on its members.  The speedup measures what the batcher
adds: request coalescing plus stacked-forward amortisation of
per-dispatch overhead.
The acceptance contract — batched >= 3x serial throughput at 64
clients — is asserted by the CLI run and the ``slow``-marked pytest
wrapper; ``BENCH_SKIP_CONTRACT=1`` reports without gating, as in the
other benches.  Latency quantiles come from the server's own
``serve.request_s`` histogram, and batched scores are verified
byte-identical to direct single-graph evaluation before any timing.

CLI (used by ``make bench-serving``):

    PYTHONPATH=src python benchmarks/bench_serving.py
"""

from __future__ import annotations

import argparse
import asyncio
import os
import sys
import time

import numpy as np

import pytest

from repro.bench import format_table, save_results
from repro.core.lru import LRUCache
from repro.nn import masked_metrics
from repro.serve import RewiringServer, ServeClient, ServeConfig
from repro.serve.session import SessionSpec, build_artifact
from repro.telemetry import Telemetry, use_telemetry

#: The acceptance contract from the rewiring-as-a-service issue.
TARGET_SPEEDUP = 3.0
CLIENTS = 64

#: The workload every mode faces: one shared session on a synthetic
#: graph, each client drawing from a hot pool of candidate rewires.
SPEC = {"dataset": "synthetic", "num_nodes": 600, "num_features": 32,
        "warmup_epochs": 2, "k_max": 3, "d_max": 3}
POOL_SIZE = 8


def candidate_pool(num_nodes: int, pool_size: int, seed: int = 7):
    """The shared hot candidate set all clients draw from."""
    rng = np.random.default_rng(seed)
    return [
        (rng.integers(0, 4, size=num_nodes),
         rng.integers(0, 4, size=num_nodes))
        for _ in range(pool_size)
    ]


def verify_byte_identical(spec: dict, pool, width: int = 6) -> None:
    """Served-batch scores must equal direct single-graph evaluation.

    Scores ``width`` pool candidates through the artifact's batched path
    (one stacked forward) and through per-graph forwards reduced with
    the same :func:`repro.nn.masked_metrics`; both accuracy and loss must match
    byte for byte (``docs/equivalence-policy.md``).
    """
    artifact = build_artifact(SessionSpec.from_wire(spec), max_batch=width)
    memo = LRUCache(64)
    graphs = [
        artifact.rewired(*artifact.clamp(k, d), memo)
        for k, d in pool[:width]
    ]
    batched = artifact.score_blocks(graphs)
    labels = artifact.graph.labels
    for graph, got in zip(graphs, batched):
        logits = artifact.model.predict_logits(graph)
        want = masked_metrics(logits, labels, artifact.train_idx)
        assert got == want, (
            f"batched score {got} != direct score {want} "
            "(byte-identity broken)"
        )


async def _drive(
    config: ServeConfig,
    spec: dict,
    pool,
    clients: int,
    per_client: int,
    tel: Telemetry,
) -> dict:
    """One load-generation run against a fresh server; returns stats."""
    server = RewiringServer(config, tel=tel)
    await server.start()
    host, port = server.address
    boot = await ServeClient.connect(host=host, port=port)
    session = (await boot.open_session(spec))["session"]
    conns = [
        await ServeClient.connect(host=host, port=port)
        for _ in range(clients)
    ]

    async def worker(client, index, requests):
        rng = np.random.default_rng(1000 + index)
        for _ in range(requests):
            k, d = pool[rng.integers(0, len(pool))]
            await client.score_with_retry(session, k, d)

    # Warm-up: populate the session memo and per-graph propagation
    # caches so the timed window measures steady-state serving.
    await asyncio.gather(*[
        worker(c, i, 2) for i, c in enumerate(conns[: max(4, clients // 8)])
    ])
    start = time.perf_counter()
    await asyncio.gather(*[
        worker(c, i, per_client) for i, c in enumerate(conns)
    ])
    elapsed = time.perf_counter() - start

    stats = await boot.stats()
    for client in conns:
        await client.close()
    await boot.close()
    await server.stop()

    latency = stats["telemetry"]["histograms"].get("serve.request_s", {})
    counters = stats["telemetry"]["counters"]
    return {
        "requests": clients * per_client,
        "elapsed_s": elapsed,
        "rps": clients * per_client / elapsed,
        "p50_ms": 1000.0 * (latency.get("p50") or 0.0),
        "p99_ms": 1000.0 * (latency.get("p99") or 0.0),
        "batches": counters.get("serve.batches", 0),
        "coalesced": counters.get("serve.coalesced", 0),
    }


def run_bench(
    clients: int = CLIENTS,
    per_client: int = 10,
    pool_size: int = POOL_SIZE,
    tel: Telemetry = None,
) -> dict:
    """Serial vs micro-batched throughput under identical load."""
    pool = candidate_pool(SPEC["num_nodes"], pool_size)
    verify_byte_identical(SPEC, pool)
    serial_cfg = ServeConfig(
        port=0, max_batch=1, max_wait_ms=0.0, max_queue=4096
    )
    batched_cfg = ServeConfig(
        port=0, max_batch=64, max_wait_ms=2.0, max_queue=4096
    )
    tel = tel if tel is not None else Telemetry(enabled=True)
    # The serial run gets a private telemetry session so each mode's
    # ``serve.request_s`` quantiles cover only its own requests (the
    # shared session keeps the batched run's histograms, which is what
    # the saved envelope reports).
    serial = asyncio.run(
        _drive(serial_cfg, SPEC, pool, clients, per_client,
               Telemetry(enabled=True))
    )
    batched = asyncio.run(
        _drive(batched_cfg, SPEC, pool, clients, per_client, tel)
    )
    return {
        "clients": clients,
        "per_client": per_client,
        "pool_size": pool_size,
        "serial": serial,
        "batched": batched,
        "speedup": batched["rps"] / serial["rps"],
    }


def print_report(results: dict) -> None:
    rows = [
        [
            mode,
            f"{r['requests']}",
            f"{r['rps']:.0f}",
            f"{r['p50_ms']:.2f}",
            f"{r['p99_ms']:.2f}",
            f"{r['batches']}",
            f"{r['coalesced']}",
        ]
        for mode, r in (("serial", results["serial"]),
                        ("batched", results["batched"]))
    ]
    print(
        format_table(
            f"Serving throughput, {results['clients']} concurrent clients "
            f"(hot pool of {results['pool_size']} candidates)",
            ["mode", "requests", "rps", "p50 ms", "p99 ms",
             "batches", "coalesced"],
            rows,
        )
    )
    print(f"\nspeedup: {results['speedup']:.2f}x "
          f"(contract: >= {TARGET_SPEEDUP}x)")


def check_contract(results: dict) -> None:
    """Assert the >= 3x micro-batching speedup (honours
    BENCH_SKIP_CONTRACT)."""
    if os.environ.get("BENCH_SKIP_CONTRACT"):
        print("BENCH_SKIP_CONTRACT set: reporting without gating")
        return
    assert results["speedup"] >= TARGET_SPEEDUP, (
        f"micro-batched serving speedup {results['speedup']:.2f}x at "
        f"{results['clients']} clients below the {TARGET_SPEEDUP}x contract"
    )


@pytest.mark.slow
def test_serving_contract():
    """Pytest wrapper (slow-marked): the 64-client contract holds."""
    tel = Telemetry(enabled=True)
    with use_telemetry(tel):
        results = run_bench(tel=tel)
    print_report(results)
    save_results("bench_serving", results, telemetry=tel)
    check_contract(results)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--clients", type=int, default=CLIENTS)
    parser.add_argument("--per-client", type=int, default=10,
                        help="timed requests per client connection")
    parser.add_argument("--pool-size", type=int, default=POOL_SIZE,
                        help="hot candidate pool shared by all clients")
    parser.add_argument("--no-assert", action="store_true",
                        help="skip the >= 3x contract check")
    args = parser.parse_args(argv)

    tel = Telemetry(enabled=True)
    with use_telemetry(tel):
        results = run_bench(
            clients=args.clients, per_client=args.per_client,
            pool_size=args.pool_size, tel=tel,
        )
    print_report(results)
    path = save_results(
        "bench_serving",
        {**results, "target_speedup": TARGET_SPEEDUP},
        telemetry=tel,
    )
    print(f"results saved to {path}")
    if not args.no_assert:
        check_contract(results)
        if not os.environ.get("BENCH_SKIP_CONTRACT"):
            print(f"contract ok: >= {TARGET_SPEEDUP}x at "
                  f"{args.clients} clients")
    return 0


if __name__ == "__main__":
    sys.exit(main())

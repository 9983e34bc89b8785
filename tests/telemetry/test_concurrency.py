"""Worker-pool telemetry merge: deterministic and lossless.

The contract for sharded execution (``repro.entropy.screening
.run_sharded``) is that the observability stream — spans, counters,
histograms — is byte-for-byte independent of the worker count.  These
tests pin that down both on a synthetic worker (where the exact expected
totals are known in closed form) and on the real screened sequence
builder.
"""

from collections import Counter as TallyCounter

import pytest

from repro.datasets import planted_partition_graph
from repro.entropy import RelativeEntropy
from repro.entropy.screening import run_sharded
from repro.entropy.sequence import _build_screened
from repro.telemetry import Telemetry, get_telemetry, use_telemetry


def _counting_worker(task):
    """Count one unit per task and ``hi - lo`` rows; returns the range sum."""
    lo, hi = task
    tel = get_telemetry()
    tel.count("test.tasks")
    tel.count("test.rows", hi - lo)
    tel.observe("test.volume", float(hi - lo), buckets=(4.0, 16.0, 64.0))
    return sum(range(lo, hi))


TASKS = [(0, 7), (7, 19), (19, 20), (20, 52)]


def _run_pool(num_workers):
    tel = Telemetry(enabled=True)
    with use_telemetry(tel):
        with tel.span("build"):
            results = run_sharded(
                _counting_worker, TASKS, num_workers=num_workers
            )
    return results, tel


@pytest.mark.parametrize("num_workers", [1, 2, 4])
def test_pool_merge_is_lossless(num_workers):
    results, tel = _run_pool(num_workers)
    assert results == [sum(range(lo, hi)) for lo, hi in TASKS]
    # Counters: every worker increment survives the merge.
    assert tel.registry.counters["test.tasks"].value == len(TASKS)
    assert tel.registry.counters["test.rows"].value == 52
    hist = tel.registry.histograms["test.volume"]
    assert hist.count == len(TASKS)
    assert hist.total == pytest.approx(52.0)
    # Spans: one shard span per task, all re-parented under "build".
    by_name = TallyCounter(s["name"] for s in tel.spans)
    assert by_name == {"entropy.shard": len(TASKS), "build": 1}
    build = next(s for s in tel.spans if s["name"] == "build")
    shards = [s for s in tel.spans if s["name"] == "entropy.shard"]
    assert all(s["parent"] == build["id"] for s in shards)


def test_pool_merge_is_deterministic_across_flavours():
    """Counters and span structure are identical for every pool shape."""
    baseline = None
    for num_workers in (1, 3, 4):
        _, tel = _run_pool(num_workers)
        fingerprint = (
            {k: c.value for k, c in sorted(tel.registry.counters.items())},
            # Duration histograms (`_s`) hold wall-clock values; only the
            # value-carrying ones must be bit-identical across pools.
            {k: h.state() for k, h in sorted(tel.registry.histograms.items())
             if not k.endswith("_s")},
            [s["name"] for s in tel.spans],
        )
        if baseline is None:
            baseline = fingerprint
        else:
            assert fingerprint == baseline, num_workers


def test_screened_builder_counters_match_sequential():
    """The real screened engine: pooled runs reproduce the serial stream."""
    graph = planted_partition_graph(num_nodes=90, num_features=12, seed=7)
    entropy = RelativeEntropy.from_graph(graph)

    def build(num_workers):
        tel = Telemetry(enabled=True)
        with use_telemetry(tel):
            seqs = _build_screened(
                graph, entropy, 4, num_workers=num_workers
            )
        return seqs, tel

    seq_serial, tel_serial = build(1)
    seq_pooled, tel_pooled = build(3)
    assert (seq_pooled.remote == seq_serial.remote).all()
    serial_counts = {
        k: c.value for k, c in tel_serial.registry.counters.items()
    }
    pooled_counts = {
        k: c.value for k, c in tel_pooled.registry.counters.items()
    }
    assert serial_counts == pooled_counts
    assert serial_counts["entropy.screen.rows"] == graph.num_nodes
    assert TallyCounter(s["name"] for s in tel_serial.spans) == TallyCounter(
        s["name"] for s in tel_pooled.spans
    )

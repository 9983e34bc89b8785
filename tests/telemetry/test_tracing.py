"""Unit tests for spans, the session object and the no-op path."""

import pytest

from repro.telemetry import (
    NULL_SPAN,
    NULL_TELEMETRY,
    Telemetry,
    current_span,
    get_telemetry,
    telemetry_from_spec,
    traced,
    use_telemetry,
)


def span_names(tel):
    return [s["name"] for s in tel.spans]


def test_span_nesting_records_parent_ids():
    tel = Telemetry(enabled=True)
    with use_telemetry(tel):
        with tel.span("outer"):
            with tel.span("inner"):
                pass
    # Spans are recorded in completion order: inner closes first.
    assert span_names(tel) == ["inner", "outer"]
    inner, outer = tel.spans
    assert outer["parent"] is None
    assert inner["parent"] == outer["id"]
    assert inner["dur"] >= 0.0 and outer["dur"] >= inner["dur"]


def test_span_attrs_and_current_span():
    tel = Telemetry(enabled=True)
    with use_telemetry(tel):
        assert current_span() is None
        with tel.span("s", engine="screened") as span:
            assert current_span() is span
        assert current_span() is None
    assert tel.spans[0]["attrs"] == {"engine": "screened"}


def test_span_hist_observes_duration():
    tel = Telemetry(enabled=True)
    with use_telemetry(tel):
        with tel.span("step", hist="rl.step_s"):
            pass
    h = tel.registry.histograms["rl.step_s"]
    assert h.count == 1
    assert h.total == pytest.approx(tel.spans[0]["dur"])


def test_traced_decorator_uses_ambient_session():
    calls = []

    @traced("work", kind="unit")
    def work(x):
        calls.append(x)
        return x + 1

    tel = Telemetry(enabled=True)
    with use_telemetry(tel):
        assert work(1) == 2
    assert work(5) == 6  # outside any session: still runs, no record
    assert calls == [1, 5]
    assert span_names(tel) == ["work"]


def test_timed_span_measures_even_when_disabled():
    with NULL_TELEMETRY.timed_span("t") as span:
        pass
    assert span.duration >= 0.0
    assert NULL_TELEMETRY.spans == []


def test_disabled_session_is_pure_noop():
    tel = Telemetry(enabled=False)
    span = tel.span("x", hist="h")
    assert span is NULL_SPAN  # one shared singleton, no allocation
    assert tel.span("y") is NULL_SPAN
    with span:
        tel.count("c")
        tel.observe("h", 1.0)
        tel.set_gauge("g", 2.0)
    assert tel.spans == []
    assert tel.registry.counters == {}
    assert tel.registry.histograms == {}
    assert tel.registry.gauges == {}
    # The disabled counter() helper hands out unregistered instruments.
    c = tel.counter("c")
    c.inc()
    assert tel.registry.counters == {}


def test_get_telemetry_defaults_to_disabled_singleton():
    assert get_telemetry() is NULL_TELEMETRY
    tel = Telemetry(enabled=True)
    with use_telemetry(tel):
        assert get_telemetry() is tel
    assert get_telemetry() is NULL_TELEMETRY


def test_telemetry_from_spec():
    assert telemetry_from_spec(None) is NULL_TELEMETRY
    assert telemetry_from_spec("off") is NULL_TELEMETRY
    mem = telemetry_from_spec("on")
    assert mem.enabled and mem.jsonl_path is None
    mem2 = telemetry_from_spec("memory")
    assert mem2.enabled and mem2.jsonl_path is None


def test_span_cap_drops_and_counts(monkeypatch):
    import repro.telemetry.core as core

    monkeypatch.setattr(core, "MAX_SPANS", 2)
    tel = Telemetry(enabled=True)
    with use_telemetry(tel):
        for i in range(4):
            with tel.span(f"s{i}"):
                pass
    assert len(tel.spans) == 2
    assert tel.spans_dropped == 2


def test_export_absorb_reparents_roots():
    worker = Telemetry(enabled=True)
    with use_telemetry(worker):
        with worker.span("shard"):
            worker.count("rows")
    state = worker.export_state()

    parent = Telemetry(enabled=True)
    with use_telemetry(parent):
        with parent.span("build"):
            parent.absorb(state)
    names = {s["name"]: s for s in parent.spans}
    assert set(names) == {"shard", "build"}
    assert names["shard"]["parent"] == names["build"]["id"]
    assert parent.registry.counters["rows"].value == 1


def test_absorb_remaps_colliding_span_ids():
    a = Telemetry(enabled=True)
    with use_telemetry(a):
        with a.span("a"):
            pass
    b = Telemetry(enabled=True)
    with use_telemetry(b):
        with b.span("b"):
            pass
    a.absorb(b.export_state())
    ids = [s["id"] for s in a.spans]
    assert len(ids) == len(set(ids)) == 2


def _storage_hot_path(tmp_path):
    """Drive every instrumented bundle path once: save a bundle and its
    entropy sidecar, then read both back."""
    from repro.datasets import planted_partition_graph
    from repro.entropy import RelativeEntropy
    from repro.graph.storage import (
        load_entropy_sidecar,
        load_graph_bundle,
        save_entropy_sidecar,
        save_graph_bundle,
    )

    g = planted_partition_graph(num_nodes=30, num_classes=3, seed=0)
    path = str(tmp_path / "bundle")
    save_graph_bundle(g, path)
    save_entropy_sidecar(
        path, RelativeEntropy.from_graph(g, lam=1.0),
        recipe={"embedding": "normalize", "max_profile_len": None},
    )
    load_graph_bundle(path)
    load_entropy_sidecar(path)


def test_storage_instrumentation_disabled_is_pure_noop(tmp_path):
    # The default session is the disabled singleton: the whole storage
    # hot path (bundle and sidecar, saved and loaded) must leave it
    # untouched — no spans, no registered instruments.
    assert get_telemetry() is NULL_TELEMETRY
    _storage_hot_path(tmp_path)
    assert NULL_TELEMETRY.spans == []
    assert NULL_TELEMETRY.registry.counters == {}
    assert NULL_TELEMETRY.registry.histograms == {}
    assert NULL_TELEMETRY.registry.gauges == {}


def test_storage_instrumentation_enabled_records(tmp_path):
    tel = Telemetry(enabled=True)
    with use_telemetry(tel):
        _storage_hot_path(tmp_path)
    counters = tel.registry.counters
    assert sorted(n for n in counters if n.startswith("storage.")) == [
        "storage.bytes_read", "storage.bytes_written",
    ]
    # Every byte written is read back: five graph arrays, two sidecar ones.
    assert counters["storage.bytes_read"].value == (
        counters["storage.bytes_written"].value
    )
    loads = [s["attrs"]["array"] for s in tel.spans if s["name"] == "storage.load"]
    assert sorted(loads) == [
        "edge_keys", "entropy/Z", "entropy/profiles", "features", "indices",
        "indptr", "labels",
    ]
    assert tel.registry.histograms["io.read_s"].count == len(loads)
    assert {s["name"] for s in tel.spans} == {"storage.save", "storage.load"}

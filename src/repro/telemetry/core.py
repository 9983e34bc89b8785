"""The :class:`Telemetry` facade: spans + metrics + sinks in one handle.

One ``Telemetry`` object is one observability session.  Disabled (the
process-wide default) it is a bundle of no-ops — ``span()`` returns the
shared :data:`~repro.telemetry.tracing.NULL_SPAN` singleton and
``count``/``observe`` return after a single attribute check, so
instrumented hot paths cost nothing measurable and mutate no global
state.  Enabled, it collects:

* a span tree (in completion order, parent ids resolved at entry);
* a :class:`~repro.telemetry.metrics.MetricsRegistry` of counters,
  gauges and fixed-bucket histograms;
* optionally a JSONL event stream (schema in
  :mod:`repro.telemetry.schema`).

Sessions are scoped with :func:`use_telemetry` (a ``ContextVar``, like
:func:`repro.tensor.no_grad`) and read with :func:`get_telemetry`.
Worker pools do not inherit the context variable — workers see the
disabled default — which is what makes the capture protocol explicit:
``run_sharded`` runs each shard under a fresh local session and the
parent merges the picklable :meth:`Telemetry.export_state` snapshots
back positionally via :meth:`Telemetry.absorb`.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Dict, Iterator, List, Optional, Sequence, Union

from .metrics import Counter, MetricsRegistry
from .tracing import NULL_SPAN, Span, _CURRENT_SPAN

__all__ = [
    "NULL_TELEMETRY",
    "Telemetry",
    "get_telemetry",
    "set_telemetry",
    "telemetry_from_spec",
    "use_telemetry",
]

#: Spans kept in memory per session; beyond this, spans are counted in
#: ``telemetry.spans_dropped`` instead of stored (and never written to
#: the JSONL sink either, keeping file and memory views consistent).
MAX_SPANS = 200_000

#: Event-schema version stamped on every JSONL line.
SCHEMA_VERSION = 1


class Telemetry:
    """One observability session: tracer, metrics registry and sinks.

    Parameters
    ----------
    enabled:
        ``False`` builds the no-op shell (the process default).  All
        recording methods check this one attribute and return.
    jsonl_path:
        When given (and enabled), every span is streamed to this file as
        a JSON line on completion and the final metric snapshot is
        appended by :meth:`close`.
    run:
        Optional metadata echoed into the stream's ``meta`` line: a dict,
        or a bare string shorthand for ``{"name": <string>}``.

    Examples
    --------
    >>> tel = Telemetry(enabled=True)
    >>> with use_telemetry(tel):
    ...     with tel.span("outer"):
    ...         tel.count("things")
    >>> tel.registry.counter("things").value
    1
    """

    def __init__(
        self,
        enabled: bool = True,
        jsonl_path: Optional[str] = None,
        run: Union[Dict, str, None] = None,
    ) -> None:
        self.enabled = enabled
        self.registry = MetricsRegistry()
        self.spans: List[Dict] = []
        self.spans_dropped = 0
        self.jsonl_path = jsonl_path
        self.run = {"name": run} if isinstance(run, str) else (run or {})
        self._next_span_id = 0
        self._jsonl = None
        self._closed = False
        if enabled and jsonl_path:
            self._jsonl = open(jsonl_path, "w")
            self._emit({
                "type": "meta", "v": SCHEMA_VERSION,
                "clock": "perf_counter", "run": self.run,
            })

    # -- tracing -------------------------------------------------------
    def span(self, name: str, hist: Optional[str] = None, **attrs) -> Span:
        """A recorded span, or the shared no-op singleton when disabled.

        ``hist`` names a histogram that additionally receives the span's
        duration on exit — the one mechanism behind every "span tree +
        latency distribution" pairing (``rl.step_s`` etc.).
        """
        if not self.enabled:
            return NULL_SPAN
        return Span(name, collector=self, attrs=attrs or None, hist=hist)

    def timed_span(self, name: str, **attrs) -> Span:
        """A span that *always* measures its duration.

        Recorded into the session only when enabled; disabled it is a
        bare stopwatch (no ids, no context variable, no records) for the
        few call sites that need the measured seconds as a return value
        regardless of telemetry state (``RareResult.entropy_seconds``).
        """
        return Span(
            name, collector=self if self.enabled else None,
            attrs=attrs or None,
        )

    def _alloc_span_id(self) -> int:
        self._next_span_id += 1
        return self._next_span_id

    def _finish_span(self, span: Span) -> None:
        if span.hist is not None:
            self.registry.histogram(span.hist).observe(span.duration)
        record = {
            "id": span.span_id,
            "parent": span.parent_id,
            "name": span.name,
            "start": span.start,
            "dur": span.duration,
        }
        if span.attrs:
            record["attrs"] = span.attrs
        self._keep(record)

    def _keep(self, record: Dict) -> None:
        if len(self.spans) >= MAX_SPANS:
            self.spans_dropped += 1
            return
        self.spans.append(record)
        if self._jsonl is not None:
            self._emit({"type": "span", "v": SCHEMA_VERSION, **record})

    def _emit(self, event: Dict) -> None:
        self._jsonl.write(json.dumps(event, default=float) + "\n")

    # -- metrics -------------------------------------------------------
    def counter(self, name: str) -> Counter:
        """A registered counter, or a private unregistered one when
        disabled (so callers can keep exact local counts — the thin-view
        pattern — without touching any session state)."""
        if not self.enabled:
            return Counter(name)
        return self.registry.counter(name)

    def count(self, name: str, n: int = 1) -> None:
        """Increment counter ``name`` by ``n``; no-op when disabled."""
        if self.enabled:
            self.registry.counter(name).inc(n)

    def observe(
        self, name: str, value: float,
        buckets: Optional[Sequence[float]] = None,
    ) -> None:
        """Record ``value`` into histogram ``name``; no-op when disabled."""
        if self.enabled:
            self.registry.histogram(name, buckets=buckets).observe(value)

    def set_gauge(self, name: str, value: float) -> None:
        """Set gauge ``name``; no-op when disabled."""
        if self.enabled:
            self.registry.gauge(name).set(value)

    # -- worker snapshots ----------------------------------------------
    def export_state(self) -> Dict:
        """Picklable snapshot of everything this session recorded.

        The payload a pool worker returns alongside its result so the
        parent can :meth:`absorb` it; also usable as a same-process
        checkpoint.
        """
        return {
            "spans": list(self.spans),
            "spans_dropped": self.spans_dropped,
            "metrics": self.registry.state(),
        }

    def absorb(self, state: Dict, parent: Optional[int] = None) -> None:
        """Merge a worker's :meth:`export_state` snapshot into this one.

        Span ids are remapped into this session's id space; the worker's
        root spans are re-parented under ``parent`` (default: the span
        currently open in the absorbing context, so shard spans land
        inside e.g. ``entropy.sequences``).  Metrics merge losslessly
        (counter/histogram adds; gauges last-write-wins in call order).
        Callers absorb snapshots in task order, so the merged session is
        deterministic for every worker count and pool flavour.
        """
        if not self.enabled:
            return
        if parent is None:
            open_span = _CURRENT_SPAN.get()
            parent = open_span.span_id if open_span is not None else None
        mapping: Dict[int, int] = {}
        for record in state.get("spans", []):
            mapping[record["id"]] = self._alloc_span_id()
        for record in state.get("spans", []):
            merged = dict(record)
            merged["id"] = mapping[record["id"]]
            old_parent = record.get("parent")
            merged["parent"] = mapping.get(old_parent, parent)
            self._keep(merged)
        self.spans_dropped += state.get("spans_dropped", 0)
        self.registry.merge_state(state.get("metrics", {}))

    # -- output --------------------------------------------------------
    def snapshot(self) -> Dict[str, Dict]:
        """Counter/gauge values + histogram summaries (JSON-ready)."""
        return self.registry.snapshot()

    def events(self) -> List[Dict]:
        """The session as a list of schema events (meta, spans, metrics).

        The in-memory equivalent of the JSONL stream, usable whether or
        not a file sink was configured.
        """
        out: List[Dict] = [{
            "type": "meta", "v": SCHEMA_VERSION,
            "clock": "perf_counter", "run": self.run,
        }]
        for record in self.spans:
            out.append({"type": "span", "v": SCHEMA_VERSION, **record})
        out.extend(self._metric_events())
        return out

    def _metric_events(self) -> List[Dict]:
        events: List[Dict] = []
        for name, c in sorted(self.registry.counters.items()):
            events.append({
                "type": "counter", "v": SCHEMA_VERSION,
                "name": name, "value": c.value,
            })
        for name, g in sorted(self.registry.gauges.items()):
            events.append({
                "type": "gauge", "v": SCHEMA_VERSION,
                "name": name, "value": g.value,
            })
        for name, h in sorted(self.registry.histograms.items()):
            events.append({
                "type": "histogram", "v": SCHEMA_VERSION,
                "name": name, **h.state(),
            })
        return events

    def report(self) -> str:
        """The human-readable run report (see :mod:`.report`)."""
        from .report import render_report

        return render_report(
            self.spans, self.registry, spans_dropped=self.spans_dropped
        )

    def close(self) -> None:
        """Flush the final metric snapshot to the JSONL sink and close it.

        Idempotent; a session without a file sink closes trivially.
        """
        if self._closed:
            return
        self._closed = True
        if self._jsonl is not None:
            for event in self._metric_events():
                self._emit(event)
            self._jsonl.close()
            self._jsonl = None


#: The process-wide default session: disabled, shared, never mutated.
NULL_TELEMETRY = Telemetry(enabled=False)

#: The scoped active session (per thread/context; workers start unset).
_ACTIVE: ContextVar[Optional[Telemetry]] = ContextVar(
    "repro_telemetry", default=None
)


def get_telemetry() -> Telemetry:
    """The active telemetry session (the disabled default when none is).

    Examples
    --------
    >>> get_telemetry().enabled
    False
    """
    tel = _ACTIVE.get()
    return tel if tel is not None else NULL_TELEMETRY


def set_telemetry(tel: Optional[Telemetry]) -> None:
    """Set the active session for the current context (``None`` clears).

    Prefer the scoped :func:`use_telemetry` in library code; this is the
    escape hatch for REPLs and long-lived drivers.
    """
    _ACTIVE.set(tel)


@contextmanager
def use_telemetry(tel: Telemetry) -> Iterator[Telemetry]:
    """Scoped session activation: restores the previous session on exit.

    Examples
    --------
    >>> tel = Telemetry(enabled=True)
    >>> with use_telemetry(tel) as t:
    ...     t is get_telemetry()
    True
    """
    token = _ACTIVE.set(tel)
    try:
        yield tel
    finally:
        _ACTIVE.reset(token)


def telemetry_from_spec(
    spec: Union[str, None], run: Optional[Dict] = None
) -> Telemetry:
    """Build a session from a config/CLI spec string.

    ``None``, ``""`` or ``"off"`` — the shared disabled default;
    ``"on"``/``"memory"`` — an enabled in-memory session; any other
    string — an enabled session streaming JSONL to that path.  This is
    the one interpretation behind ``RareConfig.telemetry`` and the CLI's
    ``--telemetry[=PATH]``.

    Examples
    --------
    >>> telemetry_from_spec(None).enabled
    False
    >>> telemetry_from_spec("on").enabled
    True
    """
    if not spec or spec == "off":
        return NULL_TELEMETRY
    if spec in ("on", "memory"):
        return Telemetry(enabled=True, run=run)
    return Telemetry(enabled=True, jsonl_path=spec, run=run)

"""Zero-dependency observability: spans, metrics, sinks and reports.

The instrumentation substrate every hot layer reports through — entropy
screening, the rewire memos, every tensor op, the RL loop and the
rewiring service.  Pure stdlib (``contextvars``, ``time``,
``json``), so importing it can never cost a dependency, and **fully off
by default**: the process-wide session is disabled, every recording
call is a single attribute check, and disabled ``span()`` calls return
one shared no-op singleton.

Quick tour::

    from repro.telemetry import Telemetry, use_telemetry

    tel = Telemetry(enabled=True, jsonl_path="run.jsonl")
    with use_telemetry(tel):
        ...                      # instrumented code records spans/metrics
    tel.close()                  # flush the final metric snapshot
    print(tel.report())          # human-readable tree + quantiles

Pipelines opt in by running under :func:`use_telemetry` (the CLI's
``--telemetry[=PATH]`` does so through :func:`telemetry_from_spec`);
``repro stats run.jsonl`` validates and renders a persisted stream.  Naming conventions, the JSONL schema and the
overhead policy are documented in ``docs/observability.md``.
"""

from .core import (
    NULL_TELEMETRY,
    Telemetry,
    get_telemetry,
    set_telemetry,
    telemetry_from_spec,
    use_telemetry,
)
from .metrics import (
    DEFAULT_TIME_BUCKETS,
    SIZE_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    StatsView,
)
from .report import render_report, report_from_events, report_from_snapshot
from .schema import validate_event, validate_lines
from .tracing import NULL_SPAN, NullSpan, Span, current_span, traced

__all__ = [
    "Counter",
    "DEFAULT_TIME_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_SPAN",
    "NULL_TELEMETRY",
    "NullSpan",
    "SIZE_BUCKETS",
    "Span",
    "StatsView",
    "Telemetry",
    "current_span",
    "get_telemetry",
    "render_report",
    "report_from_events",
    "report_from_snapshot",
    "set_telemetry",
    "telemetry_from_spec",
    "traced",
    "use_telemetry",
    "validate_event",
    "validate_lines",
]

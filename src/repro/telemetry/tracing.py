"""Hierarchical spans over ``contextvars`` and monotonic clocks.

A :class:`Span` measures one region of work with ``time.perf_counter``
and records itself — name, parent link, duration, attributes — into the
owning collector (:class:`repro.telemetry.Telemetry`) when it closes.
Parent/child linkage rides on a :class:`contextvars.ContextVar`, so
nesting is automatic, per-thread, and survives ``async`` hops.  A span
only links under an ambient parent owned by the *same* session — a
worker-local capture that inherits a stale parent-session span (inline
single-worker runs) records its spans as roots, which is exactly what
lets ``run_sharded`` merge them back positionally (see
:meth:`repro.telemetry.Telemetry.absorb`).

The disabled path allocates nothing: :data:`NULL_SPAN` is a single
shared no-op object, so ``tel.span(...)`` on a disabled telemetry is one
attribute check plus returning a singleton.
"""

from __future__ import annotations

import functools
from contextvars import ContextVar
from time import perf_counter
from typing import Callable, Dict, Optional

__all__ = ["NULL_SPAN", "NullSpan", "Span", "current_span", "traced"]

#: The innermost open span of the current thread/context (or ``None``).
_CURRENT_SPAN: ContextVar[Optional["Span"]] = ContextVar(
    "repro_current_span", default=None
)


def current_span() -> Optional["Span"]:
    """The innermost open :class:`Span` in this context, if any."""
    return _CURRENT_SPAN.get()


class NullSpan:
    """The shared no-op span returned while telemetry is disabled.

    Supports the full span surface (context manager, :meth:`set`,
    :attr:`duration`) without measuring or recording anything.
    """

    __slots__ = ()

    #: No-op spans never time anything.
    duration = 0.0

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attrs) -> "NullSpan":
        """Ignore attributes; returns ``self`` for chaining."""
        return self

    def __repr__(self) -> str:
        return "<NullSpan>"


#: The singleton every disabled ``tel.span(...)`` call returns.
NULL_SPAN = NullSpan()


class Span:
    """One timed region; records itself into its collector on exit.

    Created through :meth:`repro.telemetry.Telemetry.span` (recorded) or
    :meth:`repro.telemetry.Telemetry.timed_span` (timing always, recorded
    only when enabled — ``collector=None`` means "time but don't keep").

    Attributes
    ----------
    duration:
        Seconds between ``__enter__`` and ``__exit__`` on the monotonic
        ``perf_counter`` clock; ``0.0`` until the span closes.
    """

    __slots__ = (
        "name", "attrs", "span_id", "parent_id", "start", "duration",
        "hist", "_collector", "_token",
    )

    def __init__(
        self,
        name: str,
        collector=None,
        attrs: Optional[Dict] = None,
        hist: Optional[str] = None,
    ) -> None:
        self.name = name
        self.attrs = attrs or {}
        self.span_id: Optional[int] = None
        self.parent_id: Optional[int] = None
        self.start = 0.0
        self.duration = 0.0
        self.hist = hist
        self._collector = collector
        self._token = None

    def set(self, **attrs) -> "Span":
        """Attach attributes; returns ``self`` for chaining."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        if self._collector is not None:
            parent = _CURRENT_SPAN.get()
            # Only link under an ambient span owned by the SAME session:
            # worker-local captures (inline single-worker runs) may see a
            # leftover parent-session span whose id means nothing in this
            # session's id space.
            if parent is not None and parent._collector is self._collector:
                self.parent_id = parent.span_id
            else:
                self.parent_id = None
            self.span_id = self._collector._alloc_span_id()
            self._token = _CURRENT_SPAN.set(self)
        self.start = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.duration = perf_counter() - self.start
        if self._token is not None:
            _CURRENT_SPAN.reset(self._token)
            self._token = None
        if self._collector is not None:
            self._collector._finish_span(self)
        return False

    def __repr__(self) -> str:
        return f"Span({self.name!r}, id={self.span_id})"


def traced(name: Optional[str] = None, **attrs) -> Callable:
    """Decorator form of the span API.

    Wraps a callable in ``get_telemetry().span(...)``, resolved at call
    time, so a function decorated once reports into whichever telemetry
    session is active when it runs (and costs one attribute check when
    none is).

    Examples
    --------
    >>> @traced("demo.work", kind="example")
    ... def work():
    ...     return 42
    >>> work()
    42
    """

    def decorate(fn: Callable) -> Callable:
        span_name = name or fn.__qualname__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            from .core import get_telemetry

            with get_telemetry().span(span_name, **attrs):
                return fn(*args, **kwargs)

        return wrapper

    return decorate

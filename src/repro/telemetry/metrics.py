"""Counters, gauges and fixed-bucket histograms with merge semantics.

The metric primitives behind :class:`repro.telemetry.Telemetry`.  All of
them are plain-python and allocation-light:

* :class:`Counter` — a monotonically increasing integer;
* :class:`Gauge` — a last-write-wins float;
* :class:`Histogram` — fixed bucket boundaries chosen at creation, with
  p50/p90/p99 summaries interpolated from the bucket counts.  Fixed
  buckets (rather than reservoir sampling) make worker snapshots
  *mergeable*: two histograms over the same boundaries merge by adding
  their count vectors, losslessly and order-independently.

:class:`MetricsRegistry` names and owns the instruments;
:meth:`MetricsRegistry.state` / :meth:`MetricsRegistry.merge_state` are
the snapshot pair the sharded entropy workers use to ship their metrics
back to the parent (see ``run_sharded``).
:class:`StatsView` is the read-only dict facade that keeps legacy
``.stats``-style attributes (``IncrementalEvaluator.stats``) working on
top of counters.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Mapping
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "DEFAULT_TIME_BUCKETS",
    "SIZE_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "StatsView",
]

#: Default histogram boundaries for durations in seconds: geometric from
#: 1 microsecond to 100 seconds, two buckets per decade.
DEFAULT_TIME_BUCKETS: Tuple[float, ...] = tuple(
    round(10.0 ** (-6 + i / 2.0), 12) for i in range(17)
)

#: Histogram boundaries for cardinalities (shard volumes):
#: powers of 4 from 1 to ~10^9.
SIZE_BUCKETS: Tuple[float, ...] = tuple(float(4 ** i) for i in range(16))


class Counter:
    """A named monotonically increasing integer.

    Examples
    --------
    >>> c = Counter("hits")
    >>> c.inc(); c.inc(2); c.value
    3
    """

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: int = 0) -> None:
        self.name = name
        self.value = int(value)

    def inc(self, n: int = 1) -> None:
        """Add ``n`` (default 1) to the counter."""
        self.value += n

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, {self.value})"


class Gauge:
    """A named last-write-wins float (e.g. a cache's current size)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: float = 0.0) -> None:
        self.name = name
        self.value = float(value)

    def set(self, value: float) -> None:
        """Record the instrument's current value."""
        self.value = float(value)

    def __repr__(self) -> str:
        return f"Gauge({self.name!r}, {self.value})"


class Histogram:
    """A fixed-bucket histogram with interpolated quantile summaries.

    ``buckets`` holds the inclusive upper bounds of each bucket; one
    overflow bucket is appended implicitly, so ``counts`` has
    ``len(buckets) + 1`` entries.  Quantiles are estimated by linear
    interpolation inside the bucket the rank falls into, clamped to the
    observed ``[min, max]`` — exact enough for p50/p90/p99 reporting,
    and (unlike sampling) exactly mergeable across worker snapshots.

    Examples
    --------
    >>> h = Histogram("lat", buckets=(0.1, 1.0, 10.0))
    >>> for v in (0.05, 0.5, 0.5, 5.0):
    ...     h.observe(v)
    >>> h.count, round(h.total, 2)
    (4, 6.05)
    """

    __slots__ = ("name", "buckets", "counts", "count", "total", "min", "max")

    def __init__(
        self, name: str, buckets: Optional[Sequence[float]] = None
    ) -> None:
        self.name = name
        self.buckets: Tuple[float, ...] = tuple(
            buckets if buckets is not None else DEFAULT_TIME_BUCKETS
        )
        if list(self.buckets) != sorted(self.buckets):
            raise ValueError(f"histogram buckets must be sorted: {buckets!r}")
        self.counts: List[int] = [0] * (len(self.buckets) + 1)
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        """Record one sample."""
        value = float(value)
        self.counts[bisect_left(self.buckets, value)] += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (``0 <= q <= 1``) from the buckets.

        Clamped to the observed ``[min, max]``: interpolating inside a
        wide bucket must never report a value no sample reached.
        """
        if self.count == 0:
            return 0.0
        return min(max(self._interpolate(q), self.min), self.max)

    def _interpolate(self, q: float) -> float:
        rank = q * self.count
        seen = 0
        for i, c in enumerate(self.counts):
            if c == 0:
                continue
            if seen + c >= rank:
                lo = self.buckets[i - 1] if i > 0 else (
                    self.min if self.min is not None else 0.0
                )
                hi = self.buckets[i] if i < len(self.buckets) else (
                    self.max if self.max is not None else lo
                )
                lo = min(lo, hi)
                frac = (rank - seen) / c
                return lo + (hi - lo) * frac
            seen += c
        return self.max if self.max is not None else 0.0

    def summary(self) -> Dict[str, float]:
        """The reporting summary: count, mean, extrema and p50/p90/p99."""
        mean = self.total / self.count if self.count else 0.0
        return {
            "count": self.count,
            "total": self.total,
            "mean": mean,
            "min": self.min,
            "max": self.max,
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
        }

    def state(self) -> Dict[str, object]:
        """Picklable full state (buckets + raw counts) for merging."""
        return {
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
        }

    @classmethod
    def from_state(cls, name: str, state: Mapping) -> "Histogram":
        """Rebuild a histogram from a :meth:`state` payload."""
        h = cls(name, buckets=state["buckets"])
        h.merge_state(state)
        return h

    def merge_state(self, state: Mapping) -> None:
        """Add another histogram's :meth:`state` into this one.

        Requires identical bucket boundaries — fixed buckets are what
        make the merge lossless and order-independent.
        """
        if tuple(state["buckets"]) != self.buckets:
            raise ValueError(
                f"cannot merge histogram {self.name!r}: bucket boundaries "
                f"differ ({state['buckets']!r} vs {list(self.buckets)!r})"
            )
        for i, c in enumerate(state["counts"]):
            self.counts[i] += c
        self.count += state["count"]
        self.total += state["total"]
        for key, pick in (("min", min), ("max", max)):
            other = state[key]
            if other is not None:
                ours = getattr(self, key)
                setattr(
                    self, key, other if ours is None else pick(ours, other)
                )

    def __repr__(self) -> str:
        return f"Histogram({self.name!r}, count={self.count})"


class MetricsRegistry:
    """Named instruments plus snapshot/merge plumbing.

    Instruments are created on first use and shared by name afterwards;
    asking for an existing histogram with different buckets is an error
    (silently divergent boundaries would make merges lossy).
    """

    def __init__(self) -> None:
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        """The counter registered under ``name`` (created on first use)."""
        c = self.counters.get(name)
        if c is None:
            c = self.counters[name] = Counter(name)
        return c

    def gauge(self, name: str) -> Gauge:
        """The gauge registered under ``name`` (created on first use)."""
        g = self.gauges.get(name)
        if g is None:
            g = self.gauges[name] = Gauge(name)
        return g

    def histogram(
        self, name: str, buckets: Optional[Sequence[float]] = None
    ) -> Histogram:
        """The histogram under ``name``; ``buckets`` applies on creation."""
        h = self.histograms.get(name)
        if h is None:
            h = self.histograms[name] = Histogram(name, buckets=buckets)
        elif buckets is not None and tuple(buckets) != h.buckets:
            raise ValueError(
                f"histogram {name!r} already registered with buckets "
                f"{list(h.buckets)!r}; cannot re-register with {buckets!r}"
            )
        return h

    def snapshot(self) -> Dict[str, Dict]:
        """Reporting snapshot: counter/gauge values, histogram summaries."""
        return {
            "counters": {n: c.value for n, c in sorted(self.counters.items())},
            "gauges": {n: g.value for n, g in sorted(self.gauges.items())},
            "histograms": {
                n: h.summary() for n, h in sorted(self.histograms.items())
            },
        }

    def state(self) -> Dict[str, Dict]:
        """Picklable full state for cross-worker merging."""
        return {
            "counters": {n: c.value for n, c in self.counters.items()},
            "gauges": {n: g.value for n, g in self.gauges.items()},
            "histograms": {n: h.state() for n, h in self.histograms.items()},
        }

    def merge_state(self, state: Mapping) -> None:
        """Merge a worker's :meth:`state` snapshot into this registry.

        Counters and histogram counts add; gauges are last-write-wins in
        merge order (the callers merge positionally, so the result is
        deterministic for any worker count).
        """
        for name, value in state.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, value in state.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, hstate in state.get("histograms", {}).items():
            self.histogram(name, buckets=hstate["buckets"]).merge_state(hstate)


class StatsView(Mapping):
    """Read-only dict facade over named counters.

    Keeps legacy counter dicts (``IncrementalEvaluator.stats``, the env
    rewire-memo accounting) source-compatible while the underlying
    numbers live in telemetry :class:`Counter` objects.

    Examples
    --------
    >>> hits = Counter("hits"); hits.inc(3)
    >>> view = StatsView({"hits": hits})
    >>> view["hits"], dict(view) == {"hits": 3}
    (3, True)
    """

    def __init__(self, counters: Mapping) -> None:
        self._counters = dict(counters)

    def __getitem__(self, key: str) -> int:
        return self._counters[key].value

    def __iter__(self) -> Iterator[str]:
        return iter(self._counters)

    def __len__(self) -> int:
        return len(self._counters)

    def __repr__(self) -> str:
        return f"StatsView({dict(self)!r})"

"""One shared bounded-LRU mapping with hit/miss/eviction accounting.

Every layer that memoises expensive derived objects — the ``(k, d)``
rewire memo of :class:`~repro.core.env.TopologyEnv`, the serving layer's
per-session caches (:mod:`repro.serve`) — shares this one
implementation instead of re-growing ``OrderedDict`` + counter
boilerplate per call site.  Semantics:

* **True LRU** — :meth:`LRUCache.get` refreshes the entry's recency on a
  hit, so hot keys survive even when they were inserted early;
  :meth:`LRUCache.put` evicts from the least-recently-used end until the
  population is below the capacity.
* **Exact accounting** — hits, misses and evictions are counted in
  per-instance telemetry :class:`~repro.telemetry.Counter` objects
  behind a read-only :class:`~repro.telemetry.StatsView` (``.stats``),
  and optionally mirrored into the active telemetry session under
  ``<counter_prefix>.{hits,misses,evictions}`` so fleet-wide aggregates
  come for free.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Hashable, Iterator, Optional

from ..telemetry import Counter, StatsView, Telemetry, get_telemetry

__all__ = ["LRUCache"]


class LRUCache:
    """A bounded mapping with least-recently-used eviction.

    Parameters
    ----------
    capacity:
        Maximum population.
    counter_prefix:
        When given, every hit/miss/eviction is also mirrored into the
        telemetry session active *at construction* as
        ``<prefix>.hits`` / ``.misses`` / ``.evictions``.
    tel:
        The telemetry session to mirror into; defaults to the session
        ambient at construction time (:func:`repro.telemetry.get_telemetry`).

    Examples
    --------
    >>> cache = LRUCache(2)
    >>> cache.put("a", 1); cache.put("b", 2)
    >>> cache.get("a")          # hit: "a" becomes most-recent
    1
    >>> cache.put("c", 3)       # evicts "b", the LRU entry
    >>> cache.get("b") is None
    True
    >>> dict(cache.stats)
    {'hits': 1, 'misses': 1, 'evictions': 1}
    """

    def __init__(
        self,
        capacity: int,
        counter_prefix: Optional[str] = None,
        tel: Optional[Telemetry] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._prefix = counter_prefix
        self._tel = tel if tel is not None else get_telemetry()
        self._counters = {
            key: Counter(
                f"{counter_prefix}.{key}" if counter_prefix else key
            )
            for key in ("hits", "misses", "evictions")
        }
        self.stats = StatsView(self._counters)

    # ------------------------------------------------------------------
    def _count(self, key: str) -> None:
        self._counters[key].inc()
        if self._prefix is not None:
            self._tel.count(f"{self._prefix}.{key}")

    @property
    def hits(self) -> int:
        """Total lookups that found their key."""
        return self._counters["hits"].value

    @property
    def misses(self) -> int:
        """Total lookups that came back empty."""
        return self._counters["misses"].value

    @property
    def evictions(self) -> int:
        """Total entries dropped at the capacity bound."""
        return self._counters["evictions"].value

    # ------------------------------------------------------------------
    def get(self, key: Hashable, default: Any = None) -> Any:
        """The cached value (refreshing its recency), or ``default``.

        Counts exactly one hit or one miss; use :meth:`peek` for
        accounting-free inspection.
        """
        try:
            value = self._data[key]
        except KeyError:
            self._count("misses")
            return default
        self._count("hits")
        self._data.move_to_end(key)
        return value

    def peek(self, key: Hashable, default: Any = None) -> Any:
        """The cached value without recency refresh or accounting."""
        return self._data.get(key, default)

    def put(self, key: Hashable, value: Any) -> Any:
        """Insert (or refresh) ``key`` and evict down to the bound.

        Eviction drops least-recently-used entries while the population
        is at the capacity ("evict before insert"), so the population
        never exceeds the bound.  Returns ``value`` for call-chaining.
        """
        if key in self._data:
            self._data.move_to_end(key)
            self._data[key] = value
            return value
        while len(self._data) >= self.capacity:
            self._data.popitem(last=False)
            self._count("evictions")
        self._data[key] = value
        return value

    def pop(self, key: Hashable, default: Any = None) -> Any:
        """Remove and return ``key``'s value (no hit/miss accounting)."""
        return self._data.pop(key, default)

    def clear(self) -> None:
        """Drop every entry (counters are preserved)."""
        self._data.clear()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def __iter__(self) -> Iterator[Hashable]:
        """Keys in recency order (least-recently-used first)."""
        return iter(self._data)

    def __repr__(self) -> str:
        return (
            f"LRUCache(len={len(self._data)}, capacity={self.capacity}, "
            f"stats={dict(self.stats)})"
        )

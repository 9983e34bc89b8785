"""Unit contract of the shared bounded-LRU cache (repro.core.lru)."""

import pytest

from repro.core.lru import LRUCache
from repro.telemetry import Telemetry, use_telemetry


def test_put_get_roundtrip():
    cache = LRUCache(4)
    cache.put("a", 1)
    assert cache.get("a") == 1
    assert "a" in cache
    assert len(cache) == 1


def test_get_miss_returns_default():
    cache = LRUCache(2)
    assert cache.get("nope") is None
    assert cache.get("nope", 42) == 42
    assert cache.misses == 2
    assert cache.hits == 0


def test_capacity_evicts_least_recently_used():
    cache = LRUCache(2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1  # refresh "a" -> "b" becomes LRU
    cache.put("c", 3)
    assert "b" not in cache
    assert cache.get("a") == 1
    assert cache.get("c") == 3
    assert cache.evictions == 1


def test_put_existing_key_refreshes_without_eviction():
    cache = LRUCache(2)
    cache.put("a", 1)
    cache.put("b", 2)
    cache.put("a", 10)  # refresh, not insert: no eviction
    assert len(cache) == 2
    assert cache.evictions == 0
    assert cache.get("a") == 10


def test_peek_and_pop_do_not_count():
    cache = LRUCache(2)
    cache.put("a", 1)
    assert cache.peek("a") == 1
    assert cache.peek("zz") is None
    assert cache.pop("a") == 1
    assert cache.pop("a", "gone") == "gone"
    assert cache.hits == 0 and cache.misses == 0


def test_clear_preserves_counters():
    cache = LRUCache(2)
    cache.put("a", 1)
    cache.get("a")
    cache.clear()
    assert len(cache) == 0
    assert cache.hits == 1


def test_stats_view_matches_properties():
    cache = LRUCache(1)
    cache.put("a", 1)
    cache.get("a")
    cache.get("b")
    cache.put("c", 3)
    stats = dict(cache.stats)
    assert stats == {"hits": 1, "misses": 1, "evictions": 1}
    assert (cache.hits, cache.misses, cache.evictions) == (1, 1, 1)


def test_iteration_order_is_lru_first():
    cache = LRUCache(3)
    cache.put("a", 1)
    cache.put("b", 2)
    cache.put("c", 3)
    cache.get("a")
    assert list(cache) == ["b", "c", "a"]


def test_capacity_must_be_positive():
    with pytest.raises(ValueError, match="capacity"):
        LRUCache(0)


def test_telemetry_mirroring_with_prefix():
    tel = Telemetry()
    with use_telemetry(tel):
        cache = LRUCache(1, counter_prefix="test.cache")
        cache.put("a", 1)
        cache.get("a")
        cache.get("b")
        cache.put("c", 3)
    counters = tel.snapshot()["counters"]
    assert counters["test.cache.hits"] == 1
    assert counters["test.cache.misses"] == 1
    assert counters["test.cache.evictions"] == 1


def test_no_prefix_means_no_session_mirroring():
    tel = Telemetry()
    with use_telemetry(tel):
        cache = LRUCache(1)
        cache.get("a")
    assert tel.snapshot()["counters"] == {}

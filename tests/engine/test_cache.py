"""Tests for the engine's LRU result cache."""

import pytest

from repro.engine.cache import LRUCache
from repro.utils.validation import ValidationError


class TestLRUCache:
    def test_put_get_roundtrip(self):
        cache = LRUCache(maxsize=4, metrics_label="test")
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.hits == 1 and cache.misses == 0

    def test_miss_returns_default(self):
        cache = LRUCache(maxsize=4, metrics_label="test")
        assert cache.get("nope") is None
        assert cache.get("nope", 42) == 42
        assert cache.misses == 2

    def test_eviction_is_least_recently_used(self):
        cache = LRUCache(maxsize=2, metrics_label="test")
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh "a" → "b" is now LRU
        cache.put("c", 3)
        assert "a" in cache and "c" in cache
        assert "b" not in cache
        assert cache.evictions == 1

    def test_put_refreshes_existing_key(self):
        cache = LRUCache(maxsize=2, metrics_label="test")
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # refresh, no growth
        cache.put("c", 3)
        assert cache.get("a") == 10
        assert "b" not in cache

    def test_contains_does_not_touch_recency(self):
        cache = LRUCache(maxsize=2, metrics_label="test")
        cache.put("a", 1)
        cache.put("b", 2)
        assert "a" in cache  # membership probe must not refresh "a"
        cache.put("c", 3)
        assert "a" not in cache
        assert cache.hits == 0 and cache.misses == 0

    def test_peek_returns_value_without_side_effects(self):
        cache = LRUCache(maxsize=2, metrics_label="test")
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.peek("a") == 1
        assert cache.hits == 0 and cache.misses == 0
        # Peeking must not refresh recency: "a" is still the LRU victim.
        cache.put("c", 3)
        assert "a" not in cache and "b" in cache

    def test_peek_missing_returns_default_without_counting(self):
        cache = LRUCache(maxsize=2, metrics_label="test")
        assert cache.peek("nope") is None
        assert cache.peek("nope", 42) == 42
        assert cache.misses == 0

    def test_rekey_moves_value(self):
        cache = LRUCache(maxsize=4, metrics_label="test")
        cache.put("old", 7)
        assert cache.rekey("old", "new") is True
        assert "old" not in cache
        assert cache.get("new") == 7
        assert cache.rekey("gone", "anywhere") is False

    def test_pop_and_clear(self):
        cache = LRUCache(maxsize=4, metrics_label="test")
        cache.put("a", 1)
        assert cache.pop("a") == 1
        assert cache.pop("a", "fallback") == "fallback"
        cache.put("b", 2)
        cache.clear()
        assert len(cache) == 0

    def test_rejects_nonpositive_maxsize(self):
        with pytest.raises(ValidationError):
            LRUCache(maxsize=0, metrics_label="test")


class TestThreadSafety:
    def test_concurrent_mixed_operations_stay_consistent(self):
        """Hammer every operation from several threads: no exceptions, the
        size bound holds, and the counters add up."""
        import threading

        cache = LRUCache(maxsize=32, metrics_label="test")
        errors = []

        def worker(worker_id):
            try:
                for i in range(500):
                    key = (worker_id, i % 40)
                    cache.put(key, i)
                    # Keys are namespaced per worker, so a read returns a
                    # value this worker put under the key (any iteration of
                    # the 40-cycle) or None after an eviction/pop/rekey.
                    value = cache.get(key)
                    assert value is None or value % 40 == i % 40
                    cache.peek(key)
                    if i % 7 == 0:
                        cache.pop(key)
                    if i % 11 == 0:
                        cache.rekey(key, (worker_id, "moved", i % 40))
                    if i % 13 == 0:
                        for k in cache.keys():
                            cache.peek(k)
                    len(cache)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(w,)) for w in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not errors
        assert len(cache) <= 32
        assert cache.hits + cache.misses == 6 * 500

    def test_eviction_bound_under_concurrent_puts(self):
        import threading

        cache = LRUCache(maxsize=8, metrics_label="test")

        def filler(base):
            for i in range(300):
                cache.put((base, i), i)

        threads = [threading.Thread(target=filler, args=(b,)) for b in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert len(cache) <= 8
        assert cache.evictions == 4 * 300 - len(cache)

"""Tests for the bounded LRU used by the hot memoisation caches."""

import pytest

from repro.core.lru import LruCache


class TestLruCache:
    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ValueError):
            LruCache(0)

    def test_get_put_roundtrip(self):
        cache = LruCache(4)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert "a" in cache
        assert len(cache) == 1

    def test_counts_hits_and_misses(self):
        cache = LruCache(4)
        cache.put("a", 1)
        cache.get("a")
        cache.get("b")
        assert cache.hits == 1
        assert cache.misses == 1
        assert cache.hit_rate == 0.5

    def test_evicts_one_cold_entry_not_everything(self):
        cache = LruCache(3)
        for key in "abc":
            cache.put(key, key.upper())
        cache.put("d", "D")  # overflows: evicts "a" only
        assert "a" not in cache
        assert all(k in cache for k in "bcd")
        assert len(cache) == 3

    def test_lookup_refreshes_recency(self):
        cache = LruCache(3)
        for key in "abc":
            cache.put(key, key.upper())
        cache.get("a")  # "a" is now hottest; "b" is coldest
        cache.put("d", "D")
        assert "a" in cache
        assert "b" not in cache

    def test_cached_none_is_distinguishable_from_absent(self):
        sentinel = object()
        cache = LruCache(3)
        cache.put("unsat", None)
        assert cache.get("unsat", sentinel) is None
        assert cache.get("ghost", sentinel) is sentinel


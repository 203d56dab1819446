"""Unit tests for the byte-budgeted query-result cache.

The cache is keyed by ``query_key`` tuples and never tokenises; how terms
normalise to a key is tested in ``tests/test_cache_popularity.py``.
"""

import pytest

from repro.cache.results import ENTRY_OVERHEAD_BYTES, CachedResult, QueryResultCache


def make_cache(**kwargs) -> QueryResultCache:
    kwargs.setdefault("budget_bytes", 64 * 1024)
    return QueryResultCache(**kwargs)


class TestBasics:
    def test_miss_then_hit(self):
        cache = make_cache()
        assert cache.get(("beatles", "help")) is None
        assert cache.put(("beatles", "help"), ["beatles_help.mp3"], cost_bytes=1000)
        entry = cache.get(("beatles", "help"))
        assert isinstance(entry, CachedResult)
        assert entry.filenames == ("beatles_help.mp3",)
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_bytes_saved_accumulates_cost(self):
        cache = make_cache()
        cache.put(("a1",), ["a1.mp3"], cost_bytes=2500)
        cache.get(("a1",))
        cache.get(("a1",))
        assert cache.stats.bytes_saved == 5000

    def test_unindexable_query_not_cached(self):
        cache = make_cache()
        # a query of stop words only normalises to the empty key
        assert not cache.put((), ["x.mp3"], cost_bytes=10)
        assert len(cache) == 0

    def test_empty_result_sets_are_cacheable(self):
        cache = make_cache()
        assert cache.put(("nothing1",), [], cost_bytes=900)
        entry = cache.get(("nothing1",))
        assert entry is not None
        assert entry.result_count == 0

    def test_invalidate(self):
        cache = make_cache()
        cache.put(("a1",), ["a1.mp3"], cost_bytes=10)
        assert cache.invalidate(("a1",))
        assert not cache.invalidate(("a1",))
        assert cache.get(("a1",)) is None

    def test_peek_has_no_side_effects(self):
        cache = make_cache()
        cache.put(("a1",), ["a1.mp3"], cost_bytes=10)
        before = (cache.stats.hits, cache.stats.misses)
        assert cache.peek(("a1",)) is not None
        assert cache.peek(("zz9",)) is None
        assert (cache.stats.hits, cache.stats.misses) == before

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            QueryResultCache(budget_bytes=0)
        with pytest.raises(ValueError):
            QueryResultCache(budget_bytes=100, policy="random")
        with pytest.raises(ValueError):
            QueryResultCache(budget_bytes=100, ttl=0)


class TestBudget:
    def test_used_bytes_tracks_entries(self):
        cache = make_cache()
        cache.put(("a1",), ["a1.mp3"], cost_bytes=10)
        footprint = cache.entry_footprint(["a1.mp3"])
        assert cache.used_bytes == footprint
        cache.invalidate(("a1",))
        assert cache.used_bytes == 0

    def test_oversized_entry_rejected(self):
        cache = make_cache(budget_bytes=ENTRY_OVERHEAD_BYTES + 10)
        assert not cache.put(("a1",), ["a_very_long_filename.mp3"], cost_bytes=10)
        assert cache.stats.rejections == 1

    def test_eviction_keeps_usage_under_budget(self):
        one_entry = QueryResultCache(budget_bytes=10**6).entry_footprint(["x.mp3"])
        cache = make_cache(budget_bytes=int(one_entry * 2.5))
        for index in range(5):
            cache.put((f"q{index}x",), ["x.mp3"], cost_bytes=10)
        assert cache.used_bytes <= cache.budget_bytes
        assert len(cache) == 2
        assert cache.stats.evictions == 3

    def test_refresh_replaces_existing_entry(self):
        cache = make_cache()
        cache.put(("a1",), ["old.mp3"], cost_bytes=10)
        cache.put(("a1",), ["new1.mp3", "new2.mp3"], cost_bytes=20)
        assert len(cache) == 1
        entry = cache.get(("a1",))
        assert entry.filenames == ("new1.mp3", "new2.mp3")
        assert cache.used_bytes == cache.entry_footprint(["new1.mp3", "new2.mp3"])


class TestEvictionPolicies:
    def _tight_cache(self, policy: str) -> QueryResultCache:
        footprint = QueryResultCache(budget_bytes=10**6).entry_footprint(["x.mp3"])
        return make_cache(budget_bytes=int(footprint * 3.5), policy=policy)

    def test_lru_evicts_least_recently_used(self):
        cache = self._tight_cache("lru")
        for name in ("a1", "b1", "c1"):
            cache.put((name,), ["x.mp3"], cost_bytes=10)
        cache.get(("a1",))  # refresh a1; b1 becomes LRU
        cache.put(("d1",), ["x.mp3"], cost_bytes=10)
        assert ("b1",) not in cache
        assert ("a1",) in cache and ("c1",) in cache and ("d1",) in cache

    def test_lfu_evicts_fewest_hits(self):
        cache = self._tight_cache("lfu")
        for name in ("a1", "b1", "c1"):
            cache.put((name,), ["x.mp3"], cost_bytes=10)
        cache.get(("a1",))
        cache.get(("a1",))
        cache.get(("c1",))
        cache.put(("d1",), ["x.mp3"], cost_bytes=10)
        assert ("b1",) not in cache  # zero hits
        assert ("a1",) in cache and ("c1",) in cache

    def test_ttl_policy_evicts_oldest(self):
        cache = self._tight_cache("ttl")
        for name in ("a1", "b1", "c1"):
            cache.put((name,), ["x.mp3"], cost_bytes=10)
        cache.get(("a1",))  # recency must not matter under ttl policy
        cache.put(("d1",), ["x.mp3"], cost_bytes=10)
        assert ("a1",) not in cache  # oldest created
        assert ("b1",) in cache and ("c1",) in cache


class TestExpiry:
    def test_entries_expire_on_get(self):
        clock = {"now": 0.0}
        cache = make_cache(ttl=10.0, clock=lambda: clock["now"])
        cache.put(("a1",), ["x.mp3"], cost_bytes=10)
        clock["now"] = 5.0
        assert cache.get(("a1",)) is not None
        clock["now"] = 10.0
        assert cache.get(("a1",)) is None
        assert cache.stats.expirations == 1
        assert cache.used_bytes == 0

    def test_purge_expired(self):
        clock = {"now": 0.0}
        cache = make_cache(ttl=10.0, clock=lambda: clock["now"])
        cache.put(("a1",), ["x.mp3"], cost_bytes=10)
        clock["now"] = 3.0
        cache.put(("b1",), ["x.mp3"], cost_bytes=10)
        clock["now"] = 11.0
        assert cache.purge_expired() == 1
        assert ("b1",) in cache

    def test_logical_clock_ticks_per_operation(self):
        cache = make_cache(ttl=3.0)  # no clock: ttl counts operations
        cache.put(("a1",), ["x.mp3"], cost_bytes=10)
        assert cache.get(("a1",)) is not None
        assert cache.get(("a1",)) is not None
        assert cache.get(("a1",)) is None  # 3 operations later


class TestAdmission:
    def test_admission_gate_rejects(self):
        seen: set = set()

        def admit(key):
            first_time = key not in seen
            seen.add(key)
            return not first_time

        cache = make_cache(admission=admit)
        assert not cache.put(("a1",), ["x.mp3"], cost_bytes=10)
        assert cache.stats.rejections == 1
        assert cache.put(("a1",), ["x.mp3"], cost_bytes=10)

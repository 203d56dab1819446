"""Unit tests for the byte-budgeted LRU query-result cache.

The cache is keyed by ``query_key`` tuples and never tokenises; how terms
normalise to a key is tested in ``TestQueryKey``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from oracle import ReferenceLru
from repro.cache.results import (
    ENTRY_OVERHEAD_BYTES,
    CachedResult,
    QueryResultCache,
    query_key,
)
from repro.common.units import CostModel


def make_cache(**kwargs) -> QueryResultCache:
    kwargs.setdefault("budget_bytes", 64 * 1024)
    return QueryResultCache(**kwargs)


class TestQueryKey:
    def test_tokenizes_sorts_and_dedupes(self):
        assert query_key(["Help!", "beatles"]) == ("beatles", "help")
        assert query_key(["beatles help"]) == query_key(["help", "BEATLES"])

    def test_stop_words_vanish(self):
        assert query_key(["the", "of"]) == ()

    def test_multi_word_terms_split(self):
        assert query_key(["free bird skynyrd"]) == ("bird", "free", "skynyrd")

    def test_case_and_order_share_one_key(self):
        assert query_key(["Help", "Beatles"]) == query_key(["beatles", "help"])


TERMS = st.lists(
    st.one_of(
        st.sampled_from(["the", "MP3", "Help!", "beatles", "free bird", "a", "take01"]),
        st.text(alphabet="abcXYZ09 -_.!", max_size=10),
    ),
    max_size=5,
)


class TestQueryKeyProperties:
    @given(TERMS)
    def test_a_key_is_sorted_distinct_lowercase_keywords(self, terms):
        key = query_key(terms)
        assert list(key) == sorted(set(key))
        assert all(keyword == keyword.lower() and len(keyword) > 1 for keyword in key)

    @given(TERMS, st.randoms(use_true_random=False))
    def test_order_case_and_repeats_do_not_change_the_key(self, terms, rng):
        shuffled = [term.upper() for term in terms] + terms
        rng.shuffle(shuffled)
        assert query_key(shuffled) == query_key(terms)

    @given(TERMS)
    def test_a_key_is_its_own_key(self, terms):
        key = query_key(terms)
        assert query_key(key) == key
        assert query_key([" ".join(key)]) == key


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

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            QueryResultCache(budget_bytes=0)


class TestBudget:
    def test_used_bytes_tracks_entries(self):
        cache = make_cache()
        cache.put(("a1",), ["a1.mp3"], cost_bytes=10)
        footprint = cache.entry_footprint(["a1.mp3"])
        assert cache.used_bytes == footprint
        cache.put(("b1",), ["b1.mp3", "b2.mp3"], cost_bytes=10)
        assert cache.used_bytes == footprint + cache.entry_footprint(["b1.mp3", "b2.mp3"])

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


class TestEviction:
    def _tight_cache(self) -> QueryResultCache:
        footprint = QueryResultCache(budget_bytes=10**6).entry_footprint(["x.mp3"])
        return make_cache(budget_bytes=int(footprint * 3.5))

    def test_lru_evicts_least_recently_used(self):
        cache = self._tight_cache()
        for name in ("a1", "b1", "c1"):
            cache.put((name,), ["x.mp3"], cost_bytes=10)
        cache.get(("a1",))  # refresh a1; b1 becomes LRU
        cache.put(("d1",), ["x.mp3"], cost_bytes=10)
        assert ("b1",) not in cache
        assert ("a1",) in cache and ("c1",) in cache and ("d1",) in cache


def footprint_of(*filenames: str) -> int:
    return QueryResultCache(budget_bytes=10**6).entry_footprint(list(filenames))


class TestLruContract:
    def test_oversized_answer_evicts_nothing(self):
        cache = make_cache(budget_bytes=footprint_of("x.mp3") * 3)
        for name in ("a1", "b1", "c1"):
            cache.put((name,), ["x.mp3"], cost_bytes=10)
        huge = [f"track{i:02d}.mp3" for i in range(8)]
        assert not cache.put(("big",), huge, cost_bytes=10)
        assert [entry.key for entry in cache.entries()] == [("a1",), ("b1",), ("c1",)]
        assert cache.stats.evictions == 0

    def test_refresh_makes_the_entry_most_recent(self):
        cache = make_cache(budget_bytes=int(footprint_of("x.mp3") * 3.5))
        for name in ("a1", "b1", "c1"):
            cache.put((name,), ["x.mp3"], cost_bytes=10)
        cache.put(("a1",), ["x.mp3"], cost_bytes=10)  # a1 is now the newest
        cache.put(("d1",), ["x.mp3"], cost_bytes=10)
        assert [entry.key for entry in cache.entries()] == [("c1",), ("a1",), ("d1",)]

    def test_an_answer_the_size_of_the_budget_fits(self):
        cache = make_cache(budget_bytes=footprint_of("x.mp3"))
        assert cache.put(("a1",), ["x.mp3"], cost_bytes=10)
        assert cache.used_bytes == cache.budget_bytes
        assert cache.put(("b1",), ["y.mp3"], cost_bytes=10)
        assert ("a1",) not in cache and cache.stats.evictions == 1

    def test_a_large_answer_evicts_least_recent_first(self):
        small = footprint_of("x.mp3")
        pair = ["xx.mp3", "yy.mp3"]
        cache = make_cache(budget_bytes=3 * small + 10)
        for name in ("a1", "b1", "c1"):
            cache.put((name,), ["x.mp3"], cost_bytes=10)
        cache.get(("a1",))  # b1, then c1, are now the least recent
        assert footprint_of(*pair) > small
        assert cache.put(("big",), pair, cost_bytes=10)
        assert [entry.key for entry in cache.entries()] == [("a1",), ("big",)]
        assert cache.stats.evictions == 2

    def test_an_empty_key_counts_nothing(self):
        cache = make_cache()
        cache.put((), ["x.mp3"], cost_bytes=10)
        assert (cache.stats.insertions, cache.stats.rejections) == (0, 0)
        assert cache.used_bytes == 0

    def test_the_clock_stamps_entries(self):
        clock = {"now": 2.0}
        cache = make_cache(clock=lambda: clock["now"])
        cache.put(("a1",), ["x.mp3"], cost_bytes=10)
        clock["now"] = 5.5
        entry = cache.get(("a1",))
        assert (entry.created_at, entry.last_access, entry.hits) == (2.0, 5.5, 1)
        assert cache.now() == 5.5

    def test_without_a_clock_each_operation_ticks_once(self):
        cache = make_cache()
        cache.put(("a1",), ["x.mp3"], cost_bytes=10)
        cache.get(("zz9",))
        entry = cache.get(("a1",))
        assert (entry.created_at, entry.last_access, cache.now()) == (1.0, 3.0, 3.0)

    def test_result_count_may_differ_from_the_payload(self):
        cache = make_cache()
        cache.put(("a1",), ["x.mp3"], cost_bytes=10, result_count=7)
        assert cache.get(("a1",)).result_count == 7

    def test_the_cost_model_prices_the_footprint(self):
        class LeanFraming(CostModel):
            tuple_base_bytes = 40
            serialization_overhead = 1.0

        model = LeanFraming()
        cache = make_cache(cost_model=model)
        names = ["a.mp3", "longer name.mp3"]
        cache.put(("a1",), names, cost_bytes=10)
        expected = ENTRY_OVERHEAD_BYTES + sum(model.item_tuple_bytes(n) for n in names)
        assert cache.used_bytes == cache.entry_footprint(names) == expected
        assert expected < footprint_of(*names)  # the default model frames more

    def test_hit_rate_counts_every_lookup(self):
        cache = make_cache()
        assert cache.stats.hit_rate == 0.0
        cache.put(("a1",), ["x.mp3"], cost_bytes=300)
        for key in (("a1",), ("zz9",), ("a1",), ("a1",)):
            cache.get(key)
        assert cache.stats.lookups == 4
        assert cache.stats.hit_rate == 0.75
        assert cache.stats.bytes_saved == 900  # misses save nothing


NAMES = st.lists(st.sampled_from(["a.mp3", "bb.mp3", "a much longer name.mp3"]), max_size=3)


class LruAgainstReference(RuleBasedStateMachine):
    """Any sequence of gets and puts leaves the cache and
    :class:`oracle.ReferenceLru` holding the same keys in the same use
    order, with the same bytes and the same counters."""

    def __init__(self):
        super().__init__()
        budget = footprint_of("bb.mp3") * 3
        self.cache = QueryResultCache(budget_bytes=budget)
        self.model = ReferenceLru(budget)

    @rule(key=st.sampled_from(["", "a1", "b1", "c1", "d1", "e1"]), names=NAMES)
    def put(self, key, names):
        key = (key,) if key else ()
        stored = self.cache.put(key, names, cost_bytes=len(names) + 1)
        footprint = self.cache.entry_footprint(names)
        assert stored == self.model.put(key, footprint, len(names) + 1)

    @rule(key=st.sampled_from(["a1", "b1", "c1", "d1", "e1"]))
    def get(self, key):
        hit = self.cache.get((key,)) is not None
        assert hit == self.model.get((key,))

    @invariant()
    def same_state(self):
        assert [entry.key for entry in self.cache.entries()] == [e[0] for e in self.model.entries]
        assert self.cache.used_bytes == self.model.used_bytes <= self.cache.budget_bytes
        stats = self.cache.stats
        assert (
            stats.hits, stats.misses, stats.insertions,
            stats.rejections, stats.evictions, stats.bytes_saved,
        ) == (
            self.model.hits, self.model.misses, self.model.insertions,
            self.model.rejections, self.model.evictions, self.model.bytes_saved,
        )


LruAgainstReference.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)
TestLruAgainstReference = LruAgainstReference.TestCase

"""Unit tests for the streaming popularity estimator."""

import pytest

from repro.cache.popularity import (
    PopularityEstimator,
    SlidingWindowCounter,
    SpaceSavingCounter,
    query_key,
)


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


class TestSpaceSaving:
    def test_exact_below_capacity(self):
        counter = SpaceSavingCounter(capacity=10)
        for _ in range(5):
            counter.observe("a")
        counter.observe("b")
        assert counter.estimate("a") == 5
        assert counter.estimate("b") == 1
        assert counter.guaranteed("a") == 5
        assert counter.estimate("zzz") == 0

    def test_eviction_inherits_min_count(self):
        counter = SpaceSavingCounter(capacity=2)
        counter.observe("a", 5)
        counter.observe("b", 2)
        counter.observe("c")  # evicts b (min), inherits its count
        assert "b" not in counter
        assert counter.estimate("c") == 3  # 2 inherited + 1 observed
        assert counter.guaranteed("c") == 1  # error bound holds

    def test_heavy_hitter_survives_noise(self):
        counter = SpaceSavingCounter(capacity=8)
        for index in range(200):
            counter.observe("popular")
            counter.observe(f"noise-{index}")
        top_keys = [key for key, _ in counter.top(1)]
        assert top_keys == ["popular"]
        assert counter.estimate("popular") >= 200

    def test_top_orders_by_estimate(self):
        counter = SpaceSavingCounter(capacity=10)
        counter.observe("a", 3)
        counter.observe("b", 7)
        counter.observe("c", 5)
        assert [key for key, _ in counter.top(2)] == ["b", "c"]

    def test_capacity_bound_enforced(self):
        counter = SpaceSavingCounter(capacity=4)
        for index in range(100):
            counter.observe(f"k{index}")
        assert len(counter) == 4

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            SpaceSavingCounter(capacity=0)
        with pytest.raises(ValueError):
            SpaceSavingCounter(capacity=1).observe("a", count=0)


class TestSlidingWindow:
    def test_recent_counts(self):
        window = SlidingWindowCounter(window=8, buckets=4)
        for _ in range(3):
            window.observe("a")
        assert window.estimate("a") == 3
        assert window.total == 3

    def test_old_observations_age_out(self):
        window = SlidingWindowCounter(window=8, buckets=4)
        window.observe("old")
        for index in range(20):
            window.observe(f"new-{index}")
        assert window.estimate("old") == 0
        assert window.total <= 8 + window.bucket_width

    def test_lifetime_observed_monotone(self):
        window = SlidingWindowCounter(window=4, buckets=2)
        for _ in range(10):
            window.observe("x")
        assert window.observed == 10
        assert window.estimate("x") <= 6  # only the recent window remains


class TestPopularityEstimator:
    def test_combines_views(self):
        estimator = PopularityEstimator(capacity=16, window=8, buckets=4)
        for _ in range(20):
            estimator.observe("hot")
        assert estimator.count("hot") == 20  # long-run view
        assert estimator.recent_count("hot") <= 10  # windowed view
        assert estimator.observed == 20

    def test_frequency_normalised(self):
        estimator = PopularityEstimator(window=100)
        for _ in range(3):
            estimator.observe("a")
        estimator.observe("b")
        assert estimator.frequency("a") == pytest.approx(0.75)
        assert estimator.frequency("missing") == 0.0

    def test_is_popular_threshold(self):
        estimator = PopularityEstimator()
        estimator.observe("once")
        assert not estimator.is_popular("once")
        estimator.observe("once")
        assert estimator.is_popular("once")

    def test_empty_estimator(self):
        estimator = PopularityEstimator()
        assert estimator.frequency("x") == 0.0
        assert estimator.count("x") == 0
        assert estimator.top(3) == []

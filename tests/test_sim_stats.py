"""Unit tests for the counter, the nearest-rank quantile and the
registry that groups counters."""

import random

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.sim.stats import Counter, nearest_rank


def reference_nearest_rank(values, q):
    """The least sample value ``v`` with at least ``q * n`` values at or
    below it (the least value at ``q <= 0``): nearest rank by its
    cumulative-count definition."""
    values = list(values)
    if q <= 0:
        return min(values)
    return min(v for v in values if sum(1 for x in values if x <= v) >= min(q, 1.0) * len(values))


class TestCounter:
    def test_starts_at_zero(self):
        assert Counter("x").value == 0

    def test_add(self):
        counter = Counter("x")
        counter.add()
        counter.add(5)
        assert counter.value == 6

    def test_add_zero_keeps_the_value(self):
        counter = Counter("x", 4)
        counter.add(0)
        assert counter.value == 4


class TestNearestRank:
    def test_quantiles(self):
        values = list(range(100, 0, -1))
        assert nearest_rank(values, 0.5) == 50
        assert nearest_rank(values, 0.99) == 99
        assert nearest_rank(values, 1.0) == 100
        assert nearest_rank(values, 0.0) == 1

    @pytest.mark.parametrize("q", [0.0, 0.05, 0.25, 0.5, 0.75, 0.95, 1.0])
    def test_matches_the_cumulative_count_definition(self, q):
        rng = random.Random(7)
        for size in range(1, 25):
            values = [rng.choice([0.5, 1.0, 2.5, 7.0, 9.75]) * rng.randint(1, 9) for _ in range(size)]
            assert nearest_rank(values, q) == reference_nearest_rank(values, q)

    def test_a_single_value_is_every_quantile(self):
        for q in (0.0, 0.3, 0.5, 1.0):
            assert nearest_rank([4.25], q) == 4.25

    def test_input_order_does_not_matter(self):
        values = [float(v) for v in range(1, 41)]
        shuffled = values[:]
        random.Random(3).shuffle(shuffled)
        for q in (0.1, 0.5, 0.95):
            assert nearest_rank(shuffled, q) == nearest_rank(values, q)

    def test_accepts_any_iterable(self):
        assert nearest_rank((v for v in (3, 1, 2)), 0.5) == 2
        assert nearest_rank((3, 1, 2), 0.5) == 2

    def test_never_interpolates(self):
        assert nearest_rank([1.0, 10.0], 0.5) == 1.0
        assert nearest_rank([1.0, 10.0], 0.51) == 10.0

    def test_q_outside_the_unit_interval_clamps_to_the_sample(self):
        values = [5, 2, 9]
        assert nearest_rank(values, -0.5) == 2
        assert nearest_rank(values, 1.5) == 9

    def test_an_empty_sample_raises(self):
        with pytest.raises(IndexError):
            nearest_rank([], 0.5)


class TestStatsRegistry:
    def test_counter_created_once(self):
        registry = MetricsRegistry()
        registry.counter("a").add(3)
        registry.counter("a").add(2)
        assert registry.counter("a").value == 5

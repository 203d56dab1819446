"""Tests for the Section 6 analytical model equations."""

import math

import pytest

from repro.model.analytical import (
    SystemParameters,
    hybrid_overall_cost,
    hybrid_search_cost,
    pf_gnutella,
    pf_hybrid,
    pf_threshold,
    total_publishing_cost,
)


@pytest.fixture()
def params():
    return SystemParameters(n=10_000, n_horizon=500)


class TestSystemParameters:
    def test_horizon_fraction(self, params):
        assert params.horizon_fraction == 0.05

    def test_search_cost_is_log_n(self, params):
        assert params.search_cost_dht == pytest.approx(math.log2(10_000))

    def test_rejects_bad_horizon(self):
        with pytest.raises(ValueError):
            SystemParameters(n=10, n_horizon=11)

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            SystemParameters(n=0, n_horizon=0)


class TestPfGnutella:
    def test_zero_replicas_never_found(self, params):
        assert pf_gnutella(0, params) == 0.0

    def test_ubiquitous_item_always_found(self, params):
        assert pf_gnutella(10_000, params) == 1.0

    def test_single_replica_equals_horizon_fraction(self, params):
        # Equation (2) with R=1 telescopes to Nh/N exactly.
        assert pf_gnutella(1, params) == pytest.approx(0.05)

    def test_monotone_in_replicas(self, params):
        values = [pf_gnutella(r, params) for r in (1, 2, 5, 20, 100)]
        assert values == sorted(values)

    def test_monotone_in_horizon(self):
        small = SystemParameters(n=10_000, n_horizon=100)
        large = SystemParameters(n=10_000, n_horizon=2_000)
        assert pf_gnutella(3, large) > pf_gnutella(3, small)

    def test_bounded_probability(self, params):
        for replicas in (1, 7, 100, 9_999):
            assert 0.0 <= pf_gnutella(replicas, params) <= 1.0

    def test_without_replacement_beats_independent(self, params):
        """Sampling without replacement finds the item at least as often
        as the independent-miss approximation 1-(1-R/N)^Nh."""
        for replicas in (2, 10, 50):
            independent = 1 - (1 - replicas / params.n) ** params.n_horizon
            assert pf_gnutella(replicas, params) >= independent - 1e-12

    def test_rejects_negative(self, params):
        with pytest.raises(ValueError):
            pf_gnutella(-1, params)


class TestPfHybrid:
    def test_published_item_always_found(self, params):
        assert pf_hybrid(1, pf_dht=1.0, params=params) == 1.0

    def test_unpublished_falls_back_to_gnutella(self, params):
        assert pf_hybrid(5, pf_dht=0.0, params=params) == pf_gnutella(5, params)

    def test_equation_one_structure(self, params):
        pf_g = pf_gnutella(3, params)
        assert pf_hybrid(3, pf_dht=0.5, params=params) == pytest.approx(
            pf_g + (1 - pf_g) * 0.5
        )

    def test_rejects_bad_probability(self, params):
        with pytest.raises(ValueError):
            pf_hybrid(1, pf_dht=1.5, params=params)


class TestPfThreshold:
    def test_threshold_zero_is_horizon_fraction(self, params):
        assert pf_threshold(0, params) == pytest.approx(params.horizon_fraction)

    def test_monotone_with_diminishing_returns(self, params):
        values = [pf_threshold(t, params) for t in range(0, 21)]
        assert values == sorted(values)
        gains = [b - a for a, b in zip(values, values[1:])]
        assert gains[-1] < gains[0]

    def test_rejects_negative(self, params):
        with pytest.raises(ValueError):
            pf_threshold(-1, params)


class TestCosts:
    def test_search_cost_equation_three(self, params):
        # Published rare item: flood cost + miss-probability * DHT cost.
        cost = hybrid_search_cost(1, query_frequency=2.0, pf_dht=1.0, params=params)
        pnf = 1 - pf_gnutella(1, params)
        expected = 2.0 * ((params.n_horizon - 1) + pnf * params.search_cost_dht)
        assert cost == pytest.approx(expected)

    def test_unpublished_item_pays_no_dht_cost(self, params):
        with_dht = hybrid_search_cost(1, 1.0, pf_dht=1.0, params=params)
        without = hybrid_search_cost(1, 1.0, pf_dht=0.0, params=params)
        assert without < with_dht

    def test_overall_cost_equation_four(self, params):
        costs = hybrid_overall_cost(
            1, query_frequency=1.0, pf_dht=1.0, publish_cost=100.0,
            lifetime=10.0, params=params,
        )
        assert costs.overall_cost == pytest.approx(costs.search_cost + 10.0)

    def test_longer_lifetime_amortises_publishing(self, params):
        short = hybrid_overall_cost(1, 1.0, 1.0, 100.0, 1.0, params)
        long = hybrid_overall_cost(1, 1.0, 1.0, 100.0, 100.0, params)
        assert long.overall_cost < short.overall_cost

    def test_rejects_bad_lifetime(self, params):
        with pytest.raises(ValueError):
            hybrid_overall_cost(1, 1.0, 1.0, 100.0, 0.0, params)

    def test_total_publishing_cost_equation_five(self):
        items = [(1.0, 10.0), (0.0, 99.0), (0.5, 4.0)]
        assert total_publishing_cost(items) == pytest.approx(12.0)

"""Unit tests for the long-tail distribution samplers."""

import random

import pytest

from repro.common.zipf import (
    ZipfSampler,
    calibrate_power_law_alpha,
    long_tail_replica_counts,
    sample_power_law_int,
    zipf_weights,
)


class TestZipfWeights:
    def test_first_weight_is_one(self):
        assert zipf_weights(10)[0] == 1.0

    def test_monotone_decreasing(self):
        weights = zipf_weights(50, alpha=1.2)
        assert all(a >= b for a, b in zip(weights, weights[1:]))

    def test_alpha_zero_is_uniform(self):
        assert zipf_weights(5, alpha=0.0) == [1.0] * 5

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            zipf_weights(0)

    def test_rejects_negative_alpha(self):
        with pytest.raises(ValueError):
            zipf_weights(5, alpha=-1)


class TestZipfSampler:
    def test_samples_in_range(self):
        sampler = ZipfSampler(100, rng=random.Random(1))
        for _ in range(1000):
            assert 1 <= sampler.sample() <= 100

    def test_rank_one_most_frequent(self):
        sampler = ZipfSampler(50, alpha=1.0, rng=random.Random(2))
        draws = sampler.sample_many(5000)
        counts = {rank: draws.count(rank) for rank in (1, 10, 40)}
        assert counts[1] > counts[10] > counts[40]

    def test_default_rng_is_deterministic(self):
        """rng=None routes through make_rng: traces regenerate bit-for-bit."""
        a = ZipfSampler(100).sample_many(50)
        b = ZipfSampler(100).sample_many(50)
        assert a == b

    def test_accepts_integer_seed(self):
        assert ZipfSampler(100, rng=7).sample_many(20) == ZipfSampler(
            100, rng=7
        ).sample_many(20)


class TestCalibratePowerLawAlpha:
    def test_hits_target_singleton_fraction(self):
        alpha = calibrate_power_law_alpha(0.23, 500)
        normaliser = sum(r**-alpha for r in range(1, 501))
        assert abs(1.0 / normaliser - 0.23) < 0.001

    def test_higher_fraction_needs_higher_alpha(self):
        low = calibrate_power_law_alpha(0.2, 500)
        high = calibrate_power_law_alpha(0.6, 500)
        assert high > low

    def test_rejects_degenerate_fraction(self):
        with pytest.raises(ValueError):
            calibrate_power_law_alpha(0.0, 500)
        with pytest.raises(ValueError):
            calibrate_power_law_alpha(1.0, 500)
        with pytest.raises(ValueError, match="max_value"):
            calibrate_power_law_alpha(0.5, max_value=1)


class TestLongTailReplicaCounts:
    def test_length(self):
        counts = long_tail_replica_counts(500, rng=random.Random(3))
        assert len(counts) == 500

    def test_sorted_descending(self):
        counts = long_tail_replica_counts(500, rng=random.Random(3))
        assert counts == sorted(counts, reverse=True)

    def test_singleton_fraction_near_target(self):
        counts = long_tail_replica_counts(
            5000, singleton_fraction=0.23, rng=random.Random(4)
        )
        fraction = sum(1 for c in counts if c == 1) / len(counts)
        assert 0.18 < fraction < 0.28

    def test_respects_max_replicas(self):
        counts = long_tail_replica_counts(
            1000, max_replicas=50, rng=random.Random(5)
        )
        assert max(counts) <= 50

    def test_all_positive(self):
        counts = long_tail_replica_counts(200, rng=random.Random(6))
        assert min(counts) >= 1

    def test_rejects_zero_items(self):
        with pytest.raises(ValueError):
            long_tail_replica_counts(0)

    def test_smooth_tail_has_small_counts(self):
        """R=2 and R=3 items must exist (threshold sweeps rely on this)."""
        counts = long_tail_replica_counts(2000, rng=random.Random(7))
        assert 2 in counts
        assert 3 in counts


class TestSamplePowerLawInt:
    def test_within_bounds(self):
        rng = random.Random(8)
        for _ in range(500):
            value = sample_power_law_int(rng, 2, 30, alpha=1.0)
            assert 2 <= value <= 30

    def test_degenerate_range(self):
        assert sample_power_law_int(random.Random(9), 5, 5) == 5

    def test_skews_small(self):
        rng = random.Random(10)
        draws = [sample_power_law_int(rng, 1, 100, alpha=1.5) for _ in range(2000)]
        assert sum(1 for d in draws if d <= 10) > len(draws) / 2

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            sample_power_law_int(random.Random(11), 0, 10)
        with pytest.raises(ValueError):
            sample_power_law_int(random.Random(11), 10, 5)

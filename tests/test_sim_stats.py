"""Unit tests for counters, gauges, histograms and the registry that
groups them."""

import math

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.sim.stats import Counter, Gauge, Histogram


class TestCounter:
    def test_starts_at_zero(self):
        assert Counter("x").value == 0

    def test_add(self):
        counter = Counter("x")
        counter.add()
        counter.add(5)
        assert counter.value == 6


class TestHistogram:
    def test_mean(self):
        hist = Histogram("lat")
        hist.extend([1.0, 2.0, 3.0])
        assert hist.mean == 2.0

    def test_empty_mean_is_nan(self):
        assert math.isnan(Histogram("x").mean)

    def test_min_max(self):
        hist = Histogram("x")
        hist.extend([5.0, 1.0, 3.0])
        assert hist.minimum == 1.0
        assert hist.maximum == 5.0

    def test_quantiles(self):
        hist = Histogram("x")
        hist.extend(list(range(1, 101)))
        assert hist.quantile(0.5) == 50
        assert hist.quantile(0.99) == 99
        assert hist.quantile(1.0) == 100
        assert hist.quantile(0.0) == 1

    def test_quantile_rejects_out_of_range(self):
        hist = Histogram("x")
        hist.observe(1.0)
        with pytest.raises(ValueError):
            hist.quantile(1.5)

    def test_quantile_of_nothing_is_nan(self):
        assert math.isnan(Histogram("x").quantile(0.5))

    def test_len_and_count(self):
        hist = Histogram("x")
        hist.extend([1.0, 2.0])
        assert len(hist) == 2
        assert hist.count == 2


class TestGauge:
    def test_set_and_add(self):
        gauge = Gauge("depth")
        gauge.set(5.0)
        gauge.add(2.0)
        gauge.add(-3.0)
        assert gauge.value == 4.0


class TestReservoirHistogram:
    def test_under_capacity_is_exact(self):
        hist = Histogram("lat", reservoir_size=100)
        hist.extend([float(v) for v in range(50)])
        assert sorted(hist.samples) == [float(v) for v in range(50)]
        assert hist.quantile(0.5) == 24.0

    def test_retention_bounded_but_count_exact(self):
        hist = Histogram("lat", reservoir_size=64)
        hist.extend([float(v) for v in range(10_000)])
        assert len(hist.samples) == 64
        assert hist.count == 10_000
        assert hist.total == sum(range(10_000))
        assert hist.minimum == 0.0 and hist.maximum == 9999.0
        assert hist.mean == pytest.approx(4999.5)

    def test_fills_in_arrival_order_then_holds_its_size(self):
        hist = Histogram("lat", reservoir_size=8, seed=1)
        for value in range(8):
            hist.observe(float(value))
        assert hist.samples == [float(v) for v in range(8)]
        for value in range(8, 200):
            hist.observe(float(value))
            assert len(hist.samples) == 8
        assert hist.count == 200

    def test_seeded_reservoir_is_deterministic(self):
        def build(seed):
            hist = Histogram("lat", reservoir_size=32, seed=seed)
            hist.extend([float(v) for v in range(5_000)])
            return list(hist.samples)

        assert build(seed=7) == build(seed=7)
        assert build(seed=7) != build(seed=8)

    def test_reservoir_quantiles_approximate_truth(self):
        hist = Histogram("lat", reservoir_size=512, seed=3)
        hist.extend([float(v) for v in range(20_000)])
        # Uniform stream: the reservoir median should land near 10k.
        assert hist.quantile(0.5) == pytest.approx(10_000, rel=0.15)

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            Histogram("lat", reservoir_size=0)

    def test_full_retention_mode_unchanged(self):
        hist = Histogram("lat")
        hist.extend([float(v) for v in range(1_000)])
        assert len(hist.samples) == 1_000


class TestStatsRegistry:
    def test_counter_created_once(self):
        registry = MetricsRegistry()
        registry.counter("a").add(3)
        registry.counter("a").add(2)
        assert registry.counter("a").value == 5

    def test_summary_contains_all(self):
        registry = MetricsRegistry()
        registry.counter("msgs").add(7)
        registry.histogram("lat").observe(1.5)
        summary = registry.summary()
        assert summary["msgs"] == 7
        assert summary["lat.mean"] == 1.5
        assert summary["lat.count"] == 1

    def test_gauge_created_once_and_summarised(self):
        registry = MetricsRegistry()
        registry.gauge("depth").set(4.0)
        registry.gauge("depth").add(1.0)
        assert registry.gauge("depth").value == 5.0
        assert registry.summary()["depth"] == 5.0

    def test_histogram_reservoir_args_apply_on_creation(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat", reservoir_size=16, seed=9)
        assert registry.histogram("lat") is hist
        assert hist.reservoir_size == 16

"""Tests for experiment configuration, caching and result tables."""

import pytest
from hypothesis import given, strategies as st

from repro.experiments.common import (
    ExperimentResult,
    PAPER_SCALE,
    SMALL_SCALE,
    get_campaign,
    get_library,
    get_network,
    get_workload,
    quantile,
)


class TestScales:
    def test_scales_distinct(self):
        assert SMALL_SCALE.name != PAPER_SCALE.name
        assert SMALL_SCALE.num_items < PAPER_SCALE.num_items

    def test_paper_scale_matches_calibration(self):
        # These values were calibrated against the paper's summary stats
        # (23% singletons); changing them silently would invalidate it.
        assert PAPER_SCALE.num_ultrapeers == 2000
        assert PAPER_SCALE.max_ttl == 4


class TestCaching:
    def test_library_cached(self):
        assert get_library(SMALL_SCALE) is get_library(SMALL_SCALE)

    def test_network_cached_and_bound_to_library(self):
        network = get_network(SMALL_SCALE)
        assert network is get_network(SMALL_SCALE)
        assert len(network.placement.replicas_by_filename) == SMALL_SCALE.num_items

    def test_workload_size(self):
        assert len(get_workload(SMALL_SCALE)) == SMALL_SCALE.num_queries

    def test_campaign_dimensions(self):
        campaign = get_campaign(SMALL_SCALE)
        assert len(campaign.replays) == SMALL_SCALE.num_queries
        assert len(campaign.vantages) == 30


class TestExperimentResult:
    def make_result(self):
        return ExperimentResult(
            experiment_id="figXX",
            title="A test table",
            columns=["x", "y"],
            rows=[(1, 2.5), (2, 3.25)],
            notes="note text",
        )

    def test_format_contains_everything(self):
        text = self.make_result().format_table()
        assert "figXX" in text
        assert "A test table" in text
        assert "note text" in text
        assert "2.500" in text

    def test_column_accessor(self):
        result = self.make_result()
        assert result.column("x") == [1, 2]
        assert result.column("y") == [2.5, 3.25]

    def test_format_handles_large_floats(self):
        result = ExperimentResult("id", "t", ["v"], [(12345.678,)])
        assert "12345.7" in result.format_table()

    def test_format_empty_rows(self):
        result = ExperimentResult("id", "t", ["v"], [])
        assert "id" in result.format_table()


class TestQuantile:
    """The latency percentiles fig07 and fig12 print."""

    def test_interpolates_between_neighbours(self):
        assert quantile([1.0, 2.0, 3.0, 4.0], 0.5) == pytest.approx(2.5)
        assert quantile([0.0, 10.0], 0.25) == pytest.approx(2.5)

    def test_reads_the_sample_sorted(self):
        assert quantile([4.0, 1.0, 3.0, 2.0], 1 / 3) == pytest.approx(2.0)

    def test_endpoints_are_min_and_max(self):
        values = [7.0, 3.0, 9.0, 5.0]
        assert quantile(values, 0.0) == 3.0
        assert quantile(values, 1.0) == 9.0

    def test_one_sample_is_every_quantile(self):
        for q in (0.0, 0.5, 1.0):
            assert quantile([42.0], q) == 42.0

    def test_rejects_an_empty_sample(self):
        with pytest.raises(ValueError, match="empty"):
            quantile([], 0.5)

    @pytest.mark.parametrize("q", [-0.01, 1.01])
    def test_rejects_q_outside_the_unit_interval(self, q):
        with pytest.raises(ValueError, match=r"\[0,1\]"):
            quantile([1.0, 2.0], q)

    @given(
        values=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40),
        q1=st.floats(0.0, 1.0),
        q2=st.floats(0.0, 1.0),
    )
    def test_monotone_in_q_and_within_the_sample(self, values, q1, q2):
        """Up to the rounding of ``a*(1-f) + b*f`` (an ulp or so)."""
        low, high = sorted((q1, q2))
        slack = 1e-12 * max(1.0, max(map(abs, values)))
        at_low, at_high = quantile(values, low), quantile(values, high)
        assert min(values) - slack <= at_low <= at_high + slack
        assert at_high <= max(values) + slack


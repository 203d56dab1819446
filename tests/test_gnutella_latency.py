"""Tests for the first-result latency model and its calibration."""

import math

import pytest

from repro.gnutella.dynamic import dynamic_query
from repro.gnutella.index import UltrapeerIndex
from repro.gnutella.latency import GnutellaLatencyModel
from repro.workload.library import SharedFile

from tests.test_gnutella_flooding import index_with, line_topology


@pytest.fixture()
def model():
    return GnutellaLatencyModel()


class TestRoundArithmetic:
    def test_first_round_starts_after_overhead(self, model):
        topo = line_topology(4)
        result = dynamic_query(topo, {}, 0, ["x"], desired_results=1, max_ttl=2)
        assert model.round_start(result, 0) == 2.0

    def test_round_starts_accumulate(self, model):
        topo = line_topology(6)
        result = dynamic_query(topo, {}, 0, ["x"], desired_results=1, max_ttl=3)
        # round 1 (ttl=1) lasts 2*1*2.5 + 8 = 13; round 2 (ttl=2): 2*2*2.5 + 8 = 18.
        assert model.round_start(result, 1) == 15.0
        assert model.round_start(result, 2) == 33.0

    def test_first_result_latency_depth_one(self, model):
        topo = line_topology(4)
        indexes = index_with({1: ["rare hit.mp3"]})
        result = dynamic_query(topo, indexes, 0, ["rare"], desired_results=1)
        assert model.first_result_latency(result) == 7.0  # 2 + 2*1*2.5

    def test_deeper_results_arrive_later(self, model):
        topo = line_topology(8)
        shallow = dynamic_query(
            topo, index_with({1: ["rare.mp3"]}), 0, ["rare"], desired_results=1
        )
        deep = dynamic_query(
            topo, index_with({5: ["rare.mp3"]}), 0, ["rare"], desired_results=1
        )
        assert model.first_result_latency(deep) > model.first_result_latency(shallow)

    def test_no_results_is_infinite(self, model):
        topo = line_topology(3)
        result = dynamic_query(topo, {}, 0, ["absent"], desired_results=1, max_ttl=2)
        assert math.isinf(model.first_result_latency(result))


class TestClosedFormEquivalence:
    def test_matches_full_simulation(self, model):
        """arrival_for_depth must equal the simulated dynamic query's value."""
        for depth in (1, 2, 3, 4):
            topo = line_topology(8)
            indexes = index_with({depth: ["rare hit.mp3"]})
            result = dynamic_query(
                topo, indexes, 0, ["rare"], desired_results=1, max_ttl=6
            )
            simulated = model.first_result_latency(result)
            closed = model.arrival_for_depth(depth, 6)
            assert simulated == pytest.approx(closed)

    def test_beyond_max_ttl_is_infinite(self, model):
        assert math.isinf(model.arrival_for_depth(5, 4))

    def test_depth_zero_treated_as_one(self, model):
        assert model.arrival_for_depth(0, 4) == pytest.approx(
            model.arrival_for_depth(1, 4)
        )


class TestDefaultCalibration:
    def test_popular_item_fast(self):
        """Default constants: depth-1 items in ~6-8 s (paper: ~6 s)."""
        latency = GnutellaLatencyModel().arrival_for_depth(1, 4)
        assert 4.0 <= latency <= 10.0

    def test_rare_item_slow(self):
        """Default constants: depth-4 items around ~70 s (paper: 73 s)."""
        latency = GnutellaLatencyModel().arrival_for_depth(4, 4)
        assert 55.0 <= latency <= 90.0

"""Tests for the first-result latency model and its calibration."""

import math

import pytest

from oracle import reference_dynamic_query
from repro.gnutella.latency import GnutellaLatencyModel

from tests.test_gnutella_flooding import line_topology, placement_of


@pytest.fixture()
def model():
    return GnutellaLatencyModel()


class TestRoundArithmetic:
    """The TTL-``d`` round starts after the overhead and each shallower
    round's trip out and back plus its pause: 2, 15 and 33 s for TTL 1,
    2 and 3 under the default constants."""

    def test_first_round_starts_after_overhead(self, model):
        # A depth-1 answer arrives one round trip after the round starts.
        assert model.arrival_for_depth(1, 2) - 2 * model.hop_time == 2.0

    def test_round_starts_accumulate(self, model):
        # round 1 (ttl=1) lasts 2*1*2.5 + 8 = 13; round 2 (ttl=2): 2*2*2.5 + 8 = 18.
        assert model.arrival_for_depth(2, 3) - 4 * model.hop_time == 15.0
        assert model.arrival_for_depth(3, 3) - 6 * model.hop_time == 33.0

    def test_first_result_latency_depth_one(self, model):
        assert model.arrival_for_depth(1, 7) == 7.0  # 2 + 2*1*2.5

    def test_deeper_results_arrive_later(self, model):
        arrivals = [model.arrival_for_depth(depth, 7) for depth in range(1, 8)]
        assert arrivals == sorted(set(arrivals))

    def test_no_results_is_infinite(self, model):
        assert math.isinf(model.arrival_for_depth(math.inf, 2))


class TestClosedFormEquivalence:
    def test_matches_full_simulation(self, model):
        """arrival_for_depth equals the first arrival of the reference
        query that floods round by round."""
        for depth in (0, 1, 2, 3, 4):
            topo = line_topology(8)
            placement = placement_of({depth: ["rare hit.mp3"]})
            _, _, first_arrival, _ = reference_dynamic_query(
                topo, placement, 0, ["rare"], 1, 6, model
            )
            assert first_arrival == model.arrival_for_depth(depth, 6)

    def test_beyond_max_ttl_is_infinite(self, model):
        assert math.isinf(model.arrival_for_depth(5, 4))

    def test_fractional_depth_rounds_down_within_the_limit(self, model):
        """A depth is a hop count; a float one (replica depths are floats,
        ``inf`` for none) reads as its whole hops, and the limit applies
        to the value itself."""
        assert model.arrival_for_depth(2.0, 4) == model.arrival_for_depth(2, 4)
        assert model.arrival_for_depth(2.5, 4) == model.arrival_for_depth(2, 4)
        assert math.isinf(model.arrival_for_depth(4.5, 4))

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

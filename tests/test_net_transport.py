"""Unit tests for the repro.net transport boundary.

The in-process backend must charge exactly what its callers price, and
draw overlay-hop latencies exactly as ``random.uniform`` one hop at a
time would — these tests pin the charge primitive, the batched draw and
the lookahead helper the sharded kernel depends on.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.units import BandwidthMeter, CostModel
from repro.gnutella.flooding import FLOOD_CATEGORY, flood
from repro.net import FaultInjectingTransport, InProcessTransport

from oracle import reference_hop_delay


@pytest.fixture
def transport() -> InProcessTransport:
    return InProcessTransport(BandwidthMeter(), CostModel())


def test_charge_passthrough_hits_meter(transport):
    transport.charge("custom", 5, 123)
    assert transport.meter.messages == 5
    assert transport.meter.bytes == 123
    assert transport.meter.by_category["custom"].messages == 5


def test_charges_accumulate_on_shared_meter(transport):
    transport.charge("a", 2, 100)
    transport.charge("b", 2, 140)
    transport.charge("a", 1, 10)
    assert transport.meter.messages == 5
    assert transport.meter.bytes == 250
    assert transport.meter.by_category["a"].bytes == 110


def test_flood_charges_one_framed_message_per_forwarded_edge(transport):
    # A triangle: from 0, hop 1 sends 0->1 and 0->2, hop 2 sends the two
    # duplicates 1->2 and 2->1 (each forwards to every neighbour but its
    # parent), and nothing new is reached, so the flood stops there.
    class Triangle:
        neighbors = {0: [1, 2], 1: [0, 2], 2: [0, 1]}

    result = flood(Triangle(), {}, 0, ["x"], ttl=3, transport=transport, payload_bytes=30)
    assert result.messages == 4
    charged = transport.meter.by_category[FLOOD_CATEGORY]
    assert (charged.messages, charged.bytes) == (4, 4 * transport.cost_model.message_bytes(30))


def test_hop_delays_matches_inline_uniform_draws(transport):
    """Transport draws must replay the exact pre-boundary RNG sequence."""
    mean, jitter = 0.05, 0.2
    a, b = random.Random(42), random.Random(42)
    for _ in range(100):
        expected = a.uniform(mean * (1 - jitter), mean * (1 + jitter))
        assert transport.hop_delays(b, mean, jitter, 1) == expected


def test_hop_delay_zero_jitter_is_deterministic_and_burns_no_rng(transport):
    rng = random.Random(7)
    state = rng.getstate()
    assert reference_hop_delay(rng, 0.08, 0.0) == 0.08
    assert transport.hop_delays(rng, 0.08, 0.0, 3) == 0.08 + 0.08 + 0.08
    assert rng.getstate() == state


def test_min_hop_delay_bounds_draws(transport):
    rng = random.Random(3)
    mean, jitter = 0.05, 0.3
    floor = transport.min_hop_delay(mean, jitter)
    assert floor == pytest.approx(mean * (1 - jitter))
    for _ in range(500):
        assert transport.hop_delays(rng, mean, jitter, 1) >= floor
    # negative jitter never raises the floor above the mean
    assert transport.min_hop_delay(mean, -1.0) == mean


@given(
    seed=st.integers(0, 2**32 - 1),
    mean=st.floats(0.01, 10.0),
    jitter=st.one_of(st.floats(-1.0, 0.0), st.floats(0.01, 0.99)),
    hops=st.integers(0, 12),
    multiplier=st.floats(1.0, 8.0),
)
@settings(max_examples=300, deadline=None)
def test_hop_delays_equals_a_left_to_right_sum_of_single_draws(
    seed, mean, jitter, hops, multiplier
):
    inner = InProcessTransport(BandwidthMeter(), CostModel())
    batched, twin = random.Random(seed), random.Random(seed)
    expected = 0.0
    for _ in range(hops):
        expected += reference_hop_delay(twin, mean, jitter)
    assert inner.hop_delays(batched, mean, jitter, hops) == expected
    assert batched.getstate() == twin.getstate()

    faulty = FaultInjectingTransport(inner)
    faulty.set_delay_multiplier(multiplier)
    degraded = 0 if multiplier == 1.0 else hops
    stretched = 0.0
    for _ in range(hops):
        stretched += reference_hop_delay(twin, mean, jitter) * multiplier
    assert faulty.hop_delays(batched, mean, jitter, hops) == stretched
    assert batched.getstate() == twin.getstate()
    assert faulty.degraded_draws == degraded


def test_a_fault_wrapper_refuses_to_shrink_hop_delays(transport):
    faulty = FaultInjectingTransport(transport)
    with pytest.raises(ValueError, match=">= 1"):
        faulty.set_delay_multiplier(0.5)
    assert faulty.delay_multiplier == 1.0


def test_a_fault_wrapper_charges_and_prices_through_its_inner_transport(transport):
    faulty = FaultInjectingTransport(transport)
    faulty.charge("dht.get", 2, 300)
    assert faulty.meter is transport.meter
    assert transport.meter.by_category["dht.get"].bytes == 300
    assert faulty.cost_model is transport.cost_model
    faulty.set_delay_multiplier(4.0)
    assert faulty.min_hop_delay(0.1, 0.05) == transport.min_hop_delay(0.1, 0.05)

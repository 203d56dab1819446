"""Unit tests for the repro.net transport boundary.

The in-process backend must charge exactly what its callers price, and
draw overlay-hop latencies exactly as ``random.uniform`` one hop at a
time would — these tests pin the charge primitive, the batched draw and
the steady-hop fake other tests time their hops with.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.units import BandwidthMeter, CostModel
from repro.dht.network import DhtNetwork
from repro.net import FaultInjectingTransport, InProcessTransport
from repro.net.transport import HOP_JITTER, HOP_LATENCY

from oracle import reference_hop_delay, steady_hops


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


def test_hop_delays_matches_inline_uniform_draws(transport):
    """Transport draws must replay the exact pre-boundary RNG sequence."""
    a, b = random.Random(42), random.Random(42)
    for _ in range(100):
        expected = a.uniform(HOP_LATENCY * (1 - HOP_JITTER), HOP_LATENCY * (1 + HOP_JITTER))
        assert transport.hop_delays(b, 1) == expected


def test_a_steady_hop_transport_adds_its_hop_left_to_right_and_burns_no_rng():
    """The fake tests install for exact virtual times: every hop takes
    ``hop``, summed left to right from ``0.0``, and no RNG state moves."""
    network = steady_hops(DhtNetwork(rng=1), hop=0.08)
    rng = random.Random(7)
    state = rng.getstate()
    for hops in range(8):
        expected = 0.0
        for _ in range(hops):
            expected += 0.08
        assert network.transport.hop_delays(rng, hops) == expected
    assert network.transport.hop_delays(rng, 3) == 0.08 + 0.08 + 0.08
    assert rng.getstate() == state


@given(
    seed=st.integers(0, 2**32 - 1),
    hops=st.integers(0, 12),
    multiplier=st.floats(1.0, 8.0),
)
@settings(max_examples=300, deadline=None)
def test_hop_delays_equals_a_left_to_right_sum_of_single_draws(seed, hops, multiplier):
    inner = InProcessTransport(BandwidthMeter(), CostModel())
    batched, twin = random.Random(seed), random.Random(seed)
    expected = 0.0
    for _ in range(hops):
        expected += reference_hop_delay(twin)
    assert inner.hop_delays(batched, hops) == expected
    assert batched.getstate() == twin.getstate()

    faulty = FaultInjectingTransport(inner)
    faulty.set_delay_multiplier(multiplier)
    degraded = 0 if multiplier == 1.0 else hops
    stretched = 0.0
    for _ in range(hops):
        stretched += reference_hop_delay(twin) * multiplier
    assert faulty.hop_delays(batched, hops) == stretched
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

"""The transport boundary: where bytes and latency cross node lines.

Every subsystem that used to poke the bandwidth meter (or draw per-hop
latencies) inline now funnels through a :class:`Transport`:

* :class:`~repro.dht.network.DhtNetwork` delivers its routed gets, key
  handoffs, and exchange batch shipments here, and charges each put
  batch's routed and replica-copy costs here once per category;
* the PIER dataflow charges its dissemination and answer legs here and
  draws its per-hop batch latencies from :meth:`Transport.hop_delay`;
* Gnutella flooding can deliver each forward edge as a
  :class:`~repro.net.messages.FloodMessage`.

The point of the indirection is that *parallelism and distribution become
configuration*: the in-process backend below reproduces today's inline
accounting byte-for-byte (pinned by the golden stats digests), while a
sharded kernel or a real-network backend only needs to swap the transport
— no engine rewrites. The sharded simulator's conservative-lookahead
synchronization (:mod:`repro.sim.shard`) leans on the same boundary: the
minimum value :meth:`hop_delay` can return is the lookahead window.
"""

from __future__ import annotations

import random

from repro.common.units import BandwidthMeter, CostModel
from repro.net.messages import (
    Delivery,
    DirectMessage,
    FloodMessage,
    NetMessage,
    RoutedMessage,
)


def draw_hop_delay(rng: random.Random, mean: float, jitter: float) -> float:
    """One per-hop latency draw: ``U[mean*(1-j), mean*(1+j)]``.

    The single source of truth for overlay hop timing — the hybrid
    engine's walk steps and the dataflow's batch transits draw from this
    exact distribution, so the two layers cannot silently diverge. With
    ``jitter <= 0`` the draw is deterministic and costs no RNG state,
    which also gives the minimum possible value ``mean * (1 - jitter)``
    used as the sharded kernel's conservative lookahead.
    """
    if jitter <= 0:
        return mean
    return rng.uniform(mean * (1 - jitter), mean * (1 + jitter))


class Transport:
    """Interface: deliver typed messages, charging a wire-cost model.

    ``deliver`` assesses and charges the wire cost of one typed message;
    ``charge`` is the low-level primitive behind it, exposed for call
    sites that already computed their exact cost (the dataflow's plan
    dissemination and Item fetches, whose request and response legs do
    not reduce to one message shape).
    """

    def deliver(self, message: NetMessage) -> Delivery:
        raise NotImplementedError

    def charge(self, category: str, messages: int, byte_count: int) -> None:
        raise NotImplementedError

    def hop_delay(self, rng: random.Random, mean: float, jitter: float) -> float:
        """Draw one overlay-hop latency (see :func:`draw_hop_delay`)."""
        return draw_hop_delay(rng, mean, jitter)

    def min_hop_delay(self, mean: float, jitter: float) -> float:
        """Smallest latency :meth:`hop_delay` can return — the safe
        conservative-lookahead horizon for cross-shard synchronization."""
        return mean * (1 - max(0.0, jitter))


class InProcessTransport(Transport):
    """The in-process backend: same-address-space delivery.

    Behavior-identical to the pre-boundary inline code: each delivery
    charges the bound :class:`BandwidthMeter` exactly what the caller
    used to charge directly, and nothing else happens — state mutation
    stays with the caller, which already holds the destination object.
    """

    def __init__(self, meter: BandwidthMeter, cost_model: CostModel):
        self.meter = meter
        self.cost_model = cost_model

    def deliver(self, message: NetMessage) -> Delivery:
        if isinstance(message, RoutedMessage):
            messages = max(1, message.hops)
            byte_count = self.cost_model.routed_bytes(
                message.payload_bytes, message.hops
            )
        elif isinstance(message, DirectMessage):
            messages = message.copies
            byte_count = messages * self.cost_model.message_bytes(
                message.payload_bytes
            )
        elif isinstance(message, FloodMessage):
            messages = 1
            byte_count = self.cost_model.message_bytes(message.payload_bytes)
        else:
            raise TypeError(f"unknown message type {type(message).__name__}")
        self.meter.charge(message.category, messages, byte_count)
        return Delivery(messages=messages, bytes=byte_count)

    def charge(self, category: str, messages: int, byte_count: int) -> None:
        self.meter.charge(category, messages, byte_count)

"""The transport boundary: where bytes and latency cross node lines.

Every subsystem that used to poke the bandwidth meter (or draw per-hop
latencies) inline now funnels through a :class:`Transport`. The
transport takes no typed messages: a caller prices its own traffic with
the shared :class:`~repro.common.units.CostModel` (``routed_bytes`` for a
DHT-routed payload, ``message_bytes`` per direct message) and
hands the total to :meth:`Transport.charge`, one call per batch:

* :class:`~repro.dht.network.DhtNetwork` charges its routed gets, key
  handoffs and exchange batch shipments here, and each put batch's
  routed and replica-copy costs once per category;
* the PIER dataflow charges its dissemination and answer legs here and
  draws a batch's per-hop latencies, all of them in one
  :meth:`Transport.hop_delays` call.

A Gnutella flood counts its messages in its ``FloodResult`` and charges
no transport.

The point of the indirection is that *parallelism and distribution become
configuration*: the in-process backend below reproduces today's inline
accounting byte-for-byte (pinned by the golden stats digests), while a
sharded kernel or a real-network backend only needs to swap the transport
— no engine rewrites. Hop timing belongs to the transport too: every
overlay hop, whoever takes it, is one draw from ``U[HOP_LATENCY*(1-j),
HOP_LATENCY*(1+j)]`` with ``j = HOP_JITTER``.
"""

from __future__ import annotations

import random

from repro.common.units import BandwidthMeter, CostModel

#: mean one-way latency of one DHT overlay hop (virtual seconds)
HOP_LATENCY = 1.2
#: fractional spread of each hop draw around :data:`HOP_LATENCY`
HOP_JITTER = 0.35


class Transport:
    """Interface: charge wire costs and time overlay hops.

    A backend exposes the ``meter`` it charges and the ``cost_model``
    callers price their traffic with.
    """

    def charge(self, category: str, messages: int, byte_count: int) -> None:
        raise NotImplementedError

    def hop_delays(self, rng: random.Random, hops: int) -> float:
        """Virtual seconds ``hops`` overlay hops take, in one call: the
        sum of ``hops`` draws from ``U[HOP_LATENCY*(1-HOP_JITTER),
        HOP_LATENCY*(1+HOP_JITTER)]``.

        The one source of overlay hop timing: the hybrid engine's walk
        steps and the dataflow's batch transits both draw here. Each draw
        is ``low + span * rng.random()``, which is what ``random.uniform``
        computes (3.10–3.12), so the RNG stream and every draw are
        bit-identical to ``hops`` ``random.uniform`` calls. The sum is
        added left to right from ``0.0``: Python 3.12's float ``sum()``
        compensates its rounding (Neumaier) and 3.10/3.11's does not, so
        summing with ``sum()`` made virtual times, and every digest built
        on them, differ between interpreters.
        """
        low = HOP_LATENCY * (1 - HOP_JITTER)
        span = HOP_LATENCY * (1 + HOP_JITTER) - low
        total = 0.0
        draw = rng.random
        for _ in range(hops):
            total += low + span * draw()
        return total


class InProcessTransport(Transport):
    """The in-process backend: same-address-space delivery.

    Behavior-identical to the pre-boundary inline code: each charge lands
    on the bound :class:`BandwidthMeter` exactly as the caller used to
    charge it directly, and nothing else happens — state mutation stays
    with the caller, which already holds the destination object.
    """

    def __init__(self, meter: BandwidthMeter, cost_model: CostModel):
        self.meter = meter
        self.cost_model = cost_model

    def charge(self, category: str, messages: int, byte_count: int) -> None:
        self.meter.charge(category, messages, byte_count)

"""Churn driver for the DHT.

P2P networks see continuous node arrival and departure ("churn"); the
Bamboo DHT the paper deploys on was designed specifically to handle it
[Rhea et al. 2004]. This driver applies join/leave events to a
:class:`~repro.dht.network.DhtNetwork` either in bulk (for trace-style
experiments) or scheduled on a simulator clock.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.common.ids import KEY_BITS
from repro.common.rng import make_rng
from repro.dht.network import DhtNetwork
from repro.sim.engine import Simulator


@dataclass
class ChurnStats:
    joins: int = 0
    leaves: int = 0
    failures: int = 0


class ChurnProcess:
    """Applies churn to a DHT network.

    ``failure_fraction`` of departures are abrupt failures (no key
    handoff); the rest are graceful leaves.
    """

    def __init__(
        self,
        network: DhtNetwork,
        rng: random.Random | int | None = None,
        failure_fraction: float = 0.5,
    ):
        if not 0.0 <= failure_fraction <= 1.0:
            raise ValueError(f"failure_fraction must be in [0,1], got {failure_fraction}")
        self.network = network
        self.rng = make_rng(rng)
        self.failure_fraction = failure_fraction
        self.stats = ChurnStats()

    def churn_step(self, joins: int = 1, leaves: int = 1, stabilize: bool = True) -> None:
        """Apply ``joins`` arrivals and ``leaves`` departures, then stabilize.

        With ``stabilize=False`` the survivors keep their now-stale routing
        tables (fingers naming departed nodes) until someone stabilizes —
        the regime in-flight hop-by-hop lookups must route around via
        successor-list recovery.

        Victims and joiner ids are drawn from this process's own RNG,
        never the network's, so whatever else draws from the network
        (a query engine re-picking a departed origin) cannot change which
        nodes churn removes or adds.
        """
        for _ in range(leaves):
            if self.network.size <= 1:
                break
            victim = self.rng.choice(self.network.member_ids())
            graceful = self.rng.random() >= self.failure_fraction
            self.network.remove_node(victim, graceful=graceful)
            if graceful:
                self.stats.leaves += 1
            else:
                self.stats.failures += 1
        for _ in range(joins):
            node_id = self.rng.getrandbits(KEY_BITS)
            while node_id in self.network.nodes:
                node_id = self.rng.getrandbits(KEY_BITS)
            self.network.create_node(node_id)
            self.stats.joins += 1
        if stabilize:
            self.network.stabilize()

    def regional_leave(
        self,
        count: int,
        failure_fraction: float | None = None,
    ) -> list[tuple[int, bool]]:
        """Correlated regional failure: a contiguous ring arc departs at once.

        ``count`` ring-adjacent nodes (starting at a seeded random
        position) leave in the same step; ``failure_fraction`` of them fail
        abruptly (defaults to this process's fraction), the rest leave
        gracefully; then the survivors stabilize. At least one node always
        survives. Returns ``(node_id, graceful)`` per victim, in ring order.

        Victims are removed in *reverse* ring order, so every graceful
        leave hands its keys directly to the arc's surviving successor —
        each handed-off key is released exactly once. Removing in forward
        ring order would instead cascade keys victim-to-victim (each key
        re-handed and re-charged at every subsequent removal), and a
        single abrupt failure late in the arc would silently swallow every
        graceful neighbour's keys handed to it earlier in the same step.
        """
        if count <= 0:
            return []
        ring = self.network.member_ids()
        count = min(count, len(ring) - 1)
        if count <= 0:
            return []
        start = self.rng.randrange(len(ring))
        fraction = (
            self.failure_fraction if failure_fraction is None else failure_fraction
        )
        victims = [
            (ring[(start + i) % len(ring)], self.rng.random() >= fraction)
            for i in range(count)
        ]
        for victim, graceful in reversed(victims):
            self.network.remove_node(victim, graceful=graceful)
            if graceful:
                self.stats.leaves += 1
            else:
                self.stats.failures += 1
        self.network.stabilize()
        return victims

    def schedule(
        self,
        sim: Simulator,
        interval: float,
        steps: int,
        stabilize: bool = True,
    ) -> None:
        """Schedule periodic churn steps, one join and one leave each, on a
        simulator clock.

        Interleaved with an event-driven query workload this is *churn
        during queries*: departures land between the hop events of
        in-flight lookups.
        """
        for step in range(1, steps + 1):
            sim.schedule(interval * step, lambda: self.churn_step(stabilize=stabilize))

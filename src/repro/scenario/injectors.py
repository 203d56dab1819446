"""Fault injectors: scenario events acting through existing surfaces.

Injectors never reach into subsystem internals. Uniform churn drives
:meth:`ChurnProcess.churn_step`, the correlated regional failure drives
:meth:`ChurnProcess.regional_leave` (exactly-once handoff semantics),
and the partition acts at the membership boundary
(``remove_node``/``create_node``/``put_local``/``stored_items``) plus
the transport boundary (:class:`FaultInjectingTransport` delay
stretching) — the same surfaces every other caller uses.
"""

from __future__ import annotations

import random

from repro.dht.churn import ChurnProcess
from repro.dht.network import DhtNetwork
from repro.net.faults import FaultInjectingTransport


class RegionalFailureInjector:
    """A contiguous ring arc departs at once (correlated failure).

    With ``failure_fraction=1.0`` every victim fails abruptly: primary
    copies *and* their ring-successor replicas die together wherever the
    replica chain lies inside the arc — the data-loss mode that uniform
    churn, with its independent single failures, never produces against
    ``replication >= 2``. Abrupt victims leave suspect ranges behind, so
    reads into the lost slices surface as degraded, never as silent
    absence.
    """

    def __init__(
        self,
        churn: ChurnProcess,
        fraction: float,
        failure_fraction: float = 1.0,
    ):
        self.churn = churn
        self.fraction = fraction
        self.failure_fraction = failure_fraction
        #: ``(node_id, graceful)`` per victim of the last firing
        self.victims: list[tuple[int, bool]] = []

    def fire(self) -> None:
        network = self.churn.network
        count = max(1, int(network.size * self.fraction))
        self.victims = self.churn.regional_leave(
            count, failure_fraction=self.failure_fraction
        )


class PartitionInjector:
    """Severs a contiguous minority arc, then heals it with its data.

    ``partition()`` snapshots every arc member's local store, removes
    the members abruptly (no handoff — they did not leave, the link
    did), and stretches survivor-side hop delays by the configured
    multiplier. The majority keeps running: stale fingers route at dead
    nodes exactly as under a real partition, re-query walks repair
    through successor lists, and reads into the severed slices come
    back *degraded* (suspect ranges) rather than silently empty.

    ``heal()`` restores the undisturbed link, rejoins the same node ids
    (Chord join handoff returns whatever the majority accumulated for
    their intervals), puts each snapshot back through the public
    local-store boundary, and repairs the suspect ranges — after which
    reads are whole again.
    """

    def __init__(
        self,
        network: DhtNetwork,
        transport: FaultInjectingTransport,
        rng: random.Random,
        fraction: float = 0.25,
        delay_multiplier: float = 1.0,
    ):
        self.network = network
        self.transport = transport
        self.rng = rng
        self.fraction = fraction
        self.delay_multiplier = delay_multiplier
        self.partitioned = False
        #: arc membership and store snapshots of the current partition
        self._snapshots: list[tuple[int, list[tuple[int, list]]]] = []

    def partition(self) -> list[int]:
        """Sever the arc; returns the severed node ids (ring order)."""
        if self.partitioned:
            raise RuntimeError("already partitioned")
        ring = self.network.member_ids()
        count = max(1, min(int(len(ring) * self.fraction), len(ring) - 1))
        start = self.rng.randrange(len(ring))
        arc = [ring[(start + offset) % len(ring)] for offset in range(count)]
        self._snapshots = [
            (
                node_id,
                [
                    (key, list(values))
                    for _, key, values in self.network.stored_items(node_id)
                ],
            )
            for node_id in arc
        ]
        for node_id in arc:
            self.network.remove_node(node_id, graceful=False)
        self.network.stabilize()
        if self.delay_multiplier > 1.0:
            self.transport.set_delay_multiplier(self.delay_multiplier)
        self.partitioned = True
        return arc

    def heal(self) -> None:
        """Rejoin the severed arc with its data; repair suspect ranges."""
        if not self.partitioned:
            raise RuntimeError("not partitioned")
        self.transport.clear_faults()
        for node_id, _ in self._snapshots:
            self.network.create_node(node_id)
        self.network.stabilize()
        for node_id, items in self._snapshots:
            for key, values in items:
                for offset, value in enumerate(values):
                    try:
                        self.network.put_local(node_id, key, value)
                    except TypeError:
                        # Unhashable value: substitute a deterministic
                        # dedup handle (position within the snapshot).
                        self.network.put_local(
                            node_id, key, value,
                            identity=("scenario.heal", key, offset),
                        )
            # The rejoined node's id lies inside its old interval, so
            # this repairs exactly the slice it lost.
            self.network.clear_suspects_covering(node_id)
        self._snapshots = []
        self.partitioned = False

"""Adaptive replication of hot DHT keys.

PIERSearch hashes each keyword's posting list to one DHT node, so a
popular keyword concentrates every query touching it on a single host —
the classic hot-spot problem of DHT-based search. The standard remedy
(CFS/Chord style) is to replicate a hot key across its owner's successor
nodes and spread reads over the replica set.

:class:`AdaptiveReplicationController` does this adaptively: it watches
the read stream the :class:`~repro.dht.network.DhtNetwork` reports, keeps
a sliding-window popularity estimate per key, and when a key's recent
read count crosses ``hot_read_threshold`` it copies the key's values to
``extra_replicas`` successors and registers the replica set with the
network, whose replica-aware reads then rotate over owner + replicas.

Invalidation is TTL- and churn-aware: replicas expire ``replica_ttl``
after placement (hot sets drift; posting lists change as publishers come
and go), and a replica or owner leaving the network prunes the affected
sets immediately. Expired placements of still-hot keys are simply
re-placed on the next read.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable
from dataclasses import dataclass, field
from typing import Any, TYPE_CHECKING

from repro.cache.popularity import PopularityEstimator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (dht doesn't import us)
    from repro.dht.network import DhtNetwork

#: how many reads between TTL sweeps
EXPIRY_SWEEP_INTERVAL = 32


@dataclass(frozen=True)
class ReplicationConfig:
    """Knobs for the adaptive replication controller."""

    #: recent reads (within ``window``) that make a key hot
    hot_read_threshold: int = 16
    #: replicas placed per hot key (beyond the natural owner)
    extra_replicas: int = 2
    #: time units a placement stays valid; None = until churn removes it
    replica_ttl: float | None = None
    #: sliding-window size (in reads) for the hotness estimate
    window: int = 512
    #: distinct keys tracked by the popularity sketch
    capacity: int = 128

    def __post_init__(self) -> None:
        if self.hot_read_threshold < 1:
            raise ValueError(f"hot_read_threshold must be >= 1, got {self.hot_read_threshold}")
        if self.extra_replicas < 1:
            raise ValueError(f"extra_replicas must be >= 1, got {self.extra_replicas}")
        if self.replica_ttl is not None and self.replica_ttl <= 0:
            raise ValueError(f"replica_ttl must be positive, got {self.replica_ttl}")


@dataclass
class ReplicationStats:
    """What the controller did over its lifetime."""

    reads: int = 0
    replicated_keys: int = 0
    replicas_placed: int = 0
    expired: int = 0
    churn_drops: int = 0

    @property
    def active_placements(self) -> int:
        return self.replicated_keys - self.expired


class AdaptiveReplicationController:
    """Watches DHT reads and replicates hot keys to successor nodes.

    Attaching the controller installs it as the network's read and
    removal listener; the network's replica-aware data path does the rest
    (rotating reads over registered replica sets). Detach with
    :meth:`detach` to stop observing.
    """

    def __init__(
        self,
        network: "DhtNetwork",
        config: ReplicationConfig | None = None,
        clock: Callable[[], float] | None = None,
    ):
        self.network = network
        self.config = config or ReplicationConfig()
        self._clock = clock
        self._ticks = 0.0
        self.reads = PopularityEstimator(
            capacity=self.config.capacity, window=self.config.window
        )
        #: per-node count of reads each node actually served
        self.serve_counts: dict[int, int] = {}
        #: key -> placement time
        self._placed_at: dict[int, float] = {}
        #: key -> nodes that did NOT hold the key before we copied it there
        self._fresh_holders: dict[int, list[int]] = {}
        self.stats = ReplicationStats()
        network.read_listener = self.record_read
        network.removal_listener = self.on_node_removed

    # ------------------------------------------------------------------
    # Time
    # ------------------------------------------------------------------

    def now(self) -> float:
        if self._clock is not None:
            return self._clock()
        return self._ticks

    # ------------------------------------------------------------------
    # Read stream
    # ------------------------------------------------------------------

    def record_read(self, key: int, served_by: int) -> None:
        """One DHT read of ``key``, answered by node ``served_by``."""
        if self._clock is None:
            self._ticks += 1.0
        self.stats.reads += 1
        self.reads.observe(key)
        self.serve_counts[served_by] = self.serve_counts.get(served_by, 0) + 1
        if self.config.replica_ttl is not None and self.stats.reads % EXPIRY_SWEEP_INTERVAL == 0:
            self.expire()
        if (
            key not in self._placed_at
            and self.reads.recent_count(key) >= self.config.hot_read_threshold
        ):
            self.replicate(key)

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------

    def replicate(self, key: int) -> list[int]:
        """Copy ``key``'s values to the owner's successors; returns them."""
        network = self.network
        owner_id = network.owner_of(key)
        values = network.get_local(owner_id, key)
        if not values:
            return []
        now = self.now()
        expires_at = None if self.config.replica_ttl is None else now + self.config.replica_ttl
        placed: list[int] = []
        fresh: list[int] = []
        payload = 0
        for successor_id in network.successors_of(owner_id):
            if len(placed) >= self.config.extra_replicas:
                break
            if successor_id not in network.nodes:
                continue
            held_before = network.local_contains(successor_id, key)
            for value in values:
                network.put_local(successor_id, key, value, identity=_identity(value))
            if not held_before:
                # Only copies we created carry an expiry stamp; a node
                # that already held the key (e.g. a natural put replica)
                # owns its copy and must never lose it to our TTL.
                if expires_at is not None:
                    network.set_local_expiry(successor_id, key, expires_at)
                fresh.append(successor_id)
            placed.append(successor_id)
            payload += network.cost_model.message_bytes(
                len(values) * network.cost_model.tuple_bytes(network.cost_model.fileid_bytes)
            )
        if not placed:
            return []
        # One direct transfer per replica, charged like put_many's replica copies.
        network.transport.charge("cache.replicate", len(placed), payload)
        network.register_replicas(key, placed)
        self._placed_at[key] = now
        self._fresh_holders[key] = fresh
        self.stats.replicated_keys += 1
        self.stats.replicas_placed += len(placed)
        return placed

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------

    def invalidate(self, key: int) -> None:
        """Tear down ``key``'s placement and drop copies we created."""
        self.network.unregister_replicas(key)
        for node_id in self._fresh_holders.pop(key, []):
            self.network.remove_local(node_id, key)
        self._placed_at.pop(key, None)

    def expire(self, now: float | None = None) -> int:
        """Invalidate placements older than ``replica_ttl``; returns count.

        The replica holders drop their stamped copies through the store's
        own expiry machinery (:meth:`~repro.dht.storage.LocalStore.purge_expired`),
        mirroring how a real holder would age data out locally.
        """
        if self.config.replica_ttl is None:
            return 0
        now = self.now() if now is None else now
        stale = [
            key
            for key, placed_at in self._placed_at.items()
            if now - placed_at >= self.config.replica_ttl
        ]
        for key in stale:
            self.network.unregister_replicas(key)
            for node_id in self._fresh_holders.pop(key, []):
                self.network.purge_expired_local(node_id, now)
            self._placed_at.pop(key, None)
        self.stats.expired += len(stale)
        return len(stale)

    def on_node_removed(self, node_id: int) -> None:
        """Churn: forget copies that lived on the departed node.

        The network has already pruned ``node_id`` from its replica sets;
        here we fix up our own bookkeeping so a later ``invalidate`` does
        not touch a node that no longer exists, and drop placements that
        lost every fresh copy.
        """
        for key in list(self._fresh_holders):
            holders = self._fresh_holders[key]
            if node_id in holders:
                holders.remove(node_id)
                self.stats.churn_drops += 1
            if not self.network.replica_nodes(key):
                self.invalidate(key)
        self.serve_counts.pop(node_id, None)

    def detach(self) -> None:
        """Stop observing the network (placements stay until invalidated)."""
        if self.network.read_listener == self.record_read:
            self.network.read_listener = None
        if self.network.removal_listener == self.on_node_removed:
            self.network.removal_listener = None

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    @property
    def replicated(self) -> list[int]:
        """Keys with a currently active placement."""
        return list(self._placed_at)

    def serve_skew(self) -> float:
        """Max/mean ratio of per-node served reads (1.0 = perfectly even)."""
        counts = [count for count in self.serve_counts.values() if count > 0]
        if not counts:
            return 0.0
        return max(counts) / (sum(counts) / len(counts))


def _identity(value: Any) -> Hashable:
    """Dedup handle matching the network's replica handoff semantics."""
    try:
        hash(value)
        return value
    except TypeError:
        return id(value)

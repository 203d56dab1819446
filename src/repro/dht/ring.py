"""Sorted ring backing and stabilize snapshots.

Two pieces that make million-peer rings affordable:

* :class:`Ring` — the network's sorted membership. The default backing is
  a plain list of full-width 160-bit ids (byte-compatible with the
  historical ``list[int]`` ring, so golden digests are untouched). With
  ``compact=True`` the backing is a sorted ``array('Q')`` of 64-bit words:
  node ids are then required to be exact multiples of ``2**96`` (the
  network draws them as ``getrandbits(64) << 96``), which keeps the full
  160-bit keyspace semantics — keys still land anywhere in ``[0, 2**160)``
  — while membership costs 8 bytes per peer instead of ~56. Every lookup
  primitive (owner bisect, successor list, finger targets) is implemented
  against both backings with the *same* algorithm, translated through
  the monotone bijection ``id = q << 96``, so results are byte-identical.

* :class:`RingSnapshot` — an immutable copy of the ring published by
  ``DhtNetwork.stabilize``. Per-node routing (see
  :class:`repro.dht.node.DhtNode`) derives fingers/successors/predecessor
  from the snapshot on first use instead of materializing tables for
  every node on every stabilize (a finger table is O(log N) owner
  bisects, see :func:`repro.dht.keyspace.finger_table`). Because the
  snapshot is frozen at stabilize time, stale-table churn semantics are
  preserved exactly: nodes that joined after the snapshot see empty
  tables until the next stabilize, and departed nodes linger in
  survivors' tables.
"""

from __future__ import annotations

import bisect
import sys
from array import array
from typing import Iterable, Iterator

from repro.common.ids import KEY_SPACE
from repro.dht.keyspace import finger_table

#: compact node ids are 64-bit draws shifted into the top bits of the
#: 160-bit keyspace; the low 96 bits are always zero
COMPACT_SHIFT = 96
_COMPACT_MASK = (1 << COMPACT_SHIFT) - 1


def _to_word(node_id: int) -> int:
    """The 64-bit ring word for a compact node id (exact translation)."""
    if node_id & _COMPACT_MASK:
        raise ValueError(
            f"compact ring requires ids that are multiples of 2**{COMPACT_SHIFT}; "
            f"got {node_id:#x}"
        )
    return node_id >> COMPACT_SHIFT


class Ring:
    """Sorted membership ring; list-backed or ``array('Q')``-backed.

    Exposes sequence access (``len``, indexing, iteration — always in
    full-width ids) plus the bisect primitives the network needs. The
    compact backing stores 64-bit words; index arithmetic is unchanged
    because ``id = word << 96`` is a strictly monotone bijection, so
    every bisect position computed on words equals the position the
    full-width list would produce.
    """

    __slots__ = ("compact", "_ids")

    def __init__(self, compact: bool = False, ids: Iterable[int] = ()):
        self.compact = compact
        if compact:
            self._ids = array("Q", sorted(_to_word(i) for i in ids))
        else:
            self._ids = sorted(ids)

    # -- sequence surface (full-width ids) -----------------------------

    def __len__(self) -> int:
        return len(self._ids)

    def __getitem__(self, index: int) -> int:
        value = self._ids[index]
        return value << COMPACT_SHIFT if self.compact else value

    def __iter__(self) -> Iterator[int]:
        if self.compact:
            return (word << COMPACT_SHIFT for word in self._ids)
        return iter(self._ids)

    def __contains__(self, node_id: int) -> bool:
        index = self.index_of(node_id)
        return index < len(self._ids) and self[index] == node_id

    # -- mutation ------------------------------------------------------

    def add(self, node_id: int) -> None:
        if self.compact:
            bisect.insort(self._ids, _to_word(node_id))
        else:
            bisect.insort(self._ids, node_id)

    def discard(self, node_id: int) -> None:
        index = self.index_of(node_id)
        if index < len(self._ids) and self[index] == node_id:
            del self._ids[index]

    def bulk_load(self, ids: Iterable[int]) -> None:
        """Replace the membership with ``ids``, sorting once.

        The fast path behind ``DhtNetwork.populate``: one sort instead of
        n insorts (which is O(n^2) in list moves at a million peers).
        """
        if self.compact:
            self._ids = array("Q", sorted(_to_word(i) for i in ids))
        else:
            self._ids = sorted(ids)

    # -- bisect primitives ----------------------------------------------

    def index_of(self, node_id: int) -> int:
        """``bisect_left`` position of ``node_id`` in the sorted ring."""
        if self.compact:
            return bisect.bisect_left(self._ids, node_id >> COMPACT_SHIFT)
        return bisect.bisect_left(self._ids, node_id)

    def responsible(self, key: int) -> int:
        """The node responsible for ``key`` — its clockwise successor.

        Chord assigns each key to the first node clockwise from it
        (wrapping past zero). For the compact backing the bisect runs on
        words with ``ceil(key / 2**96)``, since ``(w << 96) >= key  <=>
        w >= ceil(key / 2**96)``.
        """
        ids = self._ids
        if not ids:
            raise ValueError("empty ring")
        key %= KEY_SPACE
        if self.compact:
            index = bisect.bisect_left(ids, (key + _COMPACT_MASK) >> COMPACT_SHIFT)
            if index == len(ids):
                return ids[0] << COMPACT_SHIFT
            return ids[index] << COMPACT_SHIFT
        index = bisect.bisect_left(ids, key)
        if index == len(ids):
            return ids[0]
        return ids[index]

    def successor_list(self, node_id: int, count: int) -> list[int]:
        """The ``count`` nodes clockwise after ``node_id`` (excluding it)."""
        ids = self._ids
        if not ids:
            return []
        if self.compact:
            index = bisect.bisect_right(ids, node_id >> COMPACT_SHIFT)
        else:
            index = bisect.bisect_right(ids, node_id)
        n = len(ids)
        result = [self[(index + offset) % n] for offset in range(min(count, n - 1))]
        return [node for node in result if node != node_id]

    def predecessor_of(self, node_id: int) -> int | None:
        """The node counterclockwise before ``node_id`` (None if alone)."""
        if len(self._ids) <= 1:
            return None
        return self[self.index_of(node_id) - 1]

    def fingers_of(self, node_id: int) -> list[int]:
        """The deduplicated finger table for ``node_id`` on this ring.

        The successor of ``node_id + 2**i`` for each ``i``, consecutive
        duplicates dropped — built by the one distance-skipping
        construction, :func:`repro.dht.keyspace.finger_table`, in
        O(log N) owner bisects rather than one per bit position. Both
        backings go through :meth:`responsible`, so list and compact
        rings give byte-identical tables.
        """
        return finger_table(node_id, self.responsible)

    def backing_bytes(self) -> int:
        """Heap bytes held by the sorted backing (ids counted separately)."""
        return sys.getsizeof(self._ids)


class RingSnapshot:
    """Immutable ring membership published by one stabilize round.

    Shared by every node in the network: routing reads fingers,
    successors, and predecessor out of the snapshot keyed by ``version``,
    so one O(n) copy per stabilize replaces n full finger rebuilds.
    """

    __slots__ = ("version", "_ring")

    def __init__(self, version: int, ring: Ring):
        self.version = version
        self._ring = Ring(compact=ring.compact, ids=ring)

    def __len__(self) -> int:
        return len(self._ring)

    def contains(self, node_id: int) -> bool:
        return node_id in self._ring

    def fingers_of(self, node_id: int) -> list[int]:
        return self._ring.fingers_of(node_id)

    def successors_of(self, node_id: int, count: int) -> list[int]:
        return self._ring.successor_list(node_id, count)

    def predecessor_of(self, node_id: int) -> int | None:
        return self._ring.predecessor_of(node_id)

    def backing_bytes(self) -> int:
        return self._ring.backing_bytes()


class RingCell:
    """One mutable slot holding the network's latest :class:`RingSnapshot`.

    Nodes keep a reference to the cell (not to any particular snapshot),
    so publishing a new snapshot is a single attribute store and nodes
    lazily notice the version change on their next routing read.
    """

    __slots__ = ("snapshot",)

    def __init__(self) -> None:
        self.snapshot: RingSnapshot | None = None


def ring_state_bytes(network) -> int:
    """Deep heap-byte accounting for a network's ring + routing state.

    Counts what scales with membership: the nodes dict, each
    :class:`~repro.dht.node.DhtNode` (plus its id int, any materialized
    routing lists and, once the node has routed, the table compiled from
    them), the sorted ring backing, and the published snapshot backing.
    Stored data is excluded — this is the *ring state* figure the
    capacity plan divides by peer count.
    """
    getsizeof = sys.getsizeof
    total = getsizeof(network.nodes)
    ring = network._ring
    total += getsizeof(ring) + ring.backing_bytes()
    cell = getattr(network, "_ring_cell", None)
    if cell is not None and cell.snapshot is not None:
        total += getsizeof(cell.snapshot) + cell.snapshot.backing_bytes()
    for node_id, node in network.nodes.items():
        total += getsizeof(node) + getsizeof(node_id)
        for table in (node._fingers, node._successors):
            if table is not None:
                # Entry ids are counted once via the nodes dict; only the
                # list cells themselves are new weight.
                total += getsizeof(table)
        compiled = node._compiled
        if compiled is not None:
            _, offsets, hops, _ = compiled
            total += getsizeof(compiled) + getsizeof(offsets) + getsizeof(hops)
            # Offsets are ints of their own, unlike the ids they index.
            total += sum(map(getsizeof, offsets))
    return total


def bytes_per_peer(network) -> float:
    """``ring_state_bytes`` divided by membership size."""
    size = len(network.nodes)
    return ring_state_bytes(network) / size if size else 0.0

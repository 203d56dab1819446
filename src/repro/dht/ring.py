"""Sorted ring backing and stabilize snapshots.

Two pieces that make million-peer rings affordable:

* :class:`Ring` — the network's sorted membership: a plain sorted list of
  the full-width 160-bit node ids. It is the source of truth for who is a
  member: an idle peer is its id here plus one cell of the network's
  join-order list, and no :class:`~repro.dht.node.DhtNode` exists for it
  until something routes through it, stores on it, hands data to it or
  asks for it (see :class:`repro.dht.network.DhtNetwork`). The two lists
  point at the same int objects, so membership costs the id plus two
  8-byte pointers per peer.

* :class:`RingSnapshot` — the ring's membership as ``DhtNetwork.stabilize``
  published it. Per-node routing (see :class:`repro.dht.node.DhtNode`)
  derives fingers/successors/predecessor from the snapshot on first use
  instead of materializing tables for every node on every stabilize (a
  finger table is O(log N) owner bisects, see
  :func:`repro.dht.keyspace.finger_table`).

**Copy-on-write.** A snapshot shares the ring's sorted list instead of
copying it, so a stabilize is O(1) and a network holds one backing list
until membership next changes. The ring copies its list on the first
``add``/``discard``/``bulk_load`` after a snapshot took it, so a
published snapshot never sees a later join or leave: stale-table churn
semantics are preserved exactly — nodes that joined after the snapshot
see empty tables until the next stabilize, and departed nodes linger in
survivors' tables.
"""

from __future__ import annotations

import bisect
import sys
from typing import Iterable, Iterator

from repro.common.ids import KEY_SPACE
from repro.dht.keyspace import finger_table

#: successor-list length of a node with no network to set one
DEFAULT_SUCCESSOR_COUNT = 8


class Ring:
    """Sorted membership ring of full-width node ids.

    Exposes sequence access (``len``, indexing, iteration) plus the
    bisect primitives the network needs.
    """

    __slots__ = ("_ids", "_shared")

    def __init__(self, ids: Iterable[int] = ()):
        self._ids = sorted(ids)
        #: True while a :meth:`frozen` view holds ``_ids``: the next
        #: mutation copies the list first
        self._shared = False

    # -- sequence surface ------------------------------------------------

    def __len__(self) -> int:
        return len(self._ids)

    def __getitem__(self, index: int) -> int:
        return self._ids[index]

    def __iter__(self) -> Iterator[int]:
        return iter(self._ids)

    def __contains__(self, node_id: int) -> bool:
        index = self.index_of(node_id)
        return index < len(self._ids) and self._ids[index] == node_id

    @property
    def ids(self) -> list[int]:
        """The sorted backing list itself, for C-level ``len``, indexing and
        ``rng.choice`` in hot loops. Read-only, and valid only until the
        next :meth:`add`, :meth:`discard` or :meth:`bulk_load`: unlike a
        :meth:`frozen` view it is not copy-on-write, so a mutation may
        change it in place or leave it stale."""
        return self._ids

    # -- mutation ------------------------------------------------------

    def frozen(self) -> Ring:
        """A read-only view of the current membership, sharing the list.

        The ring copies its list before its next mutation, so the view
        keeps this membership for as long as it lives.
        """
        view = Ring.__new__(Ring)
        view._ids = self._ids
        view._shared = True  # never mutated; set so a stray write copies
        self._shared = True
        return view

    def _owned(self) -> list[int]:
        """The backing list, copied first if a frozen view shares it."""
        if self._shared:
            self._ids = self._ids.copy()
            self._shared = False
        return self._ids

    def add(self, node_id: int) -> None:
        bisect.insort(self._owned(), node_id)

    def discard(self, node_id: int) -> None:
        index = self.index_of(node_id)
        if index < len(self._ids) and self._ids[index] == node_id:
            del self._owned()[index]

    def bulk_load(self, sorted_ids: list[int]) -> None:
        """Adopt ``sorted_ids`` (sorted and distinct) as the membership.

        The fast path behind ``DhtNetwork.populate``, which sorts once
        instead of n insorts (O(n^2) in list moves at a million peers) and
        hands the sorted list over without a copy.
        """
        self._ids = sorted_ids
        self._shared = False

    # -- bisect primitives ----------------------------------------------

    def index_of(self, node_id: int) -> int:
        """``bisect_left`` position of ``node_id`` in the sorted ring."""
        return bisect.bisect_left(self._ids, node_id)

    def responsible(self, key: int) -> int:
        """The node responsible for ``key`` — its clockwise successor.

        Chord assigns each key to the first node clockwise from it
        (wrapping past zero).
        """
        ids = self._ids
        if not ids:
            raise ValueError("empty ring")
        index = bisect.bisect_left(ids, key % KEY_SPACE)
        if index == len(ids):
            return ids[0]
        return ids[index]

    def successor_list(self, node_id: int, count: int) -> list[int]:
        """The ``count`` nodes clockwise after ``node_id`` (excluding it)."""
        ids = self._ids
        if not ids:
            return []
        index = bisect.bisect_right(ids, node_id)
        n = len(ids)
        result = [ids[(index + offset) % n] for offset in range(min(count, n - 1))]
        return [node for node in result if node != node_id]

    def predecessor_of(self, node_id: int) -> int | None:
        """The node counterclockwise before ``node_id`` (None if alone)."""
        if len(self._ids) <= 1:
            return None
        return self._ids[self.index_of(node_id) - 1]

    def fingers_of(self, node_id: int) -> list[int]:
        """The deduplicated finger table for ``node_id`` on this ring.

        The successor of ``node_id + 2**i`` for each ``i``, consecutive
        duplicates dropped — built by the one distance-skipping
        construction, :func:`repro.dht.keyspace.finger_table`, in
        O(log N) owner bisects rather than one per bit position.
        """
        return finger_table(node_id, self.responsible)

    def backing_bytes(self) -> int:
        """Heap bytes held by the sorted backing (ids counted separately)."""
        return sys.getsizeof(self._ids)


class RingSnapshot:
    """Immutable ring membership published by one stabilize round.

    Shared by every node in the network: routing reads fingers,
    successors, and predecessor out of the snapshot keyed by ``version``.
    It holds a :meth:`Ring.frozen` view, so publishing one costs O(1) and
    the ring pays the O(n) copy only if membership changes afterwards.
    """

    __slots__ = ("version", "_ring")

    def __init__(self, version: int, ring: Ring):
        self.version = version
        self._ring = ring.frozen()

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
    lazily notice the version change on their next routing read. The
    cell also carries the network's successor-list length, a constant
    every node reads when it derives its tables.
    """

    __slots__ = ("snapshot", "successor_count")

    def __init__(self, successor_count: int = DEFAULT_SUCCESSOR_COUNT) -> None:
        self.snapshot: RingSnapshot | None = None
        self.successor_count = successor_count


def ring_state_bytes(network) -> int:
    """Deep heap-byte accounting for a network's ring + routing state.

    Counts what scales with membership: the sorted ring backing, the
    join-order list, every member's id int once, the dict of built nodes
    and each :class:`~repro.dht.node.DhtNode` in it (plus any materialized
    routing tables and, once the node has routed, the table compiled from
    them), and the published snapshot — whose backing is counted only when
    it is not the ring's own list (see :meth:`Ring.frozen`). Stored data
    is excluded — this is the *ring state* figure the capacity plan
    divides by peer count. It reads only what exists: it builds no node.
    """
    getsizeof = sys.getsizeof
    ring = network._ring
    total = getsizeof(ring) + ring.backing_bytes()
    total += getsizeof(network._order) + sum(map(getsizeof, ring._ids))
    snapshot = network._ring_cell.snapshot
    if snapshot is not None:
        total += getsizeof(snapshot) + getsizeof(snapshot._ring)
        if snapshot._ring._ids is not ring._ids:
            total += snapshot.backing_bytes()
    built = network._built
    total += getsizeof(built)
    for node in built.values():
        total += getsizeof(node)
        tables = node._tables
        if tables is not None:
            # Entry ids are counted once via the ring; only the tuple and
            # list cells themselves are new weight.
            fingers, successors, _ = tables
            total += getsizeof(tables)
            for table in (fingers, successors):
                if table is not None:
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
    size = len(network._ring)
    return ring_state_bytes(network) / size if size else 0.0

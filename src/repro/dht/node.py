"""A single Chord-style DHT node.

Each node knows only its own routing state: a finger table (successor of
n + 2^i for each i) and a short successor list for fault tolerance.
Routing decisions use exclusively this local state, so measured hop counts
are honest Chord hop counts, not artifacts of global knowledge.

A network builds a node only for a peer something uses: one that routes,
stores, receives a handoff, or that a caller asks for (see
:class:`repro.dht.network.DhtNetwork`); an idle peer is only its id in the
ring. A node the network builds at join is pinned to the snapshot version
already published (see ``_routed_version``); one it builds later for an
older member starts unpinned, because it joined before the snapshot that
lists it and must derive its tables from that snapshot.

The node is slotted and lazy. It has six slots — ``node_id``,
``_ring_cell``, ``_routed_version``, ``_compiled``, ``_tables`` and
``_store`` — and an idle one fills only the first two:
fingers, successors, and predecessor are derived on first use from the
network's published :class:`~repro.dht.ring.RingSnapshot` (keyed by the
snapshot version) and held together as one ``_tables`` tuple, and the
local store is only allocated when something is stored. The successor
list length is the network's, read from the shared
:class:`~repro.dht.ring.RingCell`. A standalone node (no cell) has
exactly the tables assigned to it.

**One routing step.** Every hop of every lookup is one call to
:meth:`DhtNode.route`: "do I own ``key``, else who is next, else dead
end". It reads a *compiled* form of the tables — fingers ∪ successors as
sorted clockwise offsets from this node's id, plus how far the
predecessor's id reaches — so the answer costs one modular subtraction,
one range comparison and one ``bisect_right`` instead of an interval test
and a linear scan of every entry. The compiled table is built lazily on
the first routing use after a table change (snapshot refresh, explicit
``fingers``/``successors``/``predecessor`` assignment) and never for a
node that does not route, so an idle node pays one empty slot. Assign
whole tables; mutating a list returned by ``fingers``/``successors`` in
place is not seen by routing.
"""

from __future__ import annotations

from bisect import bisect_right

from repro.common.ids import KEY_SPACE
from repro.dht.ring import DEFAULT_SUCCESSOR_COUNT
from repro.dht.storage import LocalStore

#: :meth:`DhtNode.route`'s answer when the node itself owns the key — no
#: ring id is negative, so it cannot be mistaken for a next hop
OWNS = -1

#: ``(foreign, offsets, hops, fallback)`` — see :meth:`DhtNode._compile`
_Compiled = tuple[int, list[int], list[int], int | None]

#: ``(fingers, successors, predecessor)``; None stands for "never set"
_Tables = tuple[list[int] | None, list[int] | None, int | None]

#: the tables of a node that has none yet
_NO_TABLES: _Tables = (None, None, None)


class DhtNode:
    """State of one DHT node: id, fingers, successors, and local storage."""

    __slots__ = (
        "node_id",
        "_ring_cell",
        "_routed_version",
        "_compiled",
        "_tables",
        "_store",
    )

    def __init__(self, node_id: int, ring_cell=None):
        self.node_id = node_id
        #: shared slot holding the network's latest stabilize snapshot
        #: (None for standalone nodes, whose tables are assigned by hand)
        self._ring_cell = ring_cell
        #: snapshot version the current tables were derived from — pinned
        #: at join to the version already published, so a node never
        #: derives tables from a snapshot older than its own membership
        #: (an id that departed and rejoined between stabilizes would
        #: otherwise read its stale pre-departure tables back out of it)
        self._routed_version: int | None = None
        if ring_cell is not None and ring_cell.snapshot is not None:
            self._routed_version = ring_cell.snapshot.version
        #: the tables compiled for :meth:`route` (see :meth:`_compile`);
        #: None until the node first routes and after every table change
        self._compiled: _Compiled | None = None
        #: ``(fingers, successors, predecessor)``, None until derived
        #: from a snapshot or assigned
        self._tables: _Tables | None = None
        self._store: LocalStore | None = None

    @property
    def successor_count(self) -> int:
        """Successor-list length: the network's, or the default when standalone."""
        cell = self._ring_cell
        return DEFAULT_SUCCESSOR_COUNT if cell is None else cell.successor_count

    # -- storage (lazy) ------------------------------------------------

    @property
    def store(self) -> LocalStore:
        """The node's local store, allocated on first touch."""
        store = self._store
        if store is None:
            store = self._store = LocalStore()
        return store

    # -- routing tables (lazy, snapshot-derived) -----------------------

    def _refresh(self) -> None:
        """Derive tables from the current snapshot if it moved.

        A node absent from the snapshot (joined after the last stabilize)
        keeps whatever tables it has — empty for a fresh node — and the
        table compiled from them: stabilize never ran for it.
        """
        cell = self._ring_cell
        if cell is None:
            return
        snapshot = cell.snapshot
        if snapshot is None or snapshot.version == self._routed_version:
            return
        node_id = self.node_id
        if not snapshot.contains(node_id):
            return
        self._tables = (
            snapshot.fingers_of(node_id),
            snapshot.successors_of(node_id, cell.successor_count),
            snapshot.predecessor_of(node_id),
        )
        self._routed_version = snapshot.version
        self._compiled = None

    def _assign(self, index: int, value) -> None:
        """Replace one of the three tables.

        Materializes the other two from the current snapshot first, so an
        explicit assignment sticks (and only it) until the next stabilize.
        """
        self._refresh()
        tables = list(self._tables or _NO_TABLES)
        tables[index] = value
        self._tables = tuple(tables)
        self._compiled = None

    @property
    def fingers(self) -> list[int]:
        """fingers[i] = successor(node_id + 2^i), consecutive dups dropped."""
        self._refresh()
        fingers = (self._tables or _NO_TABLES)[0]
        return fingers if fingers is not None else []

    @fingers.setter
    def fingers(self, value: list[int]) -> None:
        self._assign(0, value)

    @property
    def successors(self) -> list[int]:
        self._refresh()
        successors = (self._tables or _NO_TABLES)[1]
        return successors if successors is not None else []

    @successors.setter
    def successors(self, value: list[int]) -> None:
        self._assign(1, value)

    @property
    def predecessor(self) -> int | None:
        self._refresh()
        return (self._tables or _NO_TABLES)[2]

    @predecessor.setter
    def predecessor(self, value: int | None) -> None:
        self._assign(2, value)

    # -- the routing step ----------------------------------------------

    def _compile(self) -> _Compiled:
        """Compile the current tables for :meth:`route`, and cache them.

        ``(foreign, offsets, hops, fallback)``: the keys at clockwise
        distance ``1..foreign`` from this node — up to and including the
        predecessor's id — belong to someone else, every other key is
        ours (no predecessor, or a predecessor equal to ourselves, leaves
        ``foreign == 0``: we own everything); ``offsets`` are the sorted
        distinct clockwise distances of ``fingers + successors`` from this
        node, ``hops`` the ids they stand for (an entry equal to our own
        id is never a candidate; an id listed twice collapses to one
        entry); ``fallback`` is ``successors[0]`` for when no entry
        precedes the key, None when there is no successor at all.
        """
        node_id = self.node_id
        fingers, successors, predecessor = self._tables or _NO_TABLES
        successors = successors or []
        by_offset: dict[int, int] = {}
        for candidate in (fingers or []) + successors:
            offset = (candidate - node_id) % KEY_SPACE
            if offset:
                by_offset.setdefault(offset, candidate)
        offsets = sorted(by_offset)
        compiled = self._compiled = (
            0 if predecessor is None else (predecessor - node_id) % KEY_SPACE,
            offsets,
            [by_offset[offset] for offset in offsets],
            successors[0] if successors else None,
        )
        return compiled

    def _table(self) -> _Compiled:
        """The compiled form of the tables as they stand right now."""
        self._refresh()
        return self._compiled or self._compile()

    def route(self, key: int) -> int | None:
        """One routing step for ``key`` from this node's local state.

        Returns :data:`OWNS` when this node is responsible for ``key``
        (it owns the interval ``(predecessor, self]``); otherwise the
        next hop — the routing entry that most tightly precedes the key
        clockwise (classic Chord ``closest_preceding_finger``), or the
        first successor when no entry does (the key then lies between us
        and it); or None at a dead end, a node with no successor to
        forward to. ``key`` may be un-normalised.
        """
        # :meth:`_table`, with the snapshot-moved test of :meth:`_refresh`
        # done in place: this runs once per hop of every lookup.
        cell = self._ring_cell
        if cell is not None:
            snapshot = cell.snapshot
            if snapshot is not None and snapshot.version != self._routed_version:
                self._refresh()
        foreign, offsets, hops, fallback = self._compiled or self._compile()
        distance = (key - self.node_id) % KEY_SPACE
        if not 0 < distance <= foreign:
            return OWNS
        index = bisect_right(offsets, distance)
        return hops[index - 1] if index else fallback

    def closest_preceding(self, key: int) -> int | None:
        """Best next hop for ``key`` among this node's routing entries.

        The entry that most tightly precedes the key clockwise; None when
        no entry lies between this node and the key (:meth:`route` then
        falls back to the first successor).
        """
        _, offsets, hops, _ = self._table()
        index = bisect_right(offsets, (key - self.node_id) % KEY_SPACE)
        return hops[index - 1] if index else None

    def first_successor(self) -> int | None:
        return self._table()[3]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DhtNode({self.node_id:040x})"

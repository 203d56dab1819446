"""DHT network facade: membership, routing, put/get.

``DhtNetwork`` owns the ring membership and drives per-node routing. All
data-path operations (lookup, put, get) are routed hop by hop using only
each node's local finger/successor state and are charged to a
:class:`~repro.common.units.BandwidthMeter`, so experiments can report the
message overheads the paper's model predicts (O(log N) per operation).
"""

from __future__ import annotations

import random
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from itertools import islice
from operator import eq
from typing import Any, Callable, Hashable, Iterator

from repro.common.errors import DhtError, KeyNotFoundError, NodeNotFoundError
from repro.common.ids import KEY_SPACE, in_interval
from repro.common.rng import make_rng
from repro.common.units import DEFAULT_COST_MODEL, BandwidthMeter
from repro.dht.node import OWNS, DhtNode
from repro.dht.ring import DEFAULT_SUCCESSOR_COUNT, Ring, RingCell, RingSnapshot
from repro.dht.storage import LocalStore
from repro.net.transport import InProcessTransport, Transport

MAX_HOPS_FACTOR = 4  # routing gives up after 4*log2(N)+8 hops


@dataclass
class LookupResult:
    """Outcome of routing a key to its responsible node."""

    key: int
    owner: int
    path: list[int] = field(default_factory=list)
    #: route repairs performed mid-lookup (dead next hop / dead current
    #: node recovered through a successor list); only nonzero for
    #: hop-by-hop lookups that overlapped churn
    retries: int = 0

    @property
    def hops(self) -> int:
        """Number of overlay messages used (path edges)."""
        return max(0, len(self.path) - 1)


class _BuiltNodes(dict):
    """The peers a network has built a :class:`DhtNode` for, by id.

    A subscript of a ring member not built yet builds its node and keeps
    it (``__missing__``), so the routing loops keep C-level ``built[id]``
    subscripts; any other missing id raises :class:`KeyError`. ``get``
    and ``in`` see built nodes only.
    """

    __slots__ = ("_ring", "_cell")

    def __init__(self, ring: Ring, cell: RingCell):
        super().__init__()
        self._ring = ring
        self._cell = cell

    def __missing__(self, node_id: int) -> DhtNode:
        if node_id not in self._ring:
            raise KeyError(node_id)
        node = self[node_id] = DhtNode(node_id, ring_cell=self._cell)
        # A member built late joined before the snapshot that lists it, so
        # it derives its tables from that snapshot: unpin the join-time
        # version the constructor gave it.
        node._routed_version = None
        return node


class _Members(Mapping):
    """:attr:`DhtNetwork.nodes`: a read-only view of the membership.

    ``len`` is the ring size, ``in`` means "is a member", iteration goes
    in join order, and a subscript (so ``get``, ``values()`` and
    ``items()`` too) builds the member's node on first access.
    """

    __slots__ = ("_network",)

    def __init__(self, network: DhtNetwork):
        self._network = network

    def __len__(self) -> int:
        return len(self._network._ring)

    def __contains__(self, node_id: object) -> bool:
        network = self._network
        return node_id in network._built or node_id in network._ring

    def __iter__(self) -> Iterator[int]:
        return iter(self._network._order)

    def __getitem__(self, node_id: int) -> DhtNode:
        return self._network._built[node_id]


class _Joined(Sequence):
    """What :meth:`DhtNetwork.populate` returns on an empty network: its
    nodes in join order, each built when first indexed."""

    __slots__ = ("_ids", "_built")

    def __init__(self, ids: list[int], built: _BuiltNodes):
        self._ids = ids
        self._built = built

    def __len__(self) -> int:
        return len(self._ids)

    def __getitem__(self, index):
        if isinstance(index, slice):
            built = self._built
            return [built[node_id] for node_id in self._ids[index]]
        return self._built[self._ids[index]]


class DhtNetwork:
    """A complete DHT: nodes, routing, storage, and replication.

    **Membership is ids.** A peer is its id in the sorted :class:`Ring`
    plus one cell in a join-order list; that is all an idle peer costs.
    Its :class:`DhtNode` is built only when the peer is used — it routes,
    stores, receives a handoff, or a caller asks for it through
    :attr:`nodes` — and kept until it leaves. :attr:`nodes` is a read-only
    mapping over the membership (``len``, ``in``, join-order iteration,
    build-on-subscript). Reads of an unbuilt peer's storage build nothing:
    it has stored nothing. A node built late derives its tables from the
    latest snapshot, which lists it; a node built at join
    (:meth:`create_node`) is pinned to the snapshot it joined after.

    **Route cache invariant.** Between membership changes, routing over
    stabilized tables is a pure function of ``(origin, owner region)``:
    every key owned by the same node — distinguishing the owner's own id
    from the interior of its interval, the only two cases Chord's
    ``closest_preceding_finger`` can tell apart — follows the identical
    finger path from a given origin. :meth:`lookup` therefore memoizes
    its hop paths under an epoch stamp (:attr:`membership_version`,
    bumped on every join/leave, including every churn step). A cache hit
    replays the stored path verbatim — same hops, same owner, so callers
    charge byte-for-byte identical costs — and a stale entry can never be
    served because any membership change moves the epoch and flushes the
    cache. The hop-by-hop :meth:`iter_lookup` walk is deliberately *not*
    cached: it exists to observe churn mid-walk.

    The same invariant covers the hop counts :meth:`route_hops` returns:
    each is memoised per ``(origin, key)`` beside the path it was
    measured on, under the same epoch stamp, flushed by the same
    membership change, and read only after the same lazy stabilize that
    precedes every routed read. A memo hit stands for the route-cache hit
    that call would have made and counts as one, so ``route_cache_hits``
    and ``route_cache_misses`` read the same with or without it.

    It covers where a put stores, too: :meth:`put_many` keeps each
    owner's targets — the owner and its first ``replication - 1``
    successors, read from the tables the same stabilize derived — beside
    the paths, flushed by the same membership change under the same
    stamp.
    """

    def __init__(
        self,
        replication: int = 1,
        rng: random.Random | int | None = None,
    ):
        if replication < 1:
            raise ValueError(f"replication must be >= 1, got {replication}")
        self.replication = replication
        self.cost_model = DEFAULT_COST_MODEL
        self.rng = make_rng(rng)
        self._ring = Ring()  # sorted node ids: the membership
        #: member ids in join order; shared with the sequence the last
        #: bulk :meth:`populate` returned while ``_order_shared`` is set
        self._order: list[int] = []
        self._order_shared = False
        #: the latest stabilize snapshot, shared with every node: fingers,
        #: successors and predecessor are derived from it on first use
        self._ring_cell = RingCell(max(DEFAULT_SUCCESSOR_COUNT, replication))
        self._built = _BuiltNodes(self._ring, self._ring_cell)
        #: read-only membership view; see the class docstring
        self.nodes: Mapping[int, DhtNode] = _Members(self)
        #: bumped once per stabilize call: snapshot versions must move on
        #: *every* stabilize, not only when membership changed (a
        #: hand-assigned table lasts until the next stabilize, no longer)
        self._stabilize_serial = 0
        self.meter = BandwidthMeter()
        #: every cross-node byte is charged through this boundary, priced
        #: by ``cost_model``; swap it to re-target the same overlay at a
        #: different backend — see :mod:`repro.net.transport`
        self.transport: Transport = InProcessTransport(self.meter, self.cost_model)
        self._stale = False
        #: bumped on every join/leave; cheap epoch stamp for caches (e.g.
        #: the route cache) that must not survive churn
        self.membership_version = 0
        # --- epoch-stamped route cache ---------------------------------
        #: memoizes :meth:`lookup` paths between membership changes (see
        #: the route cache invariant in the class docstring)
        self._route_cache: dict[tuple[int, int, bool], tuple[int, ...]] = {}
        #: hop counts of :meth:`route_hops` by ``(origin, key)``, flushed
        #: with the route cache
        self._hop_cache: dict[tuple[int, int], int] = {}
        #: :meth:`put_many`'s store targets by owner (the owner, then its
        #: successor copies), flushed with the route cache
        self._targets: dict[int, tuple[int, ...]] = {}
        self._route_cache_epoch = -1
        self.route_cache_hits = 0
        self.route_cache_misses = 0
        #: mid-walk churn recoveries: lookups that routed around a
        #: departed node (resume-from-last-live or successor fallback)
        self.route_repairs = 0
        # --- suspect ranges (graceful degradation) ---------------------
        #: key intervals ``(predecessor, failed_node]`` whose owner died
        #: abruptly — its slice changed hands with *no* handoff, so an
        #: empty read there may be data loss rather than absence. Readers
        #: consult :meth:`is_suspect` to flag such answers as degraded
        #: instead of reporting loss silently; re-publishing or a healed
        #: rejoin repairs the range (:meth:`clear_suspects_covering`).
        self._suspect_ranges: list[tuple[int, int]] = []

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------

    def create_node(self, node_id: int | None = None) -> DhtNode:
        """Add a node with ``node_id`` (random if omitted) to the ring.

        Chord join semantics: the new node's successor syncs the slice of
        keys the newcomer now owns to it (one :meth:`_hand_off`, charged
        as ``dht.handoff``), so stored data stays reachable when joins
        land mid-run. At ``replication`` 1 the slice moves; above it the
        successor keeps its copies, as it is now the newcomer's first
        successor and so in each claimed key's replica set.
        """
        if node_id is None:
            node_id = self._random_id()
        if self._is_member(node_id):
            raise DhtError(f"node id {node_id:x} already present")
        node = DhtNode(node_id, ring_cell=self._ring_cell)
        self._ring.add(node_id)
        self._owned_order().append(node_id)
        self._built[node_id] = node
        self._stale = True
        self.membership_version += 1
        # An unbuilt successor has stored nothing, so has nothing to hand over.
        source = None
        if len(self._ring) > 1:
            index = self._ring.index_of(node_id)
            successor_id = self._ring[(index + 1) % len(self._ring)]
            predecessor_id = self._ring[index - 1]
            source = self._built.get(successor_id)
        if source is not None and source._store is not None:
            source_store = source._store
            claimed = [
                key
                for key in source_store.keys()
                if in_interval(key, predecessor_id, node_id, inclusive_end=True)
            ]
            self._hand_off(source_store, node, claimed)
            if self.replication == 1:
                for key in claimed:
                    source_store.remove_key(key)
        return node

    def _random_id(self) -> int:
        return self.rng.getrandbits(160)

    def _is_member(self, node_id) -> bool:
        """Whether ``node_id`` is in the ring (built nodes answer first)."""
        return node_id in self._built or node_id in self._ring

    def _owned_order(self) -> list[int]:
        """The join-order list, copied first if a populate result shares it."""
        if self._order_shared:
            self._order = self._order.copy()
            self._order_shared = False
        return self._order

    def populate(self, count: int) -> Sequence[DhtNode]:
        """Create ``count`` nodes with random ids and stabilize the ring.

        On an empty network this takes a bulk path: draw every id (same
        RNG sequence as the incremental path), sort once, reject a
        duplicate id before anything is published, and publish one
        snapshot — O(n log n) instead of the O(n^2) list shuffling that n
        insorts cost, which is what makes million-peer construction
        practical. It builds no node: the result is a lazy sequence of
        the new nodes in join order, each built when first indexed. With
        no stored data and no prior members the bulk path is observably
        identical to n ``create_node`` calls: no handoffs occur and
        nothing is metered either way.
        """
        if not self._ring and count > 0:
            getrandbits = self.rng.getrandbits
            node_ids = [getrandbits(160) for _ in range(count)]
            ordered = sorted(node_ids)
            if any(map(eq, ordered, islice(ordered, 1, None))):
                raise DhtError("duplicate random node id during populate")
            self._ring.bulk_load(ordered)
            self._order = node_ids
            self._order_shared = True
            self.membership_version += count
            self._stale = True
            self.stabilize()
            return _Joined(node_ids, self._built)
        nodes = [self.create_node() for _ in range(count)]
        self.stabilize()
        return nodes

    def remove_node(self, node_id: int, graceful: bool = True) -> None:
        """Remove a node. A graceful leave syncs its whole store to its
        successor (one :meth:`_hand_off`, charged as ``dht.handoff``
        maintenance bandwidth); an ungraceful failure loses any data not
        replicated elsewhere.

        Dropping the id from the join-order list is one O(n) scan: ~1.7 ms
        at 200k members (Python 3.11, 2 vCPUs), next to the ~2 ms the
        ring's copy-on-write copy costs when a stabilize came between."""
        node = self._built.pop(node_id, None)
        if node is None and node_id not in self._ring:
            raise NodeNotFoundError(f"unknown node {node_id:x}")
        self._owned_order().remove(node_id)
        if not graceful and len(self._ring) > 1:
            # The dead node's slice ``(predecessor, node_id]`` moved to
            # its successor with no handoff: mark it suspect so empty
            # reads there surface as degraded, not as honest absence.
            index = self._ring.index_of(node_id)
            self._suspect_ranges.append((self._ring[index - 1], node_id))
        self._ring.discard(node_id)
        self._stale = True
        self.membership_version += 1
        if graceful and len(self._ring) and node is not None and node._store:
            heir = self._built[self._ring.responsible(node_id)]
            self._hand_off(node._store, heir, list(node._store.keys()))

    def _hand_off(self, source: LocalStore, heir: DhtNode, keys: list[int]) -> None:
        """Sync the rows ``source`` holds under ``keys`` to ``heir``.

        Each row lands under its own dedup handle, so a row the heir holds
        already (a replica, or an equal republished row) stores nothing.
        The price is one digest message naming a handle per offered row,
        then one message carrying the rows the heir lacked, if any; a sync
        that offers nothing charges nothing.
        """
        if not keys:
            return
        store, offered, new = heir.store, 0, 0
        for key in keys:
            for handle, value in source.pairs(key):
                offered += 1
                new += store.put(key, value, identity=handle)
        cost = self.cost_model
        messages, byte_count = 1, cost.message_bytes(cost.digest_bytes(offered))
        if new:
            messages += 1
            byte_count += cost.message_bytes(new * cost.tuple_bytes(0))
        self.transport.charge("dht.handoff", messages, byte_count)

    def stabilize(self) -> None:
        """Refresh every node's routing state from the current ring.

        Publishes one immutable ring snapshot — O(1): it shares the ring's
        list, which the next join or leave copies — and nodes derive
        their tables from it on first use (pinned to the written-out
        finger definition in tests/test_dht_ring_equivalence.py).
        """
        self._stabilize_serial += 1
        self._ring_cell.snapshot = RingSnapshot(self._stabilize_serial, self._ring)
        self._stale = False

    def _ensure_stable(self) -> None:
        if self._stale:
            self.stabilize()

    @property
    def size(self) -> int:
        return len(self._ring)

    @property
    def successor_count(self) -> int:
        """Successor-list length of every node: at least ``replication``."""
        return self._ring_cell.successor_count

    def random_node_id(self) -> int:
        ids = self._ring.ids
        if not ids:
            raise DhtError("empty network")
        return self.rng.choice(ids)

    def member_ids(self) -> list[int]:
        """Every member's id in ring order (a copy of the sorted ring)."""
        return list(self._ring)

    # ------------------------------------------------------------------
    # Suspect ranges
    # ------------------------------------------------------------------

    @property
    def suspect_ranges(self) -> list[tuple[int, int]]:
        """Current suspect intervals ``(predecessor, failed_node]`` (copy)."""
        return list(self._suspect_ranges)

    def is_suspect(self, key: int) -> bool:
        """Whether ``key`` lies in a range lost to an abrupt failure.

        True means an empty read under ``key`` is *untrustworthy*: the
        range's owner died without handing its slice off, so the data may
        have existed and been lost. Callers should report such answers as
        degraded/partial rather than as a clean zero-result.
        """
        key %= KEY_SPACE
        return any(
            in_interval(key, start, end, inclusive_end=True)
            for start, end in self._suspect_ranges
        )

    def clear_suspects_covering(self, key: int) -> int:
        """Repair: drop every suspect interval containing ``key``.

        Called when the range is made whole again — the failed node
        rejoined with its data restored, or an anti-entropy pass
        re-published the slice. Returns how many intervals were cleared.
        A rejoining node's own id always lies in its old interval, so
        ``clear_suspects_covering(node_id)`` repairs exactly its slice.
        """
        key %= KEY_SPACE
        before = len(self._suspect_ranges)
        self._suspect_ranges = [
            (start, end)
            for start, end in self._suspect_ranges
            if not in_interval(key, start, end, inclusive_end=True)
        ]
        return before - len(self._suspect_ranges)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def owner_of(self, key: int) -> int:
        """Responsible node for ``key`` (oracle view, no messages charged)."""
        if not len(self._ring):
            raise DhtError("empty network")
        return self._ring.responsible(key)

    def lookup(self, key: int) -> LookupResult:
        """Route ``key`` from a random member to its owner using local
        state only.

        Repeated lookups of keys in the same owner region from the same
        origin replay the route cache's memoized hop path in O(1) instead
        of re-walking the ring — with identical hops, path, and owner, so
        all byte accounting derived from the result is unchanged (see the
        class docstring for the epoch invariant that keeps cached routes
        honest across churn).

        Raises :class:`DhtError` if routing does not converge or dead-ends
        (which, with stabilized tables, should never happen). A returned
        result always names a node that actually owns ``key`` — a dead-end
        is an error, never an answer from the wrong node.
        """
        path = self._checked_route(key, None)
        return LookupResult(key=key % KEY_SPACE, owner=path[-1], path=list(path))

    def route_hops(self, key: int, origin: int | None = None) -> int:
        """Overlay hops a :meth:`lookup` from ``origin`` (None: a random
        member) would take: the same route, the same checks and
        route-cache counters, and no result object.

        The count is memoised per ``(origin, key)`` in the route cache's
        epoch, and read only after the lazy stabilize: a memo hit stands
        for the route-cache hit the same call would have made, and counts
        as one (see the route cache invariant in the class docstring).
        """
        if self._stale:
            self.stabilize()
        if origin is None:
            origin = self.random_node_id()  # raises on an empty network
        if self._route_cache_epoch == self.membership_version:
            hops = self._hop_cache.get((origin, key))
            if hops is not None:
                self.route_cache_hits += 1
                return hops
        hops = self._hop_cache[origin, key] = len(self._checked_route(key, origin)) - 1
        return hops

    def _checked_route(self, key: int, origin: int | None) -> tuple[int, ...]:
        """The body of :meth:`lookup`, and of :meth:`route_hops` on a memo
        miss: stabilize, check membership, draw a random origin when None,
        then route."""
        if self._stale:
            self.stabilize()
        if not self._ring:
            raise DhtError("empty network")
        if origin is None:
            origin = self.random_node_id()
        if origin not in self._built and origin not in self._ring:
            raise NodeNotFoundError(f"unknown origin {origin:x}")
        return self._route(key % KEY_SPACE, origin)

    def _route(self, key: int, origin: int) -> tuple[int, ...]:
        """Hop path from ``origin`` to ``key``'s owner, through the cache: the
        one routing body under :meth:`lookup`, :meth:`route_hops` and
        :meth:`put_many`, which stabilize, reduce ``key`` and check
        ``origin`` is a member first. A walk that raises is neither cached
        nor counted. A new epoch flushes every memo the route cache
        invariant covers."""
        if self._route_cache_epoch != self.membership_version:
            self._route_cache.clear()
            self._hop_cache.clear()
            self._targets.clear()
            self._route_cache_epoch = self.membership_version
        owner = self._ring.responsible(key)
        cache_key = (origin, owner, key == owner)
        path = self._route_cache.get(cache_key)
        if path is not None:
            self.route_cache_hits += 1
            return path
        path = self._route_cache[cache_key] = tuple(self._walk(key, origin))
        self.route_cache_misses += 1
        return path

    def _walk(self, key: int, origin: int) -> list[int]:
        """The uncached hop-by-hop greedy walk behind :meth:`_route`: the
        nodes visited, ``origin`` first and the key's owner last.

        Each hop is one :meth:`DhtNode.route
        <repro.dht.node.DhtNode.route>` call on the node the query sits
        on — own the key, name the next hop, or dead-end — read from that
        node's compiled table (one bisect), so a route-cache miss costs a
        handful of table lookups rather than a scan per hop.
        """
        max_hops = MAX_HOPS_FACTOR * max(1, len(self._ring.ids)).bit_length() + 8
        built = self._built
        current = origin
        path = [current]
        for _ in range(max_hops):
            next_hop = built[current].route(key)
            if next_hop == OWNS:
                return path
            if next_hop is None:
                raise self._dead_end(current, key, path)
            current = next_hop
            path.append(current)
        raise DhtError(
            f"routing for key {key:x} did not converge in {max_hops} hops",
            key=key,
            path=path,
        )

    @staticmethod
    def _dead_end(current: int, key: int, path: list[int]) -> DhtError:
        return DhtError(
            f"routing dead-end at node {current:x} for key {key:x} "
            f"after {len(path) - 1} hops: no finger or successor to "
            "forward to",
            key=key,
            path=path,
        )

    def iter_lookup(self, key: int, origin: int | None = None):
        """Hop-by-hop lookup generator: the event-driven variant of
        :meth:`lookup`.

        Yields the node id reached at each hop, starting with ``origin``
        and ending with the key's owner; the complete
        :class:`LookupResult` is the generator's return value
        (``StopIteration.value``). Routing state is re-read between
        yields, so a driver that advances the generator one simulator
        event at a time (e.g. the hybrid query engine) observes churn
        applied mid-lookup: if the node the query currently sits on — or
        a finger it planned to follow — has departed, the walk recovers
        through the last live node's successor list and counts a retry.
        Each hop is the same :meth:`DhtNode.route
        <repro.dht.node.DhtNode.route>` step :meth:`lookup` walks with;
        the liveness repair happens here, after the step has answered.

        The generator never stabilizes mid-walk; it routes over whatever
        tables exist, exactly as an in-flight query would. Raises
        :class:`DhtError` when routing dead-ends, when every node on the
        path has departed, or when the hop budget is exhausted.
        """
        if not self._ring:
            raise DhtError("empty network")
        key %= KEY_SPACE
        built, ring = self._built, self._ring
        if origin is None:
            origin = self.random_node_id()
        if origin not in built and origin not in ring:
            raise NodeNotFoundError(f"unknown origin {origin:x}")
        max_hops = MAX_HOPS_FACTOR * max(1, self.size).bit_length() + 8
        current = origin
        path = [current]
        retries = 0
        yield current
        for _ in range(max_hops):
            try:
                node = built[current]
            except KeyError:
                # The node the query sits on departed mid-lookup: resume
                # from the most recent node on the path still alive.
                current = self._last_live(path, key)
                retries += 1
                self.route_repairs += 1
                path.append(current)
                yield current
                continue
            next_hop = node.route(key)
            if next_hop == OWNS:
                return LookupResult(key=key, owner=current, path=path, retries=retries)
            if next_hop is None:
                raise self._dead_end(current, key, path)
            if next_hop not in built and next_hop not in ring:
                # Stale routing entry naming a departed node: fall back to
                # the first live successor (Chord's failure recovery).
                next_hop = self._first_live_successor(node, exclude={current})
                retries += 1
                self.route_repairs += 1
                if next_hop is None:
                    raise DhtError(
                        f"node {current:x} has no live successor to route "
                        f"around departures for key {key:x} after "
                        f"{len(path) - 1} hops",
                        key=key,
                        path=path,
                    )
            current = next_hop
            path.append(current)
            yield current
        raise DhtError(
            f"routing for key {key:x} did not converge in {max_hops} hops",
            key=key,
            path=path,
        )

    def _last_live(self, path: list[int], key: int) -> int:
        """Most recent node on ``path`` that is still a member."""
        for node_id in reversed(path):
            if self._is_member(node_id):
                return node_id
        raise DhtError(
            f"every node on the {len(path) - 1}-hop lookup path for key "
            f"{key:x} has departed",
            key=key,
            path=path,
        )

    def _first_live_successor(self, node: DhtNode, exclude: set[int]) -> int | None:
        for candidate in node.successors:
            if candidate not in exclude and self._is_member(candidate):
                return candidate
        return None

    # ------------------------------------------------------------------
    # Data path
    #
    # Writes all go through put_many: the only place a tuple is stored on
    # its owner and the owner's successor copies, and the only place a put
    # is priced.
    # ------------------------------------------------------------------

    def ship_batch(
        self, source: int, target: int, payload_bytes: int, category: str = "pier.exchange"
    ) -> tuple[int, int, int]:
        """Ship one tuple batch from node ``source`` straight to node
        ``target``: charge it, and return its ``(hops, messages, bytes)``.

        The streaming-exchange primitive. The plan leg that reached
        ``target`` already looked its address up, so a batch is one
        direct message (:meth:`CostModel.message_bytes`) of one hop, or
        zero hops to the same node, and never routes: a DHT application
        looks an owner up once and then sends to it direct. A payload
        costs the same however an edge batches it; only the per-message
        header scales with the batch count.

        Raises :class:`NodeNotFoundError`, charging nothing, when either
        end has left the ring (the caller, an in-flight dataflow, fails
        and its race decides whether to re-plan).
        """
        if not (self._is_member(source) and self._is_member(target)):
            raise NodeNotFoundError(f"batch end departed: {source:x} -> {target:x}")
        byte_count = self.cost_model.message_bytes(payload_bytes)
        self.transport.charge(category, 1, byte_count)
        return (0 if source == target else 1), 1, byte_count

    def put_many(
        self, entries, origin: int | None = None, copy: Callable[[Any], Any] | None = None
    ) -> tuple[int, int]:
        """*The* put body: route, store and price a batch of tuples, in order.

        ``entries`` are ``(reduced ring key, value, identity, payload_bytes,
        category)``. Each routes from ``origin`` (None: a random member, drawn
        per entry) through the route cache and is stored on the key's owner
        and on the owner's ``replication - 1`` successors, for one message per
        routing hop plus one per copy, each carrying the payload. Costs are
        summed and charged once per category when the batch ends, first seen
        first; ``(messages, bytes)`` is their total. If routing fails midway
        the :class:`DhtError` propagates with the entries before it stored and
        charged and the failing one neither. An entry reads only the copies it
        makes: an owner's targets are read once per route-cache epoch (see the
        class docstring) and at ``replication=1`` the owner's successor list
        is never read.

        With ``copy`` each entry's value is a template and its identity is
        required: the stores that lack that identity share one
        ``copy(value)``, made only if some store takes it, and a store
        that holds it already gets nothing (as a plain put would store
        nothing there). A caller that puts the same values again (a
        republished plan) copies only what is new; the price is the same
        either way.
        """
        self._ensure_stable()
        ring, built = self._ring, self._built
        if not ring:
            raise DhtError("empty network")
        if origin is not None and origin not in built and origin not in ring:
            raise NodeNotFoundError(f"unknown origin {origin:x}")
        route, choice, ids = self._route, self.rng.choice, ring.ids
        successor_copies = self.replication - 1
        owner_targets = self._targets
        routed_bytes = self.cost_model.routed_bytes
        message_bytes = self.cost_model.message_bytes
        charges: dict[str, list[int]] = {}  # category -> [messages, bytes]
        try:
            for key, value, identity, payload_bytes, category in entries:
                path = route(key, choice(ids) if origin is None else origin)
                owner_id = path[-1]
                hops = len(path) - 1
                charge = charges.get(category)
                if charge is None:
                    charge = charges[category] = [0, 0]
                charge[0] += hops or 1  # a self-owned key is one local delivery
                charge[1] += routed_bytes(payload_bytes, hops)
                # The owner, then its successors (one direct hop each):
                # read once per owner per epoch, after the route flushed.
                targets = owner_targets.get(owner_id)
                if targets is None:
                    targets = (owner_id,)
                    if successor_copies:
                        targets += tuple(built[owner_id].successors[:successor_copies])
                    owner_targets[owner_id] = targets
                copies = len(targets) - 1
                if copies:
                    charge[0] += copies
                    charge[1] += copies * message_bytes(payload_bytes)
                if copy is None:
                    for node_id in targets:
                        built[node_id].store.put(key, value, identity=identity)
                    continue
                shared = None
                for node_id in targets:
                    store = built[node_id].store
                    if shared is None:
                        if store.holds(key, identity):
                            continue
                        shared = copy(value)
                    store.put(key, shared, identity=identity)
        finally:
            total_messages = total_bytes = 0
            for category, (messages, byte_count) in charges.items():
                self.transport.charge(category, messages, byte_count)
                total_messages += messages
                total_bytes += byte_count
        return total_messages, total_bytes

    def get_raw(self, key: int, category: str) -> list[Any]:
        """Fetch every value under a raw ring key from its owner, routed
        from a random member and charged to ``category``.

        Raises :class:`KeyNotFoundError` when nothing is stored there.
        """
        key %= KEY_SPACE
        result = self.lookup(key)
        values = self._built[result.owner].store.get(key)
        self._charge_get(category, result.hops)
        if not values:
            raise KeyNotFoundError(f"no values under key {key:x}")
        return values

    def _charge_get(self, category: str, hops: int) -> None:
        """A read's request: an empty payload routed over ``hops`` hops."""
        self.transport.charge(category, hops or 1, self.cost_model.routed_bytes(0, hops))

    def _require_member(self, node_id: int) -> None:
        """Raise :class:`NodeNotFoundError` unless ``node_id`` is in the ring."""
        if node_id not in self._ring:
            raise NodeNotFoundError(f"unknown node {node_id:x}")

    def _node(self, node_id: int) -> DhtNode:
        """``node_id``'s node, built now if it is an unbuilt member."""
        try:
            return self._built[node_id]
        except KeyError:
            raise NodeNotFoundError(f"unknown node {node_id:x}") from None

    def get_local(self, node_id: int, key: int) -> list[Any]:
        """Read a node's local store directly (no messages)."""
        node = self._built.get(node_id)
        if node is None:
            self._require_member(node_id)
            return []  # an unbuilt member has stored nothing
        return node.store.get(key)

    def local_view(self, node_id: int, key: int, build: Callable[[list[Any]], Any]) -> Any:
        """``build(get_local(node_id, key))``, memoised at that node until a
        write changes its values under ``key`` (see
        :meth:`~repro.dht.storage.LocalStore.view`; no messages). Shared
        by every reader, so read-only. An empty read is never memoised."""
        node = self._built.get(node_id)
        if node is None:
            self._require_member(node_id)
            return build([])
        return node.store.view(key, build)

    # ------------------------------------------------------------------
    # Local-store boundary
    #
    # The public surface for everything outside repro.dht that needs a
    # node's storage: fault injection (repro.scenario) and catalog scans.
    # Nothing outside this package touches DhtNode internals —
    # tests/test_boundary_lint.py enforces it — which is what lets the
    # storage backend move behind a transport without engine rewrites.
    # A read of a member with no built node builds nothing.
    # ------------------------------------------------------------------

    def put_local(
        self,
        node_id: int,
        key: int,
        value: Any,
        identity: Hashable | None = None,
    ) -> None:
        """Write directly into ``node_id``'s store (no messages charged)."""
        self._node(node_id).store.put(key, value, identity=identity)

    def local_contains(self, node_id: int, key: int) -> bool:
        """Whether ``node_id`` currently holds any value under ``key``."""
        node = self._built.get(node_id)
        return node is not None and node.store.contains(key)

    def stored_items(self, node_id: int | None = None):
        """Iterate ``(node_id, key, values)`` over local stores.

        With ``node_id`` the iteration covers one node; otherwise every
        member, in join order. An oracle-style scan for catalogs and
        tests — not a data path (nothing is charged).
        """
        built = self._built
        if node_id is not None:
            if node_id not in built:
                self._require_member(node_id)
            members = (node_id,)
        else:
            members = self._order
        for member_id in members:
            node = built.get(member_id)
            store = node._store if node is not None else None
            if store is None:
                continue
            for key, values in store.items():
                yield member_id, key, values

    def successors_of(self, node_id: int) -> list[int]:
        """The node's current successor list (copy), for replica placement."""
        return list(self._node(node_id).successors)

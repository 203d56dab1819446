"""State machine: ``DhtNetwork`` membership against a plain join-order list.

A member is its id in the ring; its node is built only when something
uses it. Hypothesis drives bulk populates, joins (fresh ids and rejoins of
departed ones), graceful leaves, crashes, regional leaves, stabilizes,
puts, reads, lookups and local-store probes, and after every step holds
the network to an oracle that knows nothing of nodes: a join-order list of
member ids, and the set of ``(key, value)`` pairs put and not lost.

* ``list(dht.nodes)`` is the join order, and ``len``/``in`` agree with it;
  only members are ever built.
* Every pair the oracle holds is stored on some member, and nothing else
  is; a put lands each value on its key's owner.
* A read of a key is served by its ring owner: it returns exactly the
  owner's local values, which outside every suspect range are exactly
  the key's pairs.
* A lookup's owner is ``reference_owner`` over the members, and its path
  is ``reference_iter_lookup``'s, both before stabilizing (the
  hop-by-hop walk over stale tables) and after (the cached route).
* ``route_hops`` between members counts the reference path's hops
  after stabilizing; a repeat in the same epoch reads the memo, unchanged
  and counted as one route-cache hit, and a join flushes it (the next
  call is a miss on the new ring). Every call moves the route-cache
  counters by exactly one.
* ``ship_batch`` between members is one direct message of one hop (none
  to itself) that moves no route-cache counter, before and after a join;
  with a departed end it raises ``NodeNotFoundError`` and charges nothing.
* A handoff is one sync: a digest message naming each offered row, then
  one message carrying the rows the heir lacked (none if it lacked none;
  nothing at all for an empty handoff). Each row lands on the heir under
  its own dedup handle, so a row the heir held already stores nothing.
* A graceful leave syncs each of its values to its successor, and the
  successor's store becomes its old store plus each value it lacked; a
  crash loses exactly the pairs no other member holds, each inside the
  crashed node's suspect range or one already suspect.
* A join syncs the slice the newcomer claims from its successor. At
  replication 1 the slice moves; above it the successor still holds
  every claimed row, as it is now the newcomer's first successor.
* No store holds two equal values under one key.
* Re-publishing a compiled file from a random member changes the stores
  as a plain-dict model of them says (each of the owner and its
  successors that lacks a row's identity gets one copy of the row, shared
  by all of them and never the plan's own; nothing else changes) and
  moves the meter by the reference price of the reference walk's hops.
* The snapshot the last stabilize published, and a ``Ring.frozen`` view
  of the ring taken while the ring still held that membership, list
  exactly that membership after every later join, leave, crash and
  regional leave: the ring copies its list before it changes it.
* Probing a local store builds no node.
* A ``StoredList`` view of a published key is transparent: after any
  sequence of puts, handoffs, crashes and republishes,
  ``local_view(node, key, StoredList)`` lists the same ids
  as a ``StoredList`` built fresh from ``get_local(node, key)``, and a
  view built before a write that changed the key's values at that node
  is never returned after it.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from oracle import (
    dht_get,
    dht_put,
    lookup_from,
    reference_handoff_price,
    reference_iter_lookup,
    reference_owner,
)
from repro.common.errors import DhtError, KeyNotFoundError, NodeNotFoundError
from repro.common.ids import KEY_SPACE, hash_key, in_interval
from repro.dht.churn import ChurnProcess
from repro.dht.network import DhtNetwork
from repro.pier.catalog import Catalog
from repro.pier.operators import StoredList
from repro.piersearch.publisher import Publisher

#: a small key pool, so puts, reads and handoffs keep meeting each other
KEYS = [hash_key(f"key-{index}") for index in range(12)]
keys = st.sampled_from(KEYS) | st.integers(min_value=0, max_value=KEY_SPACE - 1)
values = st.integers(min_value=0, max_value=5)
picks = st.integers(min_value=0, max_value=1 << 16)
#: files a member re-publishes: an Item row and a posting row per word,
#: the words shared so postings of different files meet on one key
FILES = [("alpha beta.mp3", 1000), ("beta gamma.mp3", 2000), ("alpha.mp3", 3000)]


def _run(walk):
    """Drive a lookup generator to its return value, or its error text."""
    try:
        while True:
            next(walk)
    except StopIteration as stop:
        return stop.value
    except DhtError as error:
        return str(error)


class _Copy:
    """The model's mark for a row a store lacked: it gets a copy of ``row``."""

    def __init__(self, row: dict):
        self.row = row


def _hashable(value):
    """A stored value as a set member: a published row by its items."""
    return tuple(sorted(value.items())) if isinstance(value, dict) else value


class MembershipMachine(RuleBasedStateMachine):
    @initialize(
        seed=st.integers(min_value=0, max_value=1 << 16), replication=st.sampled_from([1, 2])
    )
    def build(self, seed, replication):
        self.dht = DhtNetwork(rng=seed, replication=replication)
        self.churn = ChurnProcess(self.dht, rng=seed + 1)
        self.order: list[int] = []
        self.departed: list[int] = []
        self.pairs: set[tuple[int, object]] = set()
        self.publisher = Publisher(self.dht, Catalog(self.dht))
        self.plans = [
            self.publisher.plan_file(name, size, "10.0.0.1", 6346) for name, size in FILES
        ]
        #: (snapshot, frozen view, sorted members) as the last stabilize left them
        self.published = None
        #: the keys the plans publish rows under: the only keys a view reads
        self.view_keys = sorted({entry[0] for plan in self.plans for entry in plan.entries})
        #: (node, key) -> (the last view read there, the values it was built on)
        self.views: dict[tuple[int, int], tuple[StoredList, list]] = {}

    # -- helpers ---------------------------------------------------------

    def _member(self, pick: int) -> int:
        return self.order[pick % len(self.order)]

    def _holders(self) -> dict[tuple[int, int], set[int]]:
        holders: dict[tuple[int, int], set[int]] = {}
        for node_id, key, stored in self.dht.stored_items():
            for value in stored:
                holders.setdefault((key, _hashable(value)), set()).add(node_id)
        return holders

    def _buckets(self) -> dict[int, dict[int, dict]]:
        """Every store as plain dicts: node -> key -> {dedup handle: value}."""
        return {
            node_id: {key: dict(bucket) for key, bucket in node._store._data.items() if bucket}
            for node_id, node in self.dht._built.items()
            if node._store is not None
        }

    def _assert_sync_charged(self, before, offered: int, new: int) -> None:
        """The handoff meter moved, since ``before``, by the reference
        price of one sync offering ``offered`` rows, ``new`` of them new."""
        after = self.dht.meter.by_category.get("dht.handoff")
        moved = tuple(
            (getattr(after, field) if after else 0) - (getattr(before, field) if before else 0)
            for field in ("messages", "bytes")
        )
        assert moved == reference_handoff_price(self.dht.cost_model, offered, new)

    @staticmethod
    def _assert_same_store(got: dict[int, dict], expected: dict[int, dict]) -> None:
        """Two stores (key -> {dedup handle: value}) hold the same handles,
        each with the very same object."""
        assert {key: bucket.keys() for key, bucket in got.items()} == {
            key: bucket.keys() for key, bucket in expected.items()
        }
        for key, bucket in expected.items():
            for handle, value in bucket.items():
                assert got[key][handle] is value

    def _depart(self, victims: list[tuple[int, bool]], remove) -> None:
        """Apply ``remove`` (which removes ``victims``) and move the oracle:
        a pair every holder of which crashed is lost, inside a suspect
        range; nothing else changes."""
        holders = self._holders()
        members = sorted(self.order)
        crashed = {node_id for node_id, graceful in victims if not graceful}
        was_suspect = {key: self.dht.is_suspect(key) for key, _ in holders}
        remove()
        for node_id, _ in victims:
            self.order.remove(node_id)
            self.departed.append(node_id)
        lost = {pair for pair, held_by in holders.items() if held_by <= crashed}
        self.pairs -= lost
        for key, _ in lost:
            assert self.dht.is_suspect(key)
            assert was_suspect[key] or any(
                in_interval(key, members[members.index(node_id) - 1], node_id, inclusive_end=True)
                for node_id in crashed
            )

    # -- membership ------------------------------------------------------

    @precondition(lambda self: not self.order)
    @rule(count=st.integers(min_value=1, max_value=24))
    def populate(self, count):
        twin = random.Random()
        twin.setstate(self.dht.rng.getstate())
        drawn = [twin.getrandbits(160) for _ in range(count)]
        version = self.dht.membership_version
        joined = self.dht.populate(count)
        assert len(joined) == count and not self.dht._built
        assert self.dht.membership_version == version + count
        self.order.extend(drawn)
        assert joined[-1].node_id == drawn[-1]  # builds that one node

    @rule(rejoin=st.booleans(), pick=picks)
    def create_node(self, rejoin, pick):
        dht = self.dht
        node_id = None
        if rejoin and self.departed:
            node_id = self.departed.pop(pick % len(self.departed))
        before, charged = self._buckets(), dht.meter.by_category.get("dht.handoff")
        node = dht.create_node(node_id)
        assert node_id is None or node.node_id == node_id
        assert dht._built[node.node_id] is node
        self.order.append(node.node_id)
        ring = sorted(self.order)
        index = ring.index(node.node_id)
        successor = ring[(index + 1) % len(ring)]
        held = before.get(successor, {}) if successor != node.node_id else {}
        claimed = {
            key: bucket
            for key, bucket in held.items()
            if in_interval(key, ring[index - 1], node.node_id, inclusive_end=True)
        }
        after = self._buckets()
        # The newcomer holds the claimed slice, each row under its handle
        # and as the same object, and nothing else.
        self._assert_same_store(after.get(node.node_id, {}), claimed)
        if dht.replication > 1:
            # The successor keeps its copies: it is in the replica set.
            self._assert_same_store(after.get(successor, {}), held)
        else:
            kept = {key: bucket for key, bucket in held.items() if key not in claimed}
            self._assert_same_store(after.get(successor, {}), kept)
        offered = sum(len(bucket) for bucket in claimed.values())
        self._assert_sync_charged(charged, offered, offered)

    @precondition(lambda self: len(self.order) > 1)
    @rule(pick=picks)
    def leave_gracefully(self, pick):
        dht, victim = self.dht, self._member(pick)
        before, charged = self._buckets(), dht.meter.by_category.get("dht.handoff")
        self._depart([(victim, True)], lambda: dht.remove_node(victim, graceful=True))
        successor = reference_owner(sorted(self.order), victim)
        # The heir's store: what it held, plus each handed value it lacked,
        # under the value's own handle.
        expected = {key: dict(bucket) for key, bucket in before.get(successor, {}).items()}
        offered = new = 0
        for key, bucket in before.get(victim, {}).items():
            for handle, value in bucket.items():
                offered += 1
                kept = expected.setdefault(key, {})
                if handle not in kept:
                    kept[handle] = value
                    new += 1
        self._assert_same_store(self._buckets().get(successor, {}), expected)
        self._assert_sync_charged(charged, offered, new)

    @precondition(lambda self: len(self.order) > 1)
    @rule(pick=picks)
    def crash(self, pick):
        dht, victim = self.dht, self._member(pick)
        self._depart([(victim, False)], lambda: dht.remove_node(victim, graceful=False))

    @precondition(lambda self: len(self.order) > 2)
    @rule(count=st.integers(min_value=1, max_value=4))
    def regional_leave(self, count):
        # The arc by definition: ``count`` members clockwise from the churn
        # RNG's next ring position, each graceful on its next draw.
        twin = random.Random()
        twin.setstate(self.churn.rng.getstate())
        ring = sorted(self.order)
        index = twin.randrange(len(ring))
        arc = [ring[(index + offset) % len(ring)] for offset in range(min(count, len(ring) - 1))]
        victims = [(node_id, twin.random() >= 0.5) for node_id in arc]
        result = []

        def remove():
            result.extend(self.churn.regional_leave(count, failure_fraction=0.5))

        self._depart(victims, remove)
        assert result == victims

    @rule()
    def stabilize(self):
        self.dht.stabilize()

    # -- data path -------------------------------------------------------

    @precondition(lambda self: self.order)
    @rule(
        entries=st.lists(st.tuples(keys, values), min_size=1, max_size=4),
        pick=picks,
        routed=st.booleans(),
    )
    def put(self, entries, pick, routed):
        dht = self.dht
        origin = self._member(pick) if routed else None
        if len(entries) == 1 and origin is None:
            key, value = entries[0]
            dht_put(dht, key, value, identity=value)
        else:
            batch = [(key % KEY_SPACE, value, value, 0, "dht.put") for key, value in entries]
            dht.put_many(batch, origin=origin)
        entries = [(key % KEY_SPACE, value) for key, value in entries]
        self.pairs.update(entries)
        ring = sorted(self.order)
        for key, value in entries:
            assert value in dht.get_local(reference_owner(ring, key), key)

    @precondition(lambda self: self.order)
    @rule(index=st.integers(min_value=0, max_value=len(FILES) - 1), pick=picks)
    def republish(self, index, pick):
        dht, plan, origin = self.dht, self.plans[index], self._member(pick)
        model, meter = self._buckets(), dht.meter
        before = meter.messages, meter.bytes
        receipt = self.publisher.publish_plan(plan, origin)
        # The model: route each row along the reference walk (the put
        # stabilized first), price it, and give it to the owner and the
        # members after it wherever its identity is missing.
        ring, cost = sorted(self.order), dht.cost_model
        messages = byte_count = 0
        for key, row, identity, payload_bytes, _ in plan.entries:
            _, path, _ = _run(reference_iter_lookup(dht, key, origin))
            hops, start = len(path) - 1, ring.index(path[-1])
            copies = min(dht.replication, len(ring)) - 1
            messages += max(1, hops) + copies
            byte_count += cost.routed_bytes(payload_bytes, hops)
            byte_count += copies * cost.message_bytes(payload_bytes)
            mark = _Copy(row)  # one per row, however many stores lack it
            for step in range(copies + 1):
                bucket = model.setdefault(ring[(start + step) % len(ring)], {})
                bucket.setdefault(key, {}).setdefault(identity, mark)
            self.pairs.add((key, _hashable(row)))
        assert (receipt.messages, receipt.bytes) == (messages, byte_count)
        assert (meter.messages - before[0], meter.bytes - before[1]) == (messages, byte_count)
        # The stores: the model's handles everywhere; a value the model
        # kept is the very object it was; a row's copies are one object,
        # equal to the plan's row and not it.
        after = self._buckets()
        assert {node: keyed.keys() for node, keyed in after.items()} == {
            node: keyed.keys() for node, keyed in model.items()
        }
        shared: dict[int, set[int]] = {}
        for node_id, keyed in model.items():
            for key, bucket in keyed.items():
                assert after[node_id][key].keys() == bucket.keys()
                for identity, value in bucket.items():
                    stored = after[node_id][key][identity]
                    if isinstance(value, _Copy):
                        assert stored == value.row and stored is not value.row
                        shared.setdefault(id(value), set()).add(id(stored))
                    else:
                        assert stored is value
        assert all(len(objects) == 1 for objects in shared.values())

    @precondition(lambda self: self.order)
    @rule(key=keys, pick=picks)
    def get_raw(self, key, pick):
        dht = self.dht
        key %= KEY_SPACE
        expected = {value for pair_key, value in self.pairs if pair_key == key}
        try:
            got = dht_get(dht, key, self._member(pick))
        except KeyNotFoundError:
            got = []
        # The ring owner answers, with its own values and no one else's.
        assert got == dht.get_local(reference_owner(sorted(self.order), key), key)
        assert len(got) == len(set(got)) and set(got) <= expected
        if not dht.is_suspect(key):
            assert set(got) == expected

    @precondition(lambda self: self.order)
    @rule(key=keys, pick=picks)
    def lookup(self, key, pick):
        dht, origin = self.dht, self._member(pick)
        # Over whatever tables exist now: the hop-by-hop walk.
        walked = _run(dht.iter_lookup(key, origin))
        reference = _run(reference_iter_lookup(dht, key, origin))
        if isinstance(walked, str):
            assert walked == reference
        else:
            assert (walked.owner, walked.path, walked.retries) == reference
        # After stabilizing (lookup does it): the cached route.
        result = lookup_from(dht, key, origin)
        owner, path, _ = _run(reference_iter_lookup(dht, key, origin))
        assert result.owner == owner == reference_owner(sorted(self.order), key)
        assert result.path == path

    @precondition(lambda self: self.order)
    @rule(pick=picks, target_pick=picks, join=st.booleans(), gone_pick=picks)
    def route_hops_and_ship_batch(self, pick, target_pick, join, gone_pick):
        dht = self.dht
        first, second = self._member(pick), self._member(target_pick)

        def counted(origin, target):
            """The hops of ``route_hops`` from ``origin`` to ``target``,
            checked against the reference path, and whether the call was a
            route-cache hit. Every call moves the counters by exactly one."""
            hits, misses = dht.route_cache_hits, dht.route_cache_misses
            hops = dht.route_hops(target, origin)
            moved = (dht.route_cache_hits - hits, dht.route_cache_misses - misses)
            assert moved in ((1, 0), (0, 1))
            _, path, _ = _run(reference_iter_lookup(dht, target, origin))
            assert hops == len(path) - 1
            return hops, moved == (1, 0)

        def shipped(origin, target):
            """A batch between two members: one direct message of one hop
            (none to itself), charged once, and no route looked up."""
            counters = (dht.route_cache_hits, dht.route_cache_misses)
            before = dht.meter.snapshot()
            result = dht.ship_batch(origin, target, 64)
            price = dht.cost_model.message_bytes(64)
            assert result == (int(origin != target), 1, price)
            assert (dht.route_cache_hits, dht.route_cache_misses) == counters
            after = dht.meter.snapshot()
            assert (after.messages - before.messages, after.bytes - before.bytes) == (1, price)

        # Each direction: the first call of the epoch (after the lazy
        # stabilize), then the same pair again, a memo hit, unchanged and
        # counted as a hit, and a batch over it.
        pairs = ((first, second), (second, first))
        for origin, target in pairs:
            hops, _ = counted(origin, target)
            assert counted(origin, target) == (hops, True)
            shipped(origin, target)
        if join:
            # A join moves the epoch and flushes the memo with the route
            # cache: each pair's next call is a miss, routed on the new ring.
            self.order.append(dht.create_node().node_id)
            for index, (origin, target) in enumerate(pairs):
                hops, hit = counted(origin, target)
                assert hit == (index == 1 and first == second)
                shipped(origin, target)
        if self.departed:
            # A batch with a departed end raises and charges nothing.
            gone = self.departed[gone_pick % len(self.departed)]
            before = dht.meter.snapshot()
            for origin, target in ((gone, first), (first, gone)):
                with pytest.raises(NodeNotFoundError):
                    dht.ship_batch(origin, target, 64)
            assert dht.meter.snapshot() == before

    @precondition(lambda self: self.order)
    @rule(key=keys, pick=picks)
    def local_contains(self, key, pick):
        node_id = self._member(pick)
        built = set(self.dht._built)
        key %= KEY_SPACE
        held = any(stored == key for _, stored, _ in self.dht.stored_items(node_id))
        assert self.dht.local_contains(node_id, key) == held
        assert self.dht.get_local(node_id, key) == [] or held
        assert set(self.dht._built) == built

    @precondition(lambda self: self.order)
    @rule(pick=picks)
    def local_view(self, pick):
        # Every published key, at its owner and at one more member: the
        # views the invariant below then re-reads after each later step.
        ring = sorted(self.order)
        for key in self.view_keys:
            for node_id in {reference_owner(ring, key), self._member(pick)}:
                view = self.dht.local_view(node_id, key, StoredList)
                self.views[(node_id, key)] = (view, self.dht.get_local(node_id, key))

    # -- invariants ------------------------------------------------------

    @invariant()
    def membership_matches_join_order(self):
        dht, order = self.dht, self.order
        assert list(dht.nodes) == order
        assert len(dht.nodes) == len(order) == dht.size
        assert all(node_id in dht.nodes for node_id in order)
        assert not any(node_id in dht.nodes for node_id in self.departed)
        assert dht.member_ids() == sorted(order)
        assert set(dht._built) <= set(order)

    @invariant()
    def published_snapshot_keeps_its_membership(self):
        dht = self.dht
        snapshot = dht._ring_cell.snapshot
        fresh = self.published is None or snapshot is not self.published[0]
        if snapshot is not None and fresh and not dht._stale:
            # No join or leave since this stabilize: the ring still holds
            # its membership, so a frozen view taken now is taken "then".
            self.published = (snapshot, dht._ring.frozen(), sorted(self.order))
        if self.published is not None:
            snapshot, view, members = self.published
            assert list(snapshot._ring) == list(view) == members
            assert len(snapshot) == len(members)

    @invariant()
    def stored_list_views_are_fresh(self):
        dht = self.dht
        for (node_id, key), (view, values) in list(self.views.items()):
            if node_id not in dht.nodes:
                del self.views[(node_id, key)]
                continue
            stored = dht.get_local(node_id, key)
            current = dht.local_view(node_id, key, StoredList)
            assert current.ids == StoredList(stored).ids
            unchanged = len(stored) == len(values) and all(
                now is then for now, then in zip(stored, values)
            )
            assert unchanged or current is not view
            self.views[(node_id, key)] = (current, stored)

    @invariant()
    def no_store_holds_two_equal_values_under_a_key(self):
        for node_id, key, stored in self.dht.stored_items():
            assert len({_hashable(value) for value in stored}) == len(stored), (node_id, key)

    @invariant()
    def stored_pairs_match_oracle(self):
        assert set(self._holders()) == self.pairs


MembershipMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=25, deadline=None
)
TestMembershipMachine = MembershipMachine.TestCase

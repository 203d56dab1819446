"""Property suite: the sorted-list ring == the routing tables'
written-out definition.

Ring primitives are held to their definitions over a sorted id list:
the owner is the first id clockwise from the key, successors and the
predecessor are the clockwise neighbours, and fingers are what
``tests/oracle.py``'s ``reference_fingers`` gives (all 160 finger starts
looked up, one by one). Hypothesis drives randomized churn schedules —
joins, graceful and abrupt departures, stabilizes and lookups — and
whenever the ring is freshly stabilized every node's snapshot-derived
tables must equal that definition. Bulk population (the million-peer
fast path) must agree with a network grown node by node from the same
ids.

A construction-only extrapolation test pins the memory claim: deep
bytes-per-peer measured at 50k peers is per-peer-constant by
construction (one list cell per id, slotted nodes, lazy tables), so the
measured figure extrapolates to the million-peer ceiling recorded in
``BENCH_shard.json``.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from oracle import reference_fingers
from repro.common.ids import KEY_SPACE
from repro.dht.network import DhtNetwork
from repro.dht.ring import Ring, bytes_per_peer

keys = st.integers(min_value=0, max_value=KEY_SPACE - 1)


# ----------------------------------------------------------------------
# Ring primitives against their definitions
# ----------------------------------------------------------------------


class TestRingPrimitives:
    @given(ids=st.lists(keys, min_size=1, max_size=40, unique=True), key=keys)
    @settings(max_examples=100)
    def test_responsible_is_first_id_clockwise(self, ids, key):
        ring = Ring(ids=ids)
        clockwise = [node for node in sorted(ids) if node >= key]
        assert ring.responsible(key) == (clockwise[0] if clockwise else min(ids))
        assert list(ring) == sorted(ids) and len(ring) == len(ids)
        assert all(node in ring for node in ids)

    @given(
        ids=st.lists(keys, min_size=1, max_size=40, unique=True),
        probe=st.integers(min_value=0, max_value=39),
        count=st.integers(min_value=1, max_value=10),
    )
    @settings(max_examples=100)
    def test_neighbours_and_fingers_match_definition(self, ids, probe, count):
        members = sorted(ids)
        ring = Ring(ids=ids)
        position = probe % len(members)
        node = members[position]
        clockwise = members[position + 1 :] + members[:position]
        assert ring.successor_list(node, count) == clockwise[:count]
        assert ring.predecessor_of(node) == (clockwise[-1] if clockwise else None)
        assert ring.fingers_of(node) == reference_fingers(members, node)


# ----------------------------------------------------------------------
# Network-level churn against the definition
# ----------------------------------------------------------------------

#: one churn step: join a new peer, remove a live one (gracefully or
#: abruptly), force a stabilize round, or look a key up from a live
#: origin. Indices are resolved modulo the current population so every
#: generated schedule is valid.
churn_ops = st.one_of(
    st.tuples(st.just("join"), keys),
    st.tuples(st.just("leave"), st.integers(min_value=0, max_value=10 ** 6)),
    st.tuples(st.just("crash"), st.integers(min_value=0, max_value=10 ** 6)),
    st.tuples(st.just("stabilize"), st.just(0)),
    st.tuples(st.just("lookup"), keys),
)


def _assert_tables_match_definition(network: DhtNetwork) -> None:
    """Every node's tables equal their definition over the membership
    (call only when no membership change has landed since a stabilize)."""
    members = sorted(network.nodes)
    for position, node_id in enumerate(members):
        node = network.nodes[node_id]
        assert node.fingers == reference_fingers(members, node_id)
        clockwise = members[position + 1 :] + members[:position]
        assert node.successors == clockwise[: node.successor_count]
        assert node.predecessor == (clockwise[-1] if clockwise else None)


class TestNetworkChurnEquivalence:
    @given(ops=st.lists(churn_ops, min_size=1, max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_interleaved_churn_keeps_tables_at_their_definition(self, ops):
        network = DhtNetwork(rng=5)
        live: list[int] = []
        for op, value in ops:
            stabilized = False
            if op == "join":
                if value in network.nodes:
                    continue
                network.create_node(value)
                live.append(value)
            elif op in ("leave", "crash"):
                if len(live) <= 1:
                    continue
                node_id = live.pop(value % len(live))
                network.remove_node(node_id, graceful=op == "leave")
            elif op == "stabilize":
                network.stabilize()
                stabilized = True
            elif op == "lookup":
                if not live:
                    continue
                origin = live[value % len(live)]
                result = network.lookup(value, origin=origin)
                assert result.owner == network.owner_of(value)
                assert result.path[0] == origin and result.path[-1] == result.owner
                stabilized = True  # lookup() stabilizes a stale ring first
            assert sorted(network.nodes) == sorted(live)
            if stabilized:
                _assert_tables_match_definition(network)

    @given(count=st.integers(min_value=1, max_value=60), key=keys)
    @settings(max_examples=25, deadline=None)
    def test_populate_then_lookup_matches(self, count, key):
        """Bulk population (the million-peer fast path) must agree with
        a reference network grown node-by-node from the same ids."""
        bulk, reference = DhtNetwork(rng=5), DhtNetwork(rng=5)
        ids = [node.node_id for node in bulk.populate(count)]
        for node_id in ids:
            reference.create_node(node_id)
        reference.stabilize()
        assert bulk.owner_of(key) == reference.owner_of(key)
        origin = ids[key % count]
        a = bulk.lookup(key, origin=origin)
        b = reference.lookup(key, origin=origin)
        assert (a.owner, a.path) == (b.owner, b.path)
        assert (bulk.meter.bytes, bulk.meter.messages) == (
            reference.meter.bytes,
            reference.meter.messages,
        )
        for node_id in ids:
            packed, grown = bulk.nodes[node_id], reference.nodes[node_id]
            assert packed.fingers == grown.fingers
            assert packed.successors == grown.successors
            assert packed.predecessor == grown.predecessor
        _assert_tables_match_definition(bulk)


# ----------------------------------------------------------------------
# Memory ceiling: bytes/peer measured at 50k, extrapolated to 1M
# ----------------------------------------------------------------------


def test_million_peer_bytes_per_peer_ceiling_by_extrapolation():
    """Deep-measured routing bytes per peer at 50k peers must clear the
    1 KB/peer million-peer ceiling with margin.

    Per-peer cost is constant by construction — one list cell pointing at
    the id the nodes dict already holds, a slotted node, unmaterialized
    tables — so a 50k sample extrapolates linearly; the recorded
    ``BENCH_shard.json`` pins the actual 1M measurement (~210 B/peer) and
    this test keeps the regression signal cheap enough for every CI run.
    """
    network = DhtNetwork(rng=13)
    network.populate(50_000)
    per_peer = bytes_per_peer(network)
    assert per_peer <= 1024.0, f"{per_peer:.0f} B/peer at 50k, ceiling 1024"
    projected_1m_gib = per_peer * 1_000_000 / (1 << 30)
    assert projected_1m_gib < 1.0, "a million peers must fit in under 1 GiB of ring state"

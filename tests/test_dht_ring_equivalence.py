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
ids. The published snapshot shares the ring's list until the next join
or leave copies it, and must stay frozen at its stabilize: between two
stabilizes every member's tables equal the definition over the *last
stabilized* membership.

A construction-only extrapolation test pins the memory claim: deep
bytes-per-peer measured at 50k peers is per-peer-constant by
construction (an idle peer is its id and two list cells, and no node),
so the measured figure extrapolates to a million peers (the README's
capacity table measures 64.4 B/peer at 1M). Membership reads and the accounting build no
node, and a fresh-interpreter 300k-peer populate pins peak RSS growth.
"""

from __future__ import annotations

import gc
import os
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings, strategies as st

from oracle import reference_fingers, ring_of
from repro.common.ids import KEY_SPACE, hash_key
from repro.dht.network import DhtNetwork
from repro.dht.node import DhtNode
from repro.dht.ring import bytes_per_peer, ring_state_bytes

keys = st.integers(min_value=0, max_value=KEY_SPACE - 1)


# ----------------------------------------------------------------------
# Ring primitives against their definitions
# ----------------------------------------------------------------------


class TestRingPrimitives:
    @given(ids=st.lists(keys, min_size=1, max_size=40, unique=True), key=keys)
    @settings(max_examples=100)
    def test_responsible_is_first_id_clockwise(self, ids, key):
        ring = ring_of(ids)
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
        ring = ring_of(ids)
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
# Copy-on-write snapshots: frozen at their stabilize
# ----------------------------------------------------------------------

#: one step between stabilizes: join a new peer, remove a live one
#: (gracefully or abruptly), hand-assign a live peer's fingers, or
#: stabilize. Indices are resolved modulo the current population.
cow_ops = st.one_of(
    st.tuples(st.just("join"), keys),
    st.tuples(st.just("leave"), st.integers(min_value=0, max_value=10 ** 6)),
    st.tuples(st.just("crash"), st.integers(min_value=0, max_value=10 ** 6)),
    st.tuples(st.just("assign"), st.integers(min_value=0, max_value=10 ** 6)),
    st.tuples(st.just("stabilize"), st.just(0)),
)


class TestCopyOnWriteSnapshot:
    @given(
        seed=st.integers(min_value=0, max_value=2 ** 16),
        start=st.integers(min_value=1, max_value=12),
        ops=st.lists(cow_ops, min_size=1, max_size=30),
    )
    @settings(max_examples=60, deadline=None)
    def test_snapshot_stays_at_the_last_stabilized_membership(self, seed, start, ops):
        network = DhtNetwork(rng=seed)
        network.populate(start)
        stabilized = sorted(network.nodes)
        #: ids that joined since the last stabilize (never in its tables)
        joined: set[int] = set()
        #: hand-assigned fingers, which last until the next stabilize
        assigned: dict[int, list[int]] = {}
        for op, value in ops:
            live = sorted(network.nodes)
            if op == "join":
                if value in network.nodes:
                    continue
                network.create_node(value)
                joined.add(value)
            elif op in ("leave", "crash"):
                if len(live) <= 1:
                    continue
                node_id = live[value % len(live)]
                network.remove_node(node_id, graceful=op == "leave")
                assigned.pop(node_id, None)
            elif op == "assign":
                node_id = live[value % len(live)]
                table = [live[(value + 1) % len(live)]]
                network.nodes[node_id].fingers = table
                assigned[node_id] = table
            else:
                network.stabilize()
                stabilized = sorted(network.nodes)
                joined.clear()
                assigned.clear()
            snapshot = network._ring_cell.snapshot
            assert list(snapshot._ring) == stabilized
            assert list(network._ring) == sorted(network.nodes)
            for node_id, node in network.nodes.items():
                if node_id in joined:
                    fingers, successors, predecessor = [], [], None
                else:
                    position = stabilized.index(node_id)
                    clockwise = stabilized[position + 1 :] + stabilized[:position]
                    fingers = reference_fingers(stabilized, node_id)
                    successors = clockwise[: node.successor_count]
                    predecessor = clockwise[-1] if clockwise else None
                assert node.fingers == assigned.get(node_id, fingers)
                assert node.successors == successors
                assert node.predecessor == predecessor


# ----------------------------------------------------------------------
# Memory: one shared backing, and bytes/peer measured at 50k
# ----------------------------------------------------------------------


def _idle_ring_bytes(network: DhtNetwork, backings: list[list[int]]) -> int:
    """``ring_state_bytes`` written out for a network whose built nodes are
    all idle and whose ring and snapshot hold ``backings`` between them."""
    getsizeof = sys.getsizeof
    snapshot = network._ring_cell.snapshot
    total = getsizeof(network._ring) + getsizeof(network._order)
    total += getsizeof(snapshot) + getsizeof(snapshot._ring)
    total += sum(map(getsizeof, backings))
    total += sum(getsizeof(node_id) for node_id in network._ring)
    total += getsizeof(network._built)
    for node in network._built.values():
        assert node._tables is None and node._compiled is None
        total += getsizeof(node)
    return total


def test_ring_and_snapshot_count_one_backing_until_membership_moves():
    network = DhtNetwork(rng=17)
    network.populate(500)
    ring = network._ring
    snapshot = network._ring_cell.snapshot
    assert ring_state_bytes(network) == _idle_ring_bytes(network, [ring._ids])
    network.create_node()
    assert snapshot._ring._ids is not ring._ids
    assert ring_state_bytes(network) == _idle_ring_bytes(
        network, [ring._ids, snapshot._ring._ids]
    )
    network.stabilize()
    assert ring_state_bytes(network) == _idle_ring_bytes(network, [ring._ids])


def _live_dht_nodes() -> int:
    """How many :class:`DhtNode` objects exist in this process."""
    gc.collect()
    return sum(type(obj) is DhtNode for obj in gc.get_objects())


def test_membership_reads_and_accounting_build_no_node():
    """An idle peer is its id: populating, measuring and asking who is a
    member builds no node, and a lookup builds exactly its path."""
    before = _live_dht_nodes()
    network = DhtNetwork(rng=13)
    network.populate(50_000)
    assert bytes_per_peer(network) > 0
    assert len(network.nodes) == 50_000
    member = network.random_node_id()
    assert member in network.nodes and member + 1 not in network.nodes
    assert network.member_ids() == sorted(network.nodes)
    assert not network._built and _live_dht_nodes() == before
    result = network.lookup(hash_key("one lookup"), origin=member)
    assert set(network._built) == set(result.path)
    assert _live_dht_nodes() == before + len(set(result.path))


def test_million_peer_bytes_per_peer_ceiling_by_extrapolation():
    """Deep-measured routing bytes per peer at 50k peers must stay at or
    under 80 B, and a built node with no tables at or under 80 B.

    An idle peer is its id: a 48 B int, one cell of the sorted ring and
    one of the join-order list, and no node at all (~65 B/peer). That is
    constant per peer, so a 50k sample extrapolates linearly to the 1M
    figure in the README's capacity table (64.4 B/peer), and this test
    keeps the regression signal cheap enough for every CI run.
    """
    network = DhtNetwork(rng=13)
    network.populate(50_000)
    per_peer = bytes_per_peer(network)
    assert per_peer <= 80.0, f"{per_peer:.1f} B/peer at 50k, ceiling 80"
    idle = next(iter(network.nodes.values()))
    assert sys.getsizeof(idle) <= 80, f"an idle node costs {sys.getsizeof(idle)} B"
    projected_1m_gib = per_peer * 1_000_000 / (1 << 30)
    assert projected_1m_gib < 1.0, "a million peers must fit in under 1 GiB of ring state"


#: grows ``ru_maxrss`` (KiB on Linux) by what a 300k-peer populate costs
_POPULATE_RSS_SCRIPT = """
import resource
from repro.dht.network import DhtNetwork

def maxrss():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

before = maxrss()
network = DhtNetwork(rng=3)
network.populate(300_000)
print(maxrss() - before, len(network.nodes))
"""


def test_populate_300k_grows_peak_rss_by_at_most_32_mib():
    """Memory pin: a 300k-peer populate, in a fresh interpreter so the
    high-water mark is its own, may grow peak RSS by at most 32 MiB (an
    idle peer is ~65 B of ring state plus the build's transient sort)."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-c", _POPULATE_RSS_SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    grown_kib, members = map(int, result.stdout.split())
    assert members == 300_000
    assert grown_kib <= 32 * 1024, f"populate(300_000) grew peak RSS by {grown_kib} KiB"

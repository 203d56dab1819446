"""Property suite: compact array-backed ring == full-width list ring ==
the routing tables' written-out definition.

The compact ring (``array('Q')`` words) and the list ring (full-width
ids) must be observationally identical: same owners, same lookup paths,
same successor lists and fingers, same metered bytes — under any
interleaving of joins, departures, stabilizes, and lookups. Hypothesis
drives randomized churn schedules over both configurations in lockstep
and compares every observable after every step; whenever the rings are
freshly stabilized, every node's snapshot-derived tables are also held
to the definition in ``tests/oracle.py`` (``reference_fingers``: all 160
finger starts looked up, one by one).

A construction-only extrapolation test pins the memory claim: deep
bytes-per-peer measured at 50k compact peers is per-peer-constant by
construction (8-byte ring words, slotted nodes, lazy tables), so the
measured figure extrapolates to the million-peer ceiling recorded in
``BENCH_shard.json``.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from oracle import reference_fingers
from repro.common.ids import KEY_SPACE
from repro.dht.network import DhtNetwork
from repro.dht.ring import COMPACT_SHIFT, Ring, bytes_per_peer

#: compact ids are 64-bit words shifted into the top of the keyspace;
#: drawing small words keeps examples readable while covering wrap-around
words = st.integers(min_value=0, max_value=(1 << 64) - 1)
keys = st.integers(min_value=0, max_value=KEY_SPACE - 1)


# ----------------------------------------------------------------------
# Ring primitives: array('Q') backing vs full-width list backing
# ----------------------------------------------------------------------


class TestRingBackingEquivalence:
    @given(ids=st.lists(words, min_size=1, max_size=40, unique=True), key=keys)
    @settings(max_examples=100)
    def test_responsible_matches(self, ids, key):
        full = [w << COMPACT_SHIFT for w in ids]
        compact = Ring(compact=True, ids=full)
        plain = Ring(compact=False, ids=full)
        assert compact.responsible(key) == plain.responsible(key)

    @given(
        ids=st.lists(words, min_size=1, max_size=40, unique=True),
        probe=st.integers(min_value=0, max_value=39),
        count=st.integers(min_value=1, max_value=10),
    )
    @settings(max_examples=100)
    def test_successors_predecessor_fingers_match(self, ids, probe, count):
        full = [w << COMPACT_SHIFT for w in ids]
        compact = Ring(compact=True, ids=full)
        plain = Ring(compact=False, ids=full)
        node = full[probe % len(full)]
        assert compact.successor_list(node, count) == plain.successor_list(node, count)
        assert compact.predecessor_of(node) == plain.predecessor_of(node)
        assert compact.fingers_of(node) == plain.fingers_of(node)

    @given(ids=st.lists(words, min_size=0, max_size=30, unique=True))
    @settings(max_examples=100)
    def test_sequence_surface_matches(self, ids):
        full = [w << COMPACT_SHIFT for w in ids]
        compact = Ring(compact=True, ids=full)
        plain = Ring(compact=False, ids=full)
        assert list(compact) == list(plain) == sorted(full)
        assert len(compact) == len(plain)
        for node in full:
            assert (node in compact) == (node in plain) is True


# ----------------------------------------------------------------------
# Network-level churn: compact vs list ring in lockstep, and vs definition
# ----------------------------------------------------------------------

#: one churn step: join a new peer, remove a live one (gracefully or
#: abruptly), force a stabilize round, or look a key up from a live
#: origin. Indices are resolved modulo the current population so every
#: generated schedule is valid.
churn_ops = st.one_of(
    st.tuples(st.just("join"), words),
    st.tuples(st.just("leave"), st.integers(min_value=0, max_value=10 ** 6)),
    st.tuples(st.just("crash"), st.integers(min_value=0, max_value=10 ** 6)),
    st.tuples(st.just("stabilize"), st.just(0)),
    st.tuples(st.just("lookup"), keys),
)


def _build_pair() -> tuple[DhtNetwork, DhtNetwork]:
    compact = DhtNetwork(rng=5, compact_ids=True)
    reference = DhtNetwork(rng=5, compact_ids=False)
    return compact, reference


def _assert_same_observables(
    compact: DhtNetwork, reference: DhtNetwork, stabilized: bool
) -> None:
    """Both rings agree on everything; ``stabilized`` says no membership
    change has landed since the last stabilize, so the tables must also
    equal their definition over the current membership."""
    members = sorted(compact.nodes)
    assert members == sorted(reference.nodes)
    assert compact.meter.bytes == reference.meter.bytes
    assert compact.meter.messages == reference.meter.messages
    for position, node_id in enumerate(members):
        packed = compact.nodes[node_id]
        plain = reference.nodes[node_id]
        assert packed.fingers == plain.fingers, f"fingers diverge at {node_id:#x}"
        assert packed.successors == plain.successors
        assert packed.predecessor == plain.predecessor
        if stabilized:
            assert plain.fingers == reference_fingers(members, node_id)
            clockwise = members[position + 1 :] + members[:position]
            assert plain.successors == clockwise[: plain.successor_count]
            assert plain.predecessor == (clockwise[-1] if clockwise else None)


class TestNetworkChurnEquivalence:
    @given(ops=st.lists(churn_ops, min_size=1, max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_interleaved_churn_is_observationally_identical(self, ops):
        compact, reference = _build_pair()
        live: list[int] = []
        stabilized = False
        for op, value in ops:
            if op == "join":
                node_id = (value << COMPACT_SHIFT) % KEY_SPACE
                if node_id in compact.nodes:
                    continue
                compact.create_node(node_id)
                reference.create_node(node_id)
                live.append(node_id)
                stabilized = False
            elif op in ("leave", "crash"):
                if len(live) <= 1:
                    continue
                node_id = live.pop(value % len(live))
                graceful = op == "leave"
                compact.remove_node(node_id, graceful=graceful)
                reference.remove_node(node_id, graceful=graceful)
                stabilized = False
            elif op == "stabilize":
                compact.stabilize()
                reference.stabilize()
                stabilized = True
            elif op == "lookup":
                if not live:
                    continue
                origin = live[value % len(live)]
                a = compact.lookup(value, origin=origin)
                b = reference.lookup(value, origin=origin)
                assert a.owner == b.owner
                assert a.path == b.path, "lookup paths diverged"
                assert a.hops == b.hops
                stabilized = True  # lookup() stabilizes a stale ring first
            _assert_same_observables(compact, reference, stabilized)

    @given(count=st.integers(min_value=1, max_value=60), key=keys)
    @settings(max_examples=25, deadline=None)
    def test_populate_then_lookup_matches(self, count, key):
        """Bulk population (the million-peer fast path) must agree with
        a reference network grown node-by-node from the same ids."""
        compact, reference = _build_pair()
        ids = [node.node_id for node in compact.populate(count)]
        for node_id in ids:
            reference.create_node(node_id)
        reference.stabilize()
        assert compact.owner_of(key) == reference.owner_of(key)
        origin = ids[key % count]
        a = compact.lookup(key, origin=origin)
        b = reference.lookup(key, origin=origin)
        assert (a.owner, a.path) == (b.owner, b.path)
        _assert_same_observables(compact, reference, stabilized=True)


# ----------------------------------------------------------------------
# Memory ceiling: bytes/peer measured at 50k, extrapolated to 1M
# ----------------------------------------------------------------------


def test_million_peer_bytes_per_peer_ceiling_by_extrapolation():
    """Deep-measured routing bytes per peer at 50k compact peers must
    clear the 1 KB/peer million-peer ceiling with margin.

    Per-peer cost is constant by construction — an 8-byte ring word, a
    slotted node, unmaterialized tables — so a 50k sample
    extrapolates linearly; the recorded ``BENCH_shard.json`` pins the
    actual 1M measurement (~210 B/peer) and this test keeps the
    regression signal cheap enough for every CI run.
    """
    network = DhtNetwork(rng=13, compact_ids=True)
    network.populate(50_000)
    per_peer = bytes_per_peer(network)
    assert per_peer <= 1024.0, f"{per_peer:.0f} B/peer at 50k, ceiling 1024"
    projected_1m_gib = per_peer * 1_000_000 / (1 << 30)
    assert projected_1m_gib < 1.0, "a million peers must fit in under 1 GiB of ring state"

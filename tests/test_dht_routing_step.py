"""The compiled routing step and the skipping finger construction, held
equal to their written-out definitions in ``tests/oracle.py``.

Production routing answers "own it, next hop, or dead end" from a
per-node compiled table (sorted clockwise offsets, one bisect) and
derives finger tables in O(log N) owner lookups. Neither shortcut may
show: every table, every step and every walk must equal what the
160-step finger definition, the interval test and the linear scan over
``fingers + successors`` give — for hand-assigned tables no stabilize
would produce, for un-normalised keys, across every way a table can
change, and hop by hop while churn lands mid-walk.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from oracle import reference_fingers, reference_iter_lookup, reference_step, ring_of
from repro.common.errors import DhtError
from repro.common.ids import KEY_SPACE, in_interval, ring_distance
from repro.dht.network import DhtNetwork
from repro.dht.node import OWNS, DhtNode
from repro.dht.ring import RingCell, RingSnapshot

WORD_SPACE = 1 << 64
#: 64-bit words shifted into the top of the keyspace: sparse ids whose low
#: 96 bits are zero, so most keys fall strictly between two members
WORD_SHIFT = 96
ID_BITS = (4, 8, 20, 64, 160)
RING_SIZES = (1, 2, 3, 4, 5, 7, 10, 16, 33, 100, 250, 500)


# ----------------------------------------------------------------------
# (a) finger tables: distance-skipping construction == 160-step definition
# ----------------------------------------------------------------------


def clustered(space: int, bits: int, base: int, smalls) -> list[int]:
    """Ids ``base + small`` wrapped into ``space`` — a dense ``bits``-wide
    cluster that straddles zero whenever ``base`` sits near the top."""
    return sorted({(base + small) % space for small in smalls})


@st.composite
def id_clusters(draw, max_bits: int, max_size: int = 40):
    """(space-relative sorted ids, probe ids) from one ``bits``-wide range."""
    bits = draw(st.sampled_from([b for b in ID_BITS if b <= max_bits]))
    space = 1 << max_bits
    base = draw(st.sampled_from((0, space - (1 << (bits - 1)), space - 1, space // 3)))
    small = st.integers(min_value=0, max_value=(1 << bits) - 1)
    smalls = draw(
        st.lists(small, min_size=1, max_size=min(max_size, 1 << bits), unique=True)
    )
    probes = draw(st.lists(small, min_size=1, max_size=4))
    return (
        clustered(space, bits, base, smalls),
        [(base + probe) % space for probe in probes],
    )


class TestFingerTables:
    @given(cluster=id_clusters(max_bits=160), far=st.integers(0, KEY_SPACE - 1))
    @settings(max_examples=120, deadline=None)
    def test_list_ring_matches_definition(self, cluster, far):
        ids, probes = cluster
        ring = ring_of(ids)
        for node_id in ids[:6] + ids[-2:] + probes + [far]:
            assert ring.fingers_of(node_id) == reference_fingers(ids, node_id)

    @given(cluster=id_clusters(max_bits=64), far=st.integers(0, KEY_SPACE - 1))
    @settings(max_examples=120, deadline=None)
    def test_word_aligned_ring_matches_definition(self, cluster, far):
        words, probe_words = cluster
        ids = [word << WORD_SHIFT for word in words]
        probes = [word << WORD_SHIFT for word in probe_words]
        ring = ring_of(ids)
        # ``far`` is (almost surely) not a multiple of 2**96: a
        # non-member id between two word-aligned members.
        for node_id in ids[:6] + ids[-2:] + probes + [far]:
            assert ring.fingers_of(node_id) == reference_fingers(ids, node_id)

    @pytest.mark.parametrize("bits", ID_BITS)
    def test_every_ring_size_up_to_500(self, bits):
        """Seeded sweep over ring sizes 1 … 500 in each id width — as
        full-width ids and, where they fit a word, shifted to the top of
        the keyspace: every member (a sample of them on the big rings)
        and a few non-members."""
        rng = random.Random(bits)
        layouts = [(KEY_SPACE, 0)] + ([(WORD_SPACE, WORD_SHIFT)] if bits <= 64 else [])
        for size in RING_SIZES:
            if size > 1 << bits:
                continue
            for space, shift in layouts:
                base = rng.choice((0, space - (1 << (bits - 1)), rng.randrange(space)))
                smalls = (
                    rng.sample(range(1 << bits), size)
                    if bits <= 20
                    else [rng.getrandbits(bits) for _ in range(size)]
                )
                ids = [i << shift for i in clustered(space, bits, base, smalls)]
                ring = ring_of(ids)
                members = ids if len(ids) <= 40 else rng.sample(ids, 40)
                strangers = [
                    ((base + rng.getrandbits(bits)) % space) << shift for _ in range(4)
                ] + [rng.getrandbits(160)]
                for node_id in members + strangers:
                    assert ring.fingers_of(node_id) == reference_fingers(ids, node_id)


# ----------------------------------------------------------------------
# (b) the step == owns + linear scan + first-successor fallback
# ----------------------------------------------------------------------

#: ids from a tiny universe (so entries collide with each other, with the
#: node and with keys) mixed with full-width ones
ring_ids = st.one_of(
    st.integers(min_value=0, max_value=31),
    st.integers(min_value=KEY_SPACE - 16, max_value=KEY_SPACE - 1),
    st.integers(min_value=0, max_value=KEY_SPACE - 1),
)
tables = st.lists(ring_ids, max_size=12)


@st.composite
def hand_built_nodes(draw):
    """A standalone node with arbitrary assigned tables: empty, naming
    itself, repeating entries, ids no ring ever held."""
    node_id = draw(ring_ids)
    node = DhtNode(node_id)
    fingers, successors = draw(tables), draw(tables)
    if draw(st.booleans()):
        fingers = fingers + [node_id]
    if draw(st.booleans()):
        successors = [node_id] + successors
    if draw(st.booleans()):
        successors = successors + fingers[:2]
    node.fingers, node.successors = fingers, successors
    node.predecessor = draw(st.one_of(st.none(), st.just(node_id), ring_ids))
    return node


def probe_keys(node: DhtNode, key: int) -> list[int]:
    """``key`` plus the keys a table lookup is likeliest to get wrong."""
    entries = node.fingers + node.successors
    keys = [key, key + KEY_SPACE, node.node_id, node.node_id + 1, node.node_id - 1]
    for entry in entries[:6]:
        keys += [entry, entry + 1, entry - 1, entry + 3 * KEY_SPACE]
    if node.predecessor is not None:
        keys += [node.predecessor, node.predecessor + 1]
    return keys


def assert_step_matches(node: DhtNode, key: int) -> None:
    assert node.route(key) == reference_step(node, key)


class TestRoutingStep:
    @given(node=hand_built_nodes(), key=ring_ids)
    @settings(max_examples=300, deadline=None)
    def test_route_matches_reference(self, node, key):
        for probe in probe_keys(node, key):
            assert_step_matches(node, probe)

    @given(node=hand_built_nodes(), key=ring_ids)
    @settings(max_examples=200, deadline=None)
    def test_thin_reads_match_their_definitions(self, node, key):
        node_id, predecessor = node.node_id, node.predecessor
        assert node.first_successor() == (
            node.successors[0] if node.successors else None
        )
        for probe in probe_keys(node, key):
            assert (node.route(probe) == OWNS) == (
                predecessor is None or in_interval(probe, predecessor, node_id)
            )
            closer = [
                entry
                for entry in node.fingers + node.successors
                if entry != node_id
                and ring_distance(entry, probe) < ring_distance(node_id, probe)
            ]
            expected = min(closer, key=lambda e: ring_distance(e, probe), default=None)
            assert node.closest_preceding(probe) == expected

    def test_fallback_is_first_successor_even_when_it_is_the_node_itself(self):
        node = DhtNode(10)
        node.successors, node.predecessor = [10, 20], 5
        assert node.route(12) == 10  # no entry in (10, 12]: successors[0]
        assert node.route(25) == 20

    def test_no_successor_is_the_only_dead_end(self):
        node = DhtNode(10)
        node.fingers, node.predecessor = [40], 5
        assert node.route(50) == 40
        assert node.route(30) is None  # nothing precedes 30, nobody to fall back on
        assert node.route(7) == OWNS


# ----------------------------------------------------------------------
# (c) every way a table changes invalidates the compiled table
# ----------------------------------------------------------------------


class TestCompiledTableInvalidation:
    @given(
        node=hand_built_nodes(),
        key=ring_ids,
        which=st.sampled_from(("fingers", "successors", "predecessor")),
        table=tables,
        predecessor=st.one_of(st.none(), ring_ids),
    )
    @settings(max_examples=200, deadline=None)
    def test_assignment(self, node, key, which, table, predecessor):
        assert_step_matches(node, key)  # compiles the table about to go stale
        if which == "predecessor":
            node.predecessor = predecessor
        else:
            setattr(node, which, table)
        for probe in probe_keys(node, key):
            assert_step_matches(node, probe)

    @given(
        words=st.lists(st.integers(0, WORD_SPACE - 1), min_size=2, max_size=12, unique=True),
        joiner=st.integers(0, WORD_SPACE - 1),
        key=st.integers(0, KEY_SPACE - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_snapshot_version_change(self, words, joiner, key):
        ids = [word << WORD_SHIFT for word in words]
        ring, cell = ring_of(ids), RingCell()
        nodes = [DhtNode(node_id, ring_cell=cell) for node_id in ids]
        cell.snapshot = RingSnapshot(1, ring)
        for node in nodes:
            assert node.fingers == reference_fingers(sorted(ids), node.node_id)
            assert_step_matches(node, key)
        ring.discard(ids[0])
        new_id = joiner << WORD_SHIFT
        if new_id not in ring:
            ring.add(new_id)
        newcomer = DhtNode(new_id, ring_cell=cell)
        assert newcomer.route(key) == OWNS  # never stabilized: empty tables
        cell.snapshot = RingSnapshot(2, ring)
        for node in nodes[1:] + [newcomer]:
            assert node.fingers == reference_fingers(list(ring), node.node_id)
            for probe in probe_keys(node, key):
                assert_step_matches(node, probe)
        # The departed node is absent from the new snapshot: it keeps its
        # old tables, and the table compiled from them.
        departed = nodes[0]
        if new_id != departed.node_id:
            assert departed.fingers == reference_fingers(sorted(ids), departed.node_id)
            assert_step_matches(departed, key)

    def test_setter_invalidates_after_the_pre_assignment_refresh(self):
        """An assignment first materialises the other tables from the
        current snapshot; the compiled table must reflect both."""
        ids = [word << WORD_SHIFT for word in (10, 20, 30, 40)]
        ring, cell = ring_of(ids), RingCell()
        node = DhtNode(ids[0], ring_cell=cell)
        cell.snapshot = RingSnapshot(1, ring)
        key = ids[2] + 1
        assert node.route(key) == ids[2]
        ring.discard(ids[2])
        cell.snapshot = RingSnapshot(2, ring)
        node.successors = [ids[3]]  # refreshes fingers/predecessor to v2 first
        assert ids[2] not in node.fingers
        assert_step_matches(node, key)
        assert node.route(key) == ids[1]


# ----------------------------------------------------------------------
# (d) whole walks under churn == the reference walker
# ----------------------------------------------------------------------

membership_ops = st.one_of(
    st.tuples(st.just("join"), st.integers(0, WORD_SPACE - 1)),
    st.tuples(st.just("leave"), st.integers(0, 10**6)),
    st.tuples(st.just("crash"), st.integers(0, 10**6)),
    st.tuples(st.just("stabilize"), st.just(0)),
)
walk_ops = st.one_of(
    st.tuples(st.just("lookup"), st.integers(0, 2 * KEY_SPACE), st.integers(0, 10**6)),
    st.tuples(
        st.just("iter"),
        st.integers(0, 2 * KEY_SPACE),
        st.integers(0, 10**6),
        # churn to land after each hop of this walk
        st.lists(st.one_of(st.none(), membership_ops), max_size=6),
    ),
)


def apply_membership(network: DhtNetwork, op) -> None:
    kind, value = op
    if kind == "join":
        node_id = value << WORD_SHIFT
        if node_id not in network.nodes:
            network.create_node(node_id)
    elif kind in ("leave", "crash"):
        if network.size > 1:
            victim = sorted(network.nodes)[value % network.size]
            network.remove_node(victim, graceful=kind == "leave")
    else:
        network.stabilize()


def advance(generator):
    """One ``next`` as data: what the generator yielded, returned or raised."""
    try:
        return "yield", next(generator)
    except StopIteration as stop:
        return "return", stop.value
    except DhtError as error:
        return "raise", (type(error), str(error), error.path)


def reference_outcome(network: DhtNetwork, key: int, origin: int):
    """The reference walker run to its end on an undisturbed network."""
    reference = reference_iter_lookup(network, key, origin)
    step = advance(reference)
    while step[0] == "yield":
        step = advance(reference)
    return step


def assert_walks_agree(network: DhtNetwork, key: int, origin: int, between) -> None:
    production = network.iter_lookup(key, origin)
    reference = reference_iter_lookup(network, key, origin)
    repairs_before = network.route_repairs
    pending = list(between)
    while True:
        kind, value = advance(production)
        expected_kind, expected = advance(reference)
        assert kind == expected_kind
        if kind == "return":
            owner, path, retries = expected
            assert (value.owner, value.path, value.retries) == (owner, path, retries)
            assert value.key == key % KEY_SPACE
            assert network.route_repairs - repairs_before == retries
            return
        assert value == expected
        if kind == "raise":
            return
        if pending:
            op = pending.pop(0)
            if op is not None:
                apply_membership(network, op)


class TestWalksUnderChurn:
    @given(
        start=st.integers(min_value=1, max_value=24),
        ops=st.lists(st.one_of(membership_ops, walk_ops), min_size=1, max_size=24),
    )
    @settings(max_examples=40, deadline=None)
    def test_lookup_and_iter_lookup_follow_the_reference(self, start, ops):
        network = DhtNetwork(rng=3)
        seed = random.Random(start)
        for _ in range(start):
            network.create_node(seed.getrandbits(64) << WORD_SHIFT)
        network.stabilize()
        for op in ops:
            if op[0] == "lookup":
                _, key, pick = op
                origin = sorted(network.nodes)[pick % network.size]
                try:
                    result = network.lookup(key, origin)
                except DhtError as error:
                    outcome = "raise", (type(error), str(error), error.path)
                else:
                    outcome = "return", (result.owner, result.path, result.retries)
                # lookup() stabilized first, so the reference walks the
                # same fresh tables and needs no repair.
                assert outcome == reference_outcome(network, key, origin)
            elif op[0] == "iter":
                _, key, pick, between = op
                origin = sorted(network.nodes)[pick % network.size]
                assert_walks_agree(network, key, origin, between)
            else:
                apply_membership(network, op)

    def test_stale_tables_without_stabilize_route_around_departures(self):
        """A fixed schedule that is known to need repairs, so the property
        above is not vacuously about loss-free walks."""
        network = DhtNetwork(rng=11)
        network.populate(48)
        rng = random.Random(2)
        for victim in rng.sample(sorted(network.nodes), 16):
            network.remove_node(victim, graceful=False)
        before = network.route_repairs
        for _ in range(60):
            origin = rng.choice(sorted(network.nodes))
            assert_walks_agree(network, rng.getrandbits(160), origin, ())
        assert network.route_repairs > before

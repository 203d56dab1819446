"""Publishing a file as one compiled plan and one routed batch.

``Publisher.plan_file`` resolves a file into its tuples once and
``DhtNetwork.put_many`` routes, stores and prices them in one body,
charging each category once per file; the hybrid QRS path reuses a plan
across every ultrapeer that snoops the file. None of that may show: the
property below drives the production path and ``oracle.reference_publish``
— the same file a tuple at a time, one charge per message leg — over
twin worlds and holds every store, the meter, the route-cache counters,
the network RNG, the posting sizes the planner reads and each receipt
equal after every step. Each posting size is probed after every step and
read from the owner's memoised view of the list, so it must follow
every publish, handoff and departure.

A republished plan copies a row only where a store lacks its identity,
and the stores one put reaches share that copy; the reference makes a
fresh row per publish and offers it to every store. So the stores must
also hold the same *objects* in the same pattern — which stored rows are
one object — as the reference's, and the tests at the bottom pin the
cases by name.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import DhtError, NodeNotFoundError
from repro.dht.churn import ChurnProcess
from repro.dht.network import DhtNetwork
from repro.hybrid.ultrapeer import HybridUltrapeer
from repro.pier.catalog import Catalog, table_key
from repro.piersearch.publisher import Publisher, compute_file_id
from repro.piersearch.tokenizer import extract_keywords
from repro.workload.library import SharedFile

from oracle import lookup_from, reference_publish

#: few words over many files, so postings share keys (and route-cache regions)
FILES = [
    SharedFile(filename=name, filesize=1000 + index, node_id=7 * index + 3)
    for index, name in enumerate(
        [
            "alpha beta live.mp3",
            "alpha gamma.mp3",
            "beta gamma delta remaster.mp3",
            "delta.mp3",
            "the of and.mp3",  # stop words only: an Item tuple, no postings
            "alpha beta gamma delta epsilon.avi",
            "epsilon live bootleg.mp3",
            "gamma gamma gamma.mp3",
        ]
    )
]


#: every posting-list word of ``FILES``
WORDS = sorted({word for file in FILES for word in extract_keywords(file.filename)})


class World:
    """A DHT with a publisher on it, and the churn that will hit it."""

    def __init__(self, seed: int, replication: int, inverted_cache: bool):
        self.network = DhtNetwork(rng=seed, replication=replication)
        self.network.populate(24)
        self.catalog = Catalog(self.network)
        self.publisher = Publisher(self.network, self.catalog, inverted_cache=inverted_cache)
        self.churn = ChurnProcess(self.network, rng=seed + 1, failure_fraction=0.4)
        self.hybrids: dict[int, HybridUltrapeer] = {}

    def hybrid_at(self, origin: int) -> HybridUltrapeer:
        if origin not in self.hybrids:
            self.hybrids[origin] = HybridUltrapeer(
                len(self.hybrids), origin, self.publisher, search_engine=None
            )
        return self.hybrids[origin]

    def member(self, selector: int) -> int:
        members = sorted(self.network.nodes)
        return members[selector % len(members)]

    def state(self) -> dict:
        network, meter = self.network, self.network.meter
        return {
            "stores": list(network.stored_items()),
            "meter": (meter.messages, meter.bytes, list(meter.by_category.items())),
            "route_cache": (network.route_cache_hits, network.route_cache_misses),
            "rng": network.rng.getstate(),
            "posting_sizes": self.posting_sizes(),
            "row_objects": self.row_objects(),
        }

    def row_objects(self) -> list[int]:
        """Each stored value, in ``stored_items`` order, as the position at
        which its object first appears: equal lists mean the same values
        are one object on both sides."""
        first: dict[int, int] = {}
        return [
            first.setdefault(id(value), len(first))
            for _, _, values in self.network.stored_items()
            for value in values
        ]

    def posting_sizes(self) -> list[int]:
        """What the planner reads for every word of ``FILES``, checked
        against a direct count at the list's ring owner."""
        table = "InvertedCache" if self.publisher.inverted_cache else "Inverted"
        sizes = []
        for word in WORDS:
            size = self.catalog.posting_size(table, word)
            key = table_key(table, word)
            assert size == len(self.network.get_local(self.network.owner_of(key), key))
            sizes.append(size)
        return sizes


def details(file: SharedFile) -> tuple:
    return file.filename, file.filesize, file.ip_address, file.port


def posting_key(world: World, file: SharedFile) -> int:
    """Ring key of the file's first posting list (its Item key if it has none)."""
    keywords = extract_keywords(file.filename)
    if not keywords:
        return table_key("Item", compute_file_id(*details(file)))
    return table_key("InvertedCache" if world.publisher.inverted_cache else "Inverted", keywords[0])


steps = st.lists(
    st.one_of(
        # (file, origin selector or None for a random origin per tuple,
        #  through a hybrid ultrapeer's shared plan or Publisher.publish_file)
        st.tuples(
            st.just("publish"),
            st.integers(0, len(FILES) - 1),
            st.one_of(st.none(), st.integers(0, 5)),
            st.booleans(),
        ),
        st.tuples(st.just("churn"), st.booleans()),
        st.tuples(st.just("depart"), st.integers(0, len(FILES) - 1), st.integers(0, 23)),
    ),
    min_size=3,
    max_size=24,
)


class TestBatchEqualsPerTuple:
    @given(
        seed=st.integers(0, 500),
        replication=st.integers(1, 3),
        inverted_cache=st.booleans(),
        program=steps,
    )
    @settings(max_examples=120, deadline=None)
    def test_plan_and_batch_are_unobservable(self, seed, replication, inverted_cache, program):
        batch = World(seed, replication, inverted_cache)
        reference = World(seed, replication, inverted_cache)
        for step in program:
            if step[0] == "publish":
                _, index, selector, shared = step
                file = FILES[index]
                origin = None if selector is None else batch.member(selector)
                if shared and origin is not None:
                    hybrid = batch.hybrid_at(origin)
                    if not hybrid.publish_file(file):
                        continue  # this ultrapeer already published it
                    receipt = hybrid.receipts[-1]
                else:
                    receipt = batch.publisher.publish_file(*details(file), origin=origin)
                assert receipt == reference_publish(
                    reference.publisher, *details(file), origin=origin
                )
            elif step[0] == "churn":
                for world in (batch, reference):
                    world.churn.churn_step(joins=1, leaves=1, stabilize=step[1])
            else:
                # A publish from an origin that has left: nothing happens.
                _, index, selector = step
                if batch.network.size <= 8:
                    continue
                origin = batch.member(selector)
                for world in (batch, reference):
                    world.network.remove_node(origin, graceful=True)
                with pytest.raises(NodeNotFoundError):
                    batch.publisher.publish_file(*details(FILES[index]), origin=origin)
                with pytest.raises(NodeNotFoundError):
                    reference_publish(reference.publisher, *details(FILES[index]), origin=origin)
            assert batch.state() == reference.state()
        # every distinct file offered through a hybrid was compiled once
        assert len(batch.publisher.plans) == len(
            {key for hybrid in batch.hybrids.values() for key in hybrid._published_keys}
        )
        assert not reference.publisher.plans


def test_a_republished_row_lands_once_across_two_handoffs():
    """A handoff carries each row's dedup handle. Two ultrapeers publish
    one file around a join that takes its posting key over: the joiner
    holds the first publish's row under its identity, so the second
    stores nothing there, and when the joiner leaves again its successor
    holds the row once."""
    batch, reference = World(3, 1, False), World(3, 1, False)
    file = FILES[3]
    key = posting_key(batch, file)
    first, second = batch.member(0), batch.member(1)
    batch.hybrid_at(first).publish_file(file)
    reference_publish(reference.publisher, *details(file), origin=first)
    (row,) = batch.network.get_local(batch.network.owner_of(key), key)
    for world in (batch, reference):
        world.network.create_node(key)  # a node at the key itself owns it
    assert holders_of(batch, key) == {key: [row]}  # moved, at replication 1
    batch.hybrid_at(second).publish_file(file)
    reference_publish(reference.publisher, *details(file), origin=second)
    assert holders_of(batch, key) == {key: [row]}
    for world in (batch, reference):
        world.network.remove_node(key, graceful=True)
    assert len(batch.publisher.plans) == 1
    assert batch.state() == reference.state()
    heir = batch.network.owner_of(key)
    (landed,) = batch.network.get_local(heir, key)
    assert landed is row


class TestMidFileFailure:
    """Routing that breaks on a file's third tuple: the first two are
    stored and charged, the third is not, and the error propagates."""

    FILE = FILES[5]  # an Item tuple and five postings

    def broken_worlds(self):
        """Twin stabilized worlds where one node, which the third tuple's
        route crosses and the first two avoid, has lost its tables."""
        probe = World(11, 2, False)
        plan = probe.publisher.plan_file(*details(self.FILE))
        for selector in range(24):
            origin = probe.member(selector)
            paths = [lookup_from(probe.network, entry[0], origin).path for entry in plan.entries]
            crossed = set(paths[2][1:-1]) - {node for path in paths[:2] for node in path}
            if crossed:
                break
        else:  # pragma: no cover - the fixed seed has such an origin
            raise AssertionError("no origin routes the third tuple through a fresh node")
        worlds = World(11, 2, False), World(11, 2, False)
        for world in worlds:
            node = world.network.nodes[min(crossed)]
            node.fingers, node.successors = [], []
        return worlds, origin

    def test_tuples_before_the_failure_are_stored_and_charged(self):
        (batch, reference), origin = self.broken_worlds()
        with pytest.raises(DhtError, match="dead-end"):
            batch.publisher.publish_file(*details(self.FILE), origin=origin)
        with pytest.raises(DhtError, match="dead-end"):
            reference_publish(reference.publisher, *details(self.FILE), origin=origin)
        assert batch.state() == reference.state()
        meter = batch.network.meter
        assert list(meter.by_category) == ["publish.Item", "publish.Inverted"]
        # owner + one successor copy each
        assert sum(len(values) for _, _, values in batch.network.stored_items()) == 4
        assert batch.publisher.published_files == 0

    def test_hybrid_offers_the_file_again_after_a_failed_publish(self):
        (world, _), origin = self.broken_worlds()
        hybrid = world.hybrid_at(origin)
        with pytest.raises(DhtError):
            hybrid.publish_file(self.FILE)
        assert hybrid.files_published == 0
        world.network.stabilize()  # repairs the broken node's tables
        assert hybrid.publish_file(self.FILE) is True
        assert hybrid.files_published == 1
        assert hybrid.publish_file(self.FILE) is False


def holders_of(world: World, key: int) -> dict[int, list[dict]]:
    """node -> the rows it stores under ``key``, for every node storing any."""
    return {
        node_id: values for node_id, stored, values in world.network.stored_items()
        if stored == key
    }


class TestCopyOnStore:
    """A republished plan copies only what a store lacks."""

    @given(
        seed=st.integers(0, 500),
        replication=st.integers(1, 3),
        inverted_cache=st.booleans(),
        index=st.integers(0, len(FILES) - 1),
        selectors=st.lists(st.integers(0, 23), min_size=1, max_size=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_one_row_object_per_identity_per_node(
        self, seed, replication, inverted_cache, index, selectors
    ):
        """Republishing one plan from N origins: the first publish copies
        each row once for the owner and its successors, which share the
        copy, and every later one stores nothing; each publish is priced
        as the reference prices it."""
        batch = World(seed, replication, inverted_cache)
        reference = World(seed, replication, inverted_cache)
        file = FILES[index]
        plan = batch.publisher.plan_file(*details(file))
        for selector in selectors:
            origin = batch.member(selector)
            receipt = batch.publisher.publish_plan(plan, origin)
            assert receipt == reference_publish(reference.publisher, *details(file), origin=origin)
            assert batch.state() == reference.state()
        for key, row, _, _, _ in plan.entries:
            holders = holders_of(batch, key)
            assert len(holders) == replication  # the owner and its successors
            assert all(values == [row] for values in holders.values())
            (copy,) = {id(values[0]) for values in holders.values()}
            assert copy != id(row)  # the plan's own row is never stored

    def test_a_republish_after_a_graceful_leave_copies_nothing(self):
        """A handoff stores each row it moves under the row's own handle,
        so the heir holds the plan's identity and the next publish of the
        plan copies nothing."""
        batch, reference = World(5, 1, False), World(5, 1, False)
        file = FILES[1]
        key = posting_key(batch, file)
        owner = batch.network.owner_of(key)
        origin = next(node for node in sorted(batch.network.nodes) if node != owner)
        plan = batch.publisher.plan_file(*details(file))
        batch.publisher.publish_plan(plan, origin)
        reference_publish(reference.publisher, *details(file), origin=origin)
        (first,) = holders_of(batch, key)[owner]
        for world in (batch, reference):
            world.network.remove_node(owner, graceful=True)
        heir = batch.network.owner_of(key)
        assert batch.network.local_contains(heir, key)
        receipt = batch.publisher.publish_plan(plan, origin)
        assert receipt == reference_publish(reference.publisher, *details(file), origin=origin)
        assert batch.state() == reference.state()
        (handed,) = holders_of(batch, key)[heir]
        assert handed is first and handed is not plan.entries[1][1]


class TestTargetsMemo:
    """A put reads its owner's targets (the owner and its successor
    copies) once per route-cache epoch: a membership change must reach
    the next put's copies."""

    def twins(self, file):
        """Twin worlds at ``replication=2``, ``file`` published in both
        from one origin, neither the key's owner nor its successor;
        returns the worlds, the origin and the file's first posting key."""
        batch, reference = World(5, 2, False), World(5, 2, False)
        key = posting_key(batch, file)
        owner = batch.network.owner_of(key)
        targets = (owner, self.successor(batch, owner))
        origin = next(node for node in sorted(batch.network.nodes) if node not in targets)
        batch.publisher.publish_file(*details(file), origin=origin)
        reference_publish(reference.publisher, *details(file), origin=origin)
        return (batch, reference), origin, key

    def publish_second(self, worlds, origin):
        """Publish ``FILES[0]``, which shares ``FILES[1]``'s first keyword,
        in both worlds; returns its row under that keyword."""
        batch, reference = worlds
        receipt = batch.publisher.publish_file(*details(FILES[0]), origin=origin)
        assert receipt == reference_publish(reference.publisher, *details(FILES[0]), origin=origin)
        assert batch.state() == reference.state()
        plan = batch.publisher.plan_file(*details(FILES[0]))
        return plan.entries[1][1]

    @staticmethod
    def successor(world: World, node_id: int) -> int:
        ring = sorted(world.network.nodes)
        return ring[(ring.index(node_id) + 1) % len(ring)]

    def test_a_put_after_the_successor_leaves_copies_to_the_new_one(self):
        worlds, origin, key = self.twins(FILES[1])
        batch = worlds[0]
        owner = batch.network.owner_of(key)
        leaving = self.successor(batch, owner)
        for world in worlds:
            world.network.remove_node(leaving, graceful=True)
        row = self.publish_second(worlds, origin)
        heir = self.successor(batch, owner)
        assert heir != leaving
        assert row in batch.network.get_local(heir, key)
        assert set(holders_of(batch, key)) == {owner, heir}

    def test_a_put_after_a_join_copies_to_the_joiner(self):
        worlds, origin, key = self.twins(FILES[1])
        batch = worlds[0]
        owner = batch.network.owner_of(key)
        old_successor = self.successor(batch, owner)
        joiner = owner + 1  # between the owner and its successor
        assert joiner < old_successor
        for world in worlds:
            world.network.create_node(joiner)
        row = self.publish_second(worlds, origin)
        assert batch.network.owner_of(key) == owner
        assert row in batch.network.get_local(joiner, key)
        assert row not in batch.network.get_local(old_successor, key)

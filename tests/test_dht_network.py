"""Unit and integration tests for the Chord-style DHT network."""

import math
import random

import pytest

from repro.common.errors import DhtError, KeyNotFoundError, NodeNotFoundError
from repro.common.ids import KEY_SPACE, hash_key
from repro.dht.network import DhtNetwork
from repro.dht.ring import DEFAULT_SUCCESSOR_COUNT

from oracle import dht_get, dht_put, lookup_from


@pytest.fixture(scope="module")
def dht():
    network = DhtNetwork(rng=7)
    network.populate(128)
    return network


class TestMembership:
    def test_populate_count(self, dht):
        assert dht.size == 128

    def test_duplicate_node_id_rejected(self):
        network = DhtNetwork(rng=1)
        node = network.create_node()
        with pytest.raises(DhtError):
            network.create_node(node.node_id)

    def test_populate_rejects_a_duplicate_id_and_publishes_nothing(self):
        class RepeatingRandom(random.Random):
            """Draws ids 1, 2, 3, ... but repeats the third as the fifth."""

            def __init__(self):
                super().__init__(0)
                self.draws = iter([1, 2, 3, 4, 3, 6])

            def getrandbits(self, k):
                return next(self.draws)

        network = DhtNetwork(rng=RepeatingRandom())
        with pytest.raises(DhtError, match="duplicate"):
            network.populate(6)
        assert len(network.nodes) == 0 and list(network.nodes) == []
        assert network.membership_version == 0
        assert network._ring_cell.snapshot is None

    def test_remove_unknown_node_rejected(self):
        network = DhtNetwork(rng=1)
        network.populate(3)
        with pytest.raises(NodeNotFoundError):
            network.remove_node(123456789)

    def test_empty_network_operations_fail(self):
        network = DhtNetwork()
        with pytest.raises(DhtError):
            network.lookup(5)
        with pytest.raises(DhtError):
            network.owner_of(5)


class TestRouting:
    def test_lookup_reaches_responsible_node(self, dht):
        for key in (hash_key(f"key{i}") for i in range(50)):
            result = dht.lookup(key)
            assert result.owner == dht.owner_of(key)

    def test_lookup_from_every_origin(self, dht):
        key = hash_key("target")
        owner = dht.owner_of(key)
        for origin in list(dht.nodes)[:20]:
            assert lookup_from(dht, key, origin).owner == owner

    def test_hop_count_logarithmic(self, dht):
        hops = [
            dht.lookup(dht.rng.getrandbits(160)).hops for _ in range(300)
        ]
        mean_hops = sum(hops) / len(hops)
        # Chord averages ~log2(N)/2 hops; allow generous headroom.
        assert mean_hops <= math.log2(dht.size) + 1

    def test_lookup_path_starts_at_origin(self, dht):
        origin = next(iter(dht.nodes))
        result = lookup_from(dht, hash_key("abc"), origin)
        assert result.path[0] == origin

    def test_lookup_unknown_origin_rejected(self, dht):
        with pytest.raises(NodeNotFoundError):
            lookup_from(dht, 5, 999999999999)

    def test_routing_uses_local_state_only(self, dht):
        """Each path step must be a finger/successor of the previous node."""
        result = lookup_from(dht, hash_key("locality"), next(iter(dht.nodes)))
        for here, there in zip(result.path, result.path[1:]):
            node = dht.nodes[here]
            assert there in set(node.fingers) | set(node.successors)


class TestDataPath:
    def test_put_get_roundtrip(self):
        network = DhtNetwork(rng=3)
        network.populate(32)
        dht_put(network, "song", ("value", 1))
        assert dht_get(network, "song") == [("value", 1)]

    def test_get_missing_key_raises(self):
        network = DhtNetwork(rng=3)
        network.populate(8)
        with pytest.raises(KeyNotFoundError):
            dht_get(network, "missing")

    def test_put_accumulates_values(self):
        network = DhtNetwork(rng=3)
        network.populate(16)
        dht_put(network, "k", "a")
        dht_put(network, "k", "b")
        assert sorted(dht_get(network, "k")) == ["a", "b"]

    def test_put_deduplicates_by_identity(self):
        network = DhtNetwork(rng=3)
        network.populate(16)
        dht_put(network, "k", {"x": 1}, identity="same")
        dht_put(network, "k", {"x": 1}, identity="same")
        assert dht_get(network, "k") == [{"x": 1}]

    def test_bandwidth_charged(self):
        network = DhtNetwork(rng=3)
        network.populate(32)
        before = network.meter.bytes
        network.put_many(((hash_key("k"), "v", None, 1000, "dht.put"),))
        assert network.meter.bytes - before >= 1000

    def test_replication_places_copies(self):
        network = DhtNetwork(replication=3, rng=5)
        network.populate(32)
        dht_put(network, "replicated", "v")
        holders = [
            node_id
            for node_id, node in network.nodes.items()
            if node.store.get(hash_key("replicated"))
        ]
        assert len(holders) == 3

    def test_stored_items_counts_every_value(self):
        network = DhtNetwork(rng=3)
        network.populate(8)
        dht_put(network, "a", 1)
        dht_put(network, "b", 2)
        assert sum(len(values) for _, _, values in network.stored_items()) == 2


class TestDeparture:
    def test_graceful_leave_hands_off_keys(self):
        network = DhtNetwork(rng=9)
        network.populate(32)
        dht_put(network, "persist", "value")
        owner = network.owner_of(hash_key("persist"))
        network.remove_node(owner, graceful=True)
        network.stabilize()
        assert dht_get(network, "persist") == ["value"]

    def test_ungraceful_failure_loses_unreplicated_data(self):
        network = DhtNetwork(replication=1, rng=9)
        network.populate(32)
        dht_put(network, "fragile", "value")
        owner = network.owner_of(hash_key("fragile"))
        network.remove_node(owner, graceful=False)
        network.stabilize()
        with pytest.raises(KeyNotFoundError):
            dht_get(network, "fragile")

    def test_replication_survives_failure(self):
        network = DhtNetwork(replication=3, rng=9)
        network.populate(32)
        dht_put(network, "hardy", "value")
        owner = network.owner_of(hash_key("hardy"))
        network.remove_node(owner, graceful=False)
        network.stabilize()
        assert dht_get(network, "hardy") == ["value"]

    def test_routing_still_works_after_departures(self):
        network = DhtNetwork(rng=11)
        network.populate(64)
        for _ in range(20):
            network.remove_node(network.random_node_id(), graceful=True)
        network.stabilize()
        for i in range(20):
            key = hash_key(f"post-churn-{i}")
            assert network.lookup(key).owner == network.owner_of(key)

    def test_graceful_leave_charges_handoff_bandwidth(self):
        network = DhtNetwork(rng=9)
        network.populate(32)
        dht_put(network, "persist", "value")
        owner = network.owner_of(hash_key("persist"))
        before = network.meter.by_category.get("dht.handoff")
        network.remove_node(owner, graceful=True)
        cost = network.meter.by_category["dht.handoff"]
        assert before is None
        assert cost.messages >= 1
        assert cost.bytes > 0

    def test_ungraceful_failure_charges_nothing(self):
        network = DhtNetwork(rng=9)
        network.populate(32)
        dht_put(network, "fragile", "value")
        owner = network.owner_of(hash_key("fragile"))
        network.remove_node(owner, graceful=False)
        assert "dht.handoff" not in network.meter.by_category

    def test_join_pulls_owned_slice_from_successor(self):
        """A node joining mid-run takes over its key slice with the data."""
        network = DhtNetwork(rng=21)
        network.populate(16)
        for i in range(40):
            dht_put(network, f"item-{i}", i)
        stored_before = sum(len(values) for _, _, values in network.stored_items())
        for _ in range(8):
            network.create_node()
        network.stabilize()
        assert sum(len(values) for _, _, values in network.stored_items()) == stored_before
        for i in range(40):
            assert dht_get(network, f"item-{i}") == [i]


class TestDeadEndRegression:
    """lookup() must never answer from a node that does not own the key."""

    def _broken_network(self):
        network = DhtNetwork(rng=13)
        network.populate(4)
        key = hash_key("dead-end-key")
        owner = network.owner_of(key)
        non_owner = next(n for n in network.nodes if n != owner)
        # Corrupt the non-owner's routing state: no fingers, no successors
        # (the state a badly partitioned node would be left with).
        network.nodes[non_owner].fingers = []
        network.nodes[non_owner].successors = []
        return network, key, non_owner

    def test_lookup_dead_end_raises_not_wrong_owner(self):
        network, key, non_owner = self._broken_network()
        with pytest.raises(DhtError):
            lookup_from(network, key, non_owner)

    def test_iter_lookup_dead_end_raises(self):
        network, key, non_owner = self._broken_network()
        with pytest.raises(DhtError):
            for _ in network.iter_lookup(key, origin=non_owner):
                pass

    def test_lookup_owner_always_owns(self):
        network = DhtNetwork(rng=31)
        network.populate(48)
        for i in range(60):
            key = hash_key(f"own-{i}")
            result = network.lookup(key)
            assert network.owner_of(key) == result.owner


class TestIterLookup:
    def test_matches_synchronous_lookup_when_stable(self):
        network = DhtNetwork(rng=19)
        network.populate(64)
        for i in range(25):
            key = hash_key(f"iter-{i}")
            origin = network.random_node_id()
            sync = lookup_from(network, key, origin)
            gen = network.iter_lookup(key, origin=origin)
            hops = list(_drive(gen))
            result = _result_of(network.iter_lookup(key, origin=origin))
            assert result.owner == sync.owner
            assert hops[0] == origin
            assert hops[-1] == sync.owner
            assert result.retries == 0

    def test_recovers_when_current_node_dies_mid_walk(self):
        network = DhtNetwork(rng=23)
        network.populate(64)
        key = hash_key("mid-walk-victim")
        # Find an origin whose route has an intermediate hop to kill.
        origin = next(
            o
            for o in network.nodes
            if len(lookup_from(network, key, o).path) >= 3
        )
        victim = lookup_from(network, key, origin).path[1]
        gen = network.iter_lookup(key, origin=origin)
        next(gen)  # at origin
        next(gen)  # first hop: the walk now sits on or before the victim
        network.remove_node(victim, graceful=False)
        result = _result_of(gen)
        assert result.owner in network.nodes
        assert network.owner_of(key) == result.owner

    def test_stale_finger_falls_back_to_successors(self):
        network = DhtNetwork(rng=27)
        network.populate(64)
        key = hash_key("stale-finger")
        origin = next(
            o
            for o in network.nodes
            if len(lookup_from(network, key, o).path) >= 3
        )
        planned = lookup_from(network, key, origin).path
        gen = network.iter_lookup(key, origin=origin)
        next(gen)
        # Kill the next planned hop; nobody stabilizes, so the origin's
        # finger is now stale and the walk must route around it via the
        # successor list.
        network.remove_node(planned[1], graceful=False)
        result = _result_of(gen)
        assert result.retries >= 1
        assert network.owner_of(key) == result.owner


class TestReplicaRotationUnderChurn:
    """Reads do not rotate: the owner serves every read, so a successor
    copy that goes stale or churns out never answers one."""

    def _replicated(self):
        network = DhtNetwork(replication=3, rng=37)
        network.populate(32)
        dht_put(network, "hot", "v")
        key = hash_key("hot")
        owner = network.owner_of(key)
        replicas = network.successors_of(owner)[:2]
        assert all(network.get_local(replica, key) == ["v"] for replica in replicas)
        return network, key, owner, replicas

    def test_stale_replica_falls_back_to_owner(self):
        """A successor copy that diverged from the owner's must not serve
        a read."""
        network, key, owner, replicas = self._replicated()
        for replica in replicas:
            network.put_local(replica, key, "stale")
        for _ in range(4):
            assert network.get_raw(key, "dht.get") == ["v"]

    def test_stale_replica_fallback_after_churn_shrinks_set(self):
        network, key, owner, replicas = self._replicated()
        # One replica churns out entirely, the other goes stale.
        network.remove_node(replicas[0], graceful=False)
        network.stabilize()
        network.put_local(replicas[1], key, "stale")
        assert network.owner_of(key) == owner
        for _ in range(4):
            assert network.get_raw(key, "dht.get") == ["v"]


class TestOwnerReads:
    """A read is one lookup of the key's owner, one read of the owner's
    store and one charge: no other node answers, and nothing is written."""

    def _network(self, replication=3, seed=41):
        network = DhtNetwork(replication=replication, rng=seed)
        network.populate(32)
        return network

    def test_read_returns_the_owners_values_only(self):
        network = self._network()
        dht_put(network, "song", "published")
        key = hash_key("song")
        successor = network.successors_of(network.owner_of(key))[0]
        network.put_local(successor, key, "successor-only")
        assert dht_get(network, "song") == ["published"]

    def test_a_read_names_its_category(self):
        """No read is charged to a default: a read without a category is
        refused before it routes or charges anything."""
        network = self._network()
        dht_put(network, "song", "published")
        before = dict(network.meter.by_category)
        with pytest.raises(TypeError):
            network.get_raw(hash_key("song"))
        assert dict(network.meter.by_category) == before
        assert network.get_raw(hash_key("song"), "fetch.Item") == ["published"]
        assert network.meter.by_category["fetch.Item"].messages >= 1

    def test_a_value_held_off_the_owner_is_not_found(self):
        network = self._network()
        key = hash_key("elsewhere")
        owner = network.owner_of(key)
        for node_id in network.successors_of(owner)[:2]:
            network.put_local(node_id, key, "copy")
        with pytest.raises(KeyNotFoundError):
            network.get_raw(key, "dht.get")

    def test_read_equals_the_owners_local_store(self):
        network = self._network()
        for i in range(30):
            dht_put(network, f"item-{i % 10}", i)
        for i in range(10):
            key = hash_key(f"item-{i}")
            assert network.get_raw(key, "dht.get") == network.get_local(network.owner_of(key), key)

    def test_read_charges_one_routed_request(self):
        network = self._network()
        dht_put(network, "song", "v")
        key = hash_key("song")
        origin = max(network.nodes, key=lambda node: lookup_from(network, key, node).hops)
        hops = lookup_from(network, key, origin).hops
        assert hops >= 1
        dht_get(network, key, origin)
        cost = network.meter.by_category["dht.get"]
        assert cost.messages == hops
        assert cost.bytes == network.cost_model.routed_bytes(0, hops)

    def test_self_owned_read_is_one_local_delivery(self):
        network = self._network()
        dht_put(network, "song", "v")
        key = hash_key("song")
        dht_get(network, key, network.owner_of(key))
        cost = network.meter.by_category["dht.get"]
        assert cost.messages == 1
        assert cost.bytes == network.cost_model.routed_bytes(0, 0)

    def test_read_charges_its_named_category(self):
        network = self._network()
        dht_put(network, "song", "v")
        assert network.get_raw(hash_key("song"), category="pier.fetch") == ["v"]
        assert network.meter.by_category["pier.fetch"].messages >= 1
        assert "dht.get" not in network.meter.by_category

    def test_a_miss_still_pays_its_request(self):
        network = self._network()
        with pytest.raises(KeyNotFoundError):
            dht_get(network, "missing")
        assert network.meter.by_category["dht.get"].messages >= 1

    def test_reads_store_nothing(self):
        network = self._network()
        for i in range(5):
            dht_put(network, f"k{i}", i)
        before = sorted((node, key, tuple(values)) for node, key, values in network.stored_items())
        version = network.membership_version
        for _ in range(20):
            for i in range(5):
                dht_get(network, f"k{i}")
        after = sorted((node, key, tuple(values)) for node, key, values in network.stored_items())
        assert after == before
        assert network.membership_version == version

    def test_every_origin_reads_the_same_values(self):
        network = self._network()
        dht_put(network, "song", "a")
        dht_put(network, "song", "b")
        key = hash_key("song")
        answers = {tuple(sorted(dht_get(network, key, origin))) for origin in network.nodes}
        assert answers == {("a", "b")}

    def test_read_follows_a_graceful_owner_leave(self):
        network = self._network(replication=1)
        dht_put(network, "song", "v")
        key = hash_key("song")
        owner = network.owner_of(key)
        successor = network.successors_of(owner)[0]
        network.remove_node(owner, graceful=True)
        assert network.owner_of(key) == successor
        assert network.get_raw(key, "dht.get") == ["v"]
        assert network.get_local(successor, key) == ["v"]

    def test_read_follows_a_join_that_claims_the_key(self):
        network = self._network(replication=1)
        dht_put(network, "song", "v")
        key = hash_key("song")
        old_owner = network.owner_of(key)
        network.create_node(key)
        assert network.owner_of(key) == key
        assert network.get_raw(key, "dht.get") == ["v"]
        assert network.get_local(old_owner, key) == []

    def test_an_owner_crash_without_copies_reads_as_a_suspect_miss(self):
        network = self._network(replication=1)
        dht_put(network, "fragile", "v")
        key = hash_key("fragile")
        network.remove_node(network.owner_of(key), graceful=False)
        assert network.is_suspect(key)
        with pytest.raises(KeyNotFoundError):
            network.get_raw(key, "dht.get")

    def test_a_repeated_read_replays_its_cached_route_at_the_same_price(self):
        network = self._network()
        dht_put(network, "song", "v")
        key = hash_key("song")
        origin = sorted(network.nodes)[0]
        dht_get(network, key, origin)
        first = network.meter.by_category["dht.get"]
        messages, byte_count = first.messages, first.bytes
        hits = network.route_cache_hits
        dht_get(network, key, origin)
        second = network.meter.by_category["dht.get"]
        assert network.route_cache_hits == hits + 1
        assert (second.messages, second.bytes) == (2 * messages, 2 * byte_count)


def _drive(gen):
    hops = []
    try:
        while True:
            hops.append(next(gen))
    except StopIteration:
        return hops


def _result_of(gen):
    try:
        while True:
            next(gen)
    except StopIteration as stop:
        return stop.value


class TestRouteCache:
    def _network(self):
        network = DhtNetwork(rng=77)
        network.populate(24)
        return network

    def test_repeated_lookup_hits_cache_with_identical_result(self):
        network = self._network()
        origin = network.random_node_id()
        key = hash_key("cached-route")
        first = lookup_from(network, key, origin)
        misses = network.route_cache_misses
        second = lookup_from(network, key, origin)
        assert network.route_cache_hits >= 1
        assert network.route_cache_misses == misses
        assert second.owner == first.owner
        assert second.path == first.path
        assert second.hops == first.hops

    def test_same_owner_region_shares_a_cache_entry(self):
        network = self._network()
        origin = network.random_node_id()
        key = hash_key("region-key")
        owner = network.owner_of(key)
        lookup_from(network, key, origin)
        hits = network.route_cache_hits
        # A *different* key owned by the same node, from the same origin,
        # replays the cached path (interior keys of one region route
        # identically on a stable ring).
        sibling = None
        for probe in range(10_000):
            candidate = (key + probe + 1) % KEY_SPACE
            if candidate != owner and network.owner_of(candidate) == owner:
                sibling = candidate
                break
        if sibling is None:  # vanishingly unlikely with 160-bit regions
            return
        result = lookup_from(network, sibling, origin)
        assert network.route_cache_hits == hits + 1
        assert result.owner == owner

    def test_owner_id_and_interior_keys_are_distinct_entries(self):
        network = self._network()
        origin = network.random_node_id()
        owner = network.owner_of(hash_key("exact"))
        interior = lookup_from(network, hash_key("exact"), origin)
        exact = lookup_from(network, owner, origin)
        # Both answers name the same owner; the cache may not conflate
        # them (routing to a node's own id can short-circuit earlier).
        assert interior.owner == exact.owner == owner
        assert lookup_from(network, owner, origin).path == exact.path

    def test_membership_change_flushes_cached_routes(self):
        network = self._network()
        origin = network.random_node_id()
        key = hash_key("epoch")
        lookup_from(network, key, origin)
        epoch = network.membership_version
        victim = next(
            node_id for node_id in network.nodes
            if node_id != origin and node_id != network.owner_of(key)
        )
        network.remove_node(victim, graceful=True)
        assert network.membership_version > epoch
        result = lookup_from(network, key, origin)
        # Fresh epoch: the lookup re-walked (a miss), and its path can
        # only name live members.
        assert all(node_id in network.nodes for node_id in result.path)
        assert result.owner == network.owner_of(key)

    def test_route_hops_is_lookup_without_the_result(self):
        network, twin = self._network(), self._network()
        for index in range(40):
            key = hash_key(f"hops-{index}")
            origin = sorted(network.nodes)[index % network.size]
            assert network.route_hops(key, origin) == lookup_from(twin, key, origin).hops
        assert (network.route_cache_hits, network.route_cache_misses) == (
            twin.route_cache_hits,
            twin.route_cache_misses,
        )
        with pytest.raises(NodeNotFoundError):
            network.route_hops(5, origin=999999999999)


class TestShipBatch:
    @pytest.fixture
    def network(self):
        network = DhtNetwork(rng=77)
        network.populate(24)
        return network

    def test_batch_between_live_members_is_one_direct_message(self, network):
        source = network.random_node_id()
        target = max(network.nodes, key=lambda node: network.route_hops(node, source))
        assert network.route_hops(target, source) >= 2
        counters = (network.route_cache_hits, network.route_cache_misses)
        shipped = network.ship_batch(source, target, 512, category="exchange")
        # However far apart on the ring: one framed message of one hop,
        # and no route looked up (the plan leg already resolved the site)
        assert shipped == (1, 1, network.cost_model.message_bytes(512))
        charged = network.meter.by_category["exchange"]
        assert (charged.messages, charged.bytes) == shipped[1:]
        assert (network.route_cache_hits, network.route_cache_misses) == counters

    def test_batch_to_itself_is_one_local_delivery(self, network):
        source = network.random_node_id()
        shipped = network.ship_batch(source, source, 100)
        assert shipped == (0, 1, network.cost_model.message_bytes(100))

    @pytest.mark.parametrize("departed_end", ["source", "target"])
    def test_batch_with_a_departed_end_raises_and_charges_nothing(
        self, network, departed_end
    ):
        source, target = sorted(network.nodes)[:2]
        network.remove_node(source if departed_end == "source" else target, graceful=True)
        before = (network.meter.snapshot(), dict(network.meter.by_category))
        with pytest.raises(NodeNotFoundError):
            network.ship_batch(source, target, 64)
        assert (network.meter.snapshot(), network.meter.by_category) == before


class TestSuspectRepair:
    """``clear_suspects_covering`` drops exactly the suspect intervals
    ``(predecessor, failed]`` that hold its key and returns how many; an
    interval that wraps past key 0 clears from either side of 0."""

    @staticmethod
    def crashed():
        """Eight members, three crashed: the first (its slice wraps past
        0), then the fourth and fifth, whose slices share a start."""
        network = DhtNetwork(rng=7)
        network.populate(8)
        ring = sorted(network.nodes)
        for victim in (ring[0], ring[3], ring[4]):
            network.remove_node(victim, graceful=False)
        wrap, first, second = (ring[-1], ring[0]), (ring[2], ring[3]), (ring[2], ring[4])
        assert network.suspect_ranges == [wrap, first, second]
        return network, ring, (wrap, first, second)

    def test_only_the_intervals_holding_the_key_go(self):
        network, ring, (wrap, first, second) = self.crashed()
        assert network.clear_suspects_covering(ring[2]) == 0  # starts are open
        assert network.clear_suspects_covering(ring[4]) == 1  # ends are closed
        assert network.suspect_ranges == [wrap, first]
        assert network.clear_suspects_covering(ring[4]) == 0

    def test_a_key_in_two_intervals_clears_both(self):
        network, ring, (wrap, _, _) = self.crashed()
        assert network.clear_suspects_covering(ring[3]) == 2
        assert network.suspect_ranges == [wrap]
        assert not network.is_suspect(ring[3]) and network.is_suspect(0)

    @pytest.mark.parametrize("side", ["above", "zero", "below", "reduced"])
    def test_a_wrapping_interval_clears_from_either_side_of_zero(self, side):
        network, ring, (_, first, second) = self.crashed()
        key = {
            "above": ring[-1] + 1,
            "zero": 0,
            "below": ring[0],
            "reduced": KEY_SPACE + ring[0] // 2,
        }[side]
        assert network.clear_suspects_covering(key) == 1
        assert network.suspect_ranges == [first, second]
        assert not network.is_suspect(0)


class TestBoundaries:
    def test_successor_lists_cover_the_replica_set(self):
        wide = DEFAULT_SUCCESSOR_COUNT + 2
        assert DhtNetwork(replication=wide).successor_count == wide
        assert DhtNetwork(replication=2).successor_count == DEFAULT_SUCCESSOR_COUNT

    def test_an_empty_network_refuses_a_put(self):
        with pytest.raises(DhtError, match="empty network"):
            dht_put(DhtNetwork(rng=1), "orphan", "value")

    def test_an_unknown_node_has_no_successors(self):
        network = DhtNetwork(rng=2)
        network.populate(4)
        absent = next(i for i in range(1, 100) if i not in network.nodes)
        with pytest.raises(NodeNotFoundError):
            network.successors_of(absent)


class TestTrafficAccounting:
    """The meter's totals, its categories and the route-cache counters are
    what a run reports of DHT traffic; each must add up on its own."""

    def _network(self):
        network = DhtNetwork(replication=2, rng=7)
        network.populate(16)
        return network

    def test_totals_equal_the_category_sums(self):
        network = self._network()
        for i in range(6):
            dht_put(network, f"k{i}", i)
            dht_get(network, f"k{i}")
        network.get_raw(hash_key("k0"), category="pier.fetch")
        meter = network.meter
        assert len(meter.by_category) == 3
        assert meter.messages == sum(cost.messages for cost in meter.by_category.values())
        assert meter.bytes == sum(cost.bytes for cost in meter.by_category.values())

    def test_a_put_many_returns_what_it_charged(self):
        network = self._network()
        entries = [(hash_key(f"k{i}"), i, None, 100 * i, "dht.put") for i in range(5)]
        before = network.meter.snapshot()
        messages, byte_count = network.put_many(entries)
        after = network.meter.snapshot()
        assert (after.messages - before.messages, after.bytes - before.bytes) == (
            messages,
            byte_count,
        )
        assert network.meter.by_category["dht.put"].messages == messages

    def test_every_lookup_is_one_route_cache_hit_or_miss(self):
        network = self._network()
        keys = [hash_key(f"route-{i % 4}") for i in range(12)]
        origin = next(iter(network.nodes))
        for key in keys:
            lookup_from(network, key, origin)
        assert network.route_cache_hits + network.route_cache_misses == len(keys)
        assert network.route_cache_misses <= 4

    def test_a_lookup_starts_at_a_member_drawn_from_the_network_rng(self):
        first, second = self._network(), self._network()
        for i in range(10):
            key = hash_key(f"drawn-{i}")
            a, b = first.lookup(key), second.lookup(key)
            assert a.path == b.path
            assert a.path[0] in first.nodes
            assert a.owner == first.owner_of(key)

    def test_a_get_from_a_random_member_reads_the_owners_values(self):
        network = self._network()
        dht_put(network, "song", "a")
        dht_put(network, "song", "b")
        for _ in range(8):
            assert sorted(network.get_raw(hash_key("song"), "dht.get")) == ["a", "b"]

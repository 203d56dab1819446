"""Replication of DHT keys with one read path.

A publish stores a key on its ring owner and on the owner's first
``replication - 1`` successors; a read goes to the owner. No read places
a copy, however hot the key: the successor copies a publish made are the
only ones, and they are what carries a key through its owner's failure.
"""

import pytest

from repro.common.ids import hash_key
from repro.dht.network import DhtNetwork


def build_network(num_nodes: int = 32, seed: int = 900, replication: int = 1) -> DhtNetwork:
    network = DhtNetwork(replication=replication, rng=seed)
    network.populate(num_nodes)
    return network


def holders(network: DhtNetwork, key: int) -> list[int]:
    return sorted(node_id for node_id in network.nodes if network.local_contains(node_id, key))


class TestHotKeyDetection:
    """Reads detect nothing: a key keeps the copies its publish made."""

    def test_cold_keys_stay_unreplicated(self):
        network = build_network()
        network.put("cold-key", "value")
        key = hash_key("cold-key")
        for _ in range(20):
            assert network.get("cold-key") == ["value"]
        assert holders(network, key) == [network.owner_of(key)]
        assert set(network.meter.by_category) == {"dht.put", "dht.get"}

    def test_replication_charges_bandwidth(self):
        # Same seed, same ring: the replicated put pays the unreplicated
        # one's route plus one direct message per successor copy, and
        # the reads, which go to the owner only, pay the same.
        single = build_network()
        triple = build_network(replication=3)
        assert sorted(single.nodes) == sorted(triple.nodes)
        origin = sorted(single.nodes)[0]
        for network in (single, triple):
            network.put_many(((hash_key("hot-key"), "value", None, 100, "dht.put"),), origin)
            for _ in range(6):
                network.get("hot-key", origin=origin)
        put_1, put_3 = (n.meter.by_category["dht.put"] for n in (single, triple))
        assert put_3.messages == put_1.messages + 2
        assert put_3.bytes == put_1.bytes + 2 * triple.cost_model.message_bytes(100)
        get_1, get_3 = (n.meter.by_category["dht.get"] for n in (single, triple))
        assert (get_3.messages, get_3.bytes) == (get_1.messages, get_1.bytes)


class TestInvalidation:
    def test_churn_prunes_replica_sets(self):
        # A successor that fails leaves the key's copy set: the next put
        # stores on the owner and its successors as they are now.
        network = build_network(replication=3)
        network.put("hot-key", "first")
        key = hash_key("hot-key")
        owner = network.owner_of(key)
        dead = network.successors_of(owner)[0]
        network.remove_node(dead, graceful=False)
        network.put("hot-key", "second")
        assert network.owner_of(key) == owner
        targets = [owner, *network.successors_of(owner)[:2]]
        assert dead not in targets
        second = [node for node in network.nodes if "second" in network.get_local(node, key)]
        assert sorted(second) == sorted(targets)
        assert sorted(network.get("hot-key")) == ["first", "second"]

    def test_owner_failure_survived_via_replicas(self):
        network = build_network(replication=3)
        network.put("hot-key", "value")
        key = hash_key("hot-key")
        owner_before = network.owner_of(key)
        first_successor = network.successors_of(owner_before)[0]
        network.remove_node(owner_before, graceful=False)
        network.stabilize()
        # the new owner is the old owner's first successor, which holds
        # the publish's copy: the key never became unavailable
        assert network.owner_of(key) == first_successor
        assert network.get_local(first_successor, key) == ["value"]
        assert network.get("hot-key") == ["value"]


class TestConfig:
    def test_rejects_bad_config(self):
        for replication in (0, -1):
            with pytest.raises(ValueError):
                DhtNetwork(replication=replication)


class TestWriteCoherence:
    def test_publish_after_replication_reaches_replicas(self):
        network = build_network(replication=3)
        network.put("hot-key", "first")
        key = hash_key("hot-key")
        copies = holders(network, key)
        assert len(copies) == 3
        network.put("hot-key", "second")
        assert holders(network, key) == copies
        for node_id in copies:
            assert sorted(network.get_local(node_id, key)) == ["first", "second"]
        assert sorted(network.get("hot-key")) == ["first", "second"]

    def test_publish_to_unreplicated_key_unchanged(self):
        network = build_network()
        network.put("cold-key", "only")
        network.put("cold-key", "pair")
        key = hash_key("cold-key")
        assert sorted(network.get("cold-key")) == ["only", "pair"]
        assert holders(network, key) == [network.owner_of(key)]
        assert "cache.replicate" not in network.meter.by_category

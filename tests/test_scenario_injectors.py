"""Fault injectors: partition/heal data safety, regional arc failure."""

import pytest

from repro.common.errors import KeyNotFoundError
from repro.common.rng import make_rng
from repro.dht.churn import ChurnProcess
from repro.common.ids import hash_key
from repro.dht.network import DhtNetwork
from repro.net.faults import FaultInjectingTransport
from repro.scenario.injectors import PartitionInjector, RegionalFailureInjector

from oracle import dht_put

NUM_NODES = 24
NUM_KEYS = 60


def build_network(seed=1, replication=2):
    network = DhtNetwork(rng=make_rng(seed), replication=replication)
    network.transport = FaultInjectingTransport(network.transport)
    network.populate(NUM_NODES)
    keys = []
    for i in range(NUM_KEYS):
        dht_put(network, f"item-{i}", f"value-{i}")
        keys.append(hash_key(f"item-{i}"))
    return network, keys


def readable(network, keys):
    count = 0
    for i, key in enumerate(keys):
        try:
            values = network.get_raw(key, "dht.get")
        except KeyNotFoundError:
            continue
        if f"value-{i}" in values:
            count += 1
    return count


# ----------------------------------------------------------------------
# Partition + heal
# ----------------------------------------------------------------------

def test_partition_severs_arc_and_heal_restores_everything():
    network, keys = build_network()
    injector = PartitionInjector(
        network, network.transport, make_rng(7), fraction=0.25,
        delay_multiplier=3.0,
    )
    arc = injector.partition()
    assert len(arc) == NUM_NODES // 4
    assert network.size == NUM_NODES - len(arc)
    assert injector.partitioned
    assert all(node not in network.nodes for node in arc)
    # Abrupt removal leaves suspect ranges; survivor hops are stretched.
    assert network.suspect_ranges
    assert network.transport.delay_multiplier == 3.0

    injector.heal()
    assert network.size == NUM_NODES
    assert not injector.partitioned
    assert network.transport.delay_multiplier == 1.0
    # Every key readable again with its value — nothing lost in the arc.
    assert readable(network, keys) == NUM_KEYS
    # The rejoined slices are no longer suspect.
    for node_id in arc:
        assert not network.is_suspect(node_id)


def test_partition_is_not_silent_data_loss():
    network, keys = build_network()
    injector = PartitionInjector(network, network.transport, make_rng(3))
    injector.partition()
    # Some keys may be unreadable during the partition, but any key in
    # a severed slice is flagged suspect rather than silently absent.
    missing = [
        key for i, key in enumerate(keys)
        if f"value-{i}" not in (network.nodes.get(network.owner_of(key))
                                and network.get_local(network.owner_of(key), key)
                                or [])
    ]
    for key in missing:
        assert network.is_suspect(key)


def test_double_partition_rejected():
    network, _ = build_network()
    injector = PartitionInjector(network, network.transport, make_rng(3))
    injector.partition()
    with pytest.raises(RuntimeError, match="already partitioned"):
        injector.partition()


def test_heal_without_partition_rejected():
    network, _ = build_network()
    injector = PartitionInjector(network, network.transport, make_rng(3))
    with pytest.raises(RuntimeError, match="not partitioned"):
        injector.heal()


# ----------------------------------------------------------------------
# Correlated regional failure
# ----------------------------------------------------------------------

def test_regional_failure_removes_contiguous_fraction():
    network, _ = build_network()
    churn = ChurnProcess(network, make_rng(9))
    injector = RegionalFailureInjector(churn, fraction=0.25)
    injector.fire()
    assert len(injector.victims) == NUM_NODES // 4
    assert network.size == NUM_NODES - len(injector.victims)
    # Default failure_fraction=1.0: every victim abrupt, suspects recorded.
    assert all(not graceful for _, graceful in injector.victims)
    assert network.suspect_ranges


def test_regional_graceful_variant_loses_nothing():
    network, keys = build_network()
    churn = ChurnProcess(network, make_rng(9))
    injector = RegionalFailureInjector(churn, fraction=0.25, failure_fraction=0.0)
    injector.fire()
    assert all(graceful for _, graceful in injector.victims)
    assert not network.suspect_ranges
    assert readable(network, keys) == NUM_KEYS


def test_heal_restores_values_a_store_cannot_hash():
    """A severed node's unhashable values come back under a handle of
    their own, since the value cannot be its own identity."""
    network, _ = build_network()
    key = hash_key("listed")
    for node_id in network.member_ids():
        network.put_local(node_id, key, ["row", node_id], identity=("listed", node_id))
    injector = PartitionInjector(network, network.transport, make_rng(3), fraction=0.25)
    arc = injector.partition()
    injector.heal()
    for node_id in arc:
        assert ["row", node_id] in network.get_local(node_id, key)

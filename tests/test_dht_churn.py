"""Tests for the churn driver."""

import pytest

from repro.common.ids import hash_key
from repro.dht.churn import ChurnProcess
from repro.dht.network import DhtNetwork
from repro.sim.engine import Simulator


class TestChurnStep:
    def test_size_preserved_with_equal_join_leave(self):
        network = DhtNetwork(rng=1)
        network.populate(50)
        churn = ChurnProcess(network, rng=2)
        churn.churn_step(joins=5, leaves=5)
        assert network.size == 50

    def test_stats_recorded(self):
        network = DhtNetwork(rng=1)
        network.populate(50)
        churn = ChurnProcess(network, rng=2, failure_fraction=0.0)
        churn.churn_step(joins=3, leaves=3)
        assert churn.stats.joins == 3
        assert churn.stats.leaves == 3
        assert churn.stats.failures == 0

    def test_all_failures_when_fraction_one(self):
        network = DhtNetwork(rng=1)
        network.populate(50)
        churn = ChurnProcess(network, rng=2, failure_fraction=1.0)
        churn.churn_step(joins=0, leaves=4)
        assert churn.stats.failures == 4

    def test_bad_failure_fraction_rejected(self):
        network = DhtNetwork(rng=1)
        with pytest.raises(ValueError):
            ChurnProcess(network, failure_fraction=1.5)

    def test_routing_correct_after_heavy_churn(self):
        network = DhtNetwork(replication=3, rng=1)
        network.populate(64)
        churn = ChurnProcess(network, rng=3)
        for _ in range(5):
            churn.churn_step(joins=6, leaves=6)
        for i in range(20):
            key = hash_key(f"key-{i}")
            assert network.lookup(key).owner == network.owner_of(key)

    def test_replicated_data_survives_session_churn(self):
        network = DhtNetwork(replication=3, rng=1)
        network.populate(64)
        network.put("sticky", "v")
        churn = ChurnProcess(network, rng=4, failure_fraction=0.5)
        churn.churn_step(joins=6, leaves=6)  # a tenth of the network turns over
        assert network.get("sticky") == ["v"]

    def test_never_removes_last_node(self):
        network = DhtNetwork(rng=1)
        network.populate(1)
        churn = ChurnProcess(network, rng=5)
        churn.churn_step(joins=0, leaves=3)
        assert network.size >= 1


class TestUnstabilizedChurn:
    def test_stabilize_false_leaves_stale_tables(self):
        network = DhtNetwork(rng=3)
        network.populate(24)
        churn = ChurnProcess(network, rng=4, failure_fraction=1.0)
        before = {n: list(network.nodes[n].successors) for n in network.nodes}
        churn.churn_step(joins=0, leaves=4, stabilize=False)
        # Survivors still name the departed nodes in their routing state.
        stale = [
            n
            for n, successors in before.items()
            if n in network.nodes
            and any(s not in network.nodes for s in successors)
        ]
        assert stale
        network.stabilize()
        for node in network.nodes.values():
            assert all(s in network.nodes for s in node.successors)


class TestScheduledChurn:
    def test_schedule_runs_steps(self):
        network = DhtNetwork(rng=1)
        network.populate(30)
        churn = ChurnProcess(network, rng=6)
        sim = Simulator()
        churn.schedule(sim, interval=10.0, steps=3)
        sim.run()
        assert churn.stats.joins == 3
        assert churn.stats.leaves + churn.stats.failures == 3
        assert sim.now == 30.0

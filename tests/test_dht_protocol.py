"""Tests for the timed lookup protocol ``ext_churn`` measures: one
``iter_lookup`` walk over the tables as they stand, a request and a
reply per node contacted, a timeout per dead table entry (timing,
retries, churn)."""

import random

from repro.common.ids import hash_key
from repro.dht.network import DhtNetwork
from repro.experiments.ext_churn import timed_lookup
from repro.sim.latency import UniformLatencyModel

from oracle import lookup_from

LATENCY = UniformLatencyModel(0.05, 0.15)


def make_network(num_nodes=32, seed=5):
    dht = DhtNetwork(rng=seed)
    dht.populate(num_nodes)
    return dht, random.Random(seed)


def lookup(dht, rng, key, origin=None, timeout=2.0):
    if origin is None:
        origin = dht.random_node_id()
    return timed_lookup(dht, key, origin, LATENCY, rng, timeout)


def crash(dht, node_id):
    """Silent failure: gone, yet still named in everyone's tables."""
    dht.remove_node(node_id, graceful=False)


class TestHappyPath:
    def test_lookup_finds_owner(self):
        dht, rng = make_network()
        key = hash_key("target")
        owner, _, retries = lookup(dht, rng, key)
        assert owner == dht.owner_of(key)
        assert retries == 0

    def test_latency_accumulates_over_hops(self):
        dht, rng = make_network()
        key = hash_key("timed")
        origin = next(n for n in dht.nodes if n != dht.owner_of(key))
        hops = lookup_from(dht, key, origin).hops
        _, seconds, _ = lookup(dht, rng, key, origin=origin)
        # Each hop = request + reply, each 0.05-0.15 s one way.
        assert hops >= 1
        assert 0.1 * hops <= seconds <= 0.3 * hops

    def test_hops_match_synchronous_routing_scale(self):
        dht, rng = make_network(num_nodes=64, seed=9)
        keys = random.Random(1)
        seconds = [lookup(dht, rng, keys.getrandbits(160))[1] for _ in range(30)]
        mean_hops = sum(seconds) / len(seconds) / 0.2  # 0.2 s mean round trip
        assert mean_hops < 10  # ~log2(64)


class TestFailureRecovery:
    def test_timeout_retries_through_fallback(self):
        dht, rng = make_network(num_nodes=32, seed=13)
        key = hash_key("resilient")
        owner = dht.owner_of(key)
        # Fail a mid-route node: some origin's best next hop toward key.
        origin, next_hop = next(
            (n, hop)
            for n in dht.nodes
            if n != owner
            for hop in [dht.nodes[n].closest_preceding(key)]
            if hop is not None and hop != owner
        )
        crash(dht, next_hop)
        found, seconds, retries = lookup(dht, rng, key, origin=origin, timeout=0.5)
        assert found == owner
        assert retries >= 1
        assert seconds >= 0.5 * retries

    def test_failed_owner_makes_lookup_fail_or_reroute(self):
        dht, rng = make_network(num_nodes=24, seed=17)
        key = hash_key("doomed")
        doomed = dht.owner_of(key)
        crash(dht, doomed)
        owner, seconds, _ = lookup(dht, rng, key, timeout=0.4)  # always terminates
        assert owner in (None, dht.owner_of(key)) and owner != doomed
        assert seconds > 0

    def test_mass_failure_still_terminates(self):
        dht, rng = make_network(num_nodes=40, seed=23)
        for node_id in random.Random(3).sample(list(dht.nodes), 20):
            crash(dht, node_id)
        for i in range(10):
            key = hash_key(f"m{i}")
            owner, _, _ = lookup(dht, rng, key, timeout=0.3)
            assert owner in (None, dht.owner_of(key))

    def test_latency_degrades_under_churn(self):
        """Failed hops cost a timeout each: churned lookups are slower."""
        dht, rng = make_network(num_nodes=48, seed=29)
        clean = [lookup(dht, rng, hash_key(f"c{i}"), timeout=0.5)[1] for i in range(15)]
        for node_id in random.Random(4).sample(list(dht.nodes), 12):
            crash(dht, node_id)
        churned = [
            lookup(dht, rng, hash_key(f"d{i}"), timeout=0.5) for i in range(15)
        ]
        assert sum(retries for _, _, retries in churned) > 0
        assert sum(s for _, s, _ in churned) / 15 >= sum(clean) / 15

"""Micro-benchmarks for the substrates: DHT routing, flooding, the
stored-list hash join, publishing. These time the primitives every experiment is built from."""

import pytest

from repro.common.ids import hash_key
from repro.common.rng import make_rng
from repro.dht.network import DhtNetwork
from repro.gnutella.flooding import flood
from repro.gnutella.topology import TopologyConfig, build_topology
from repro.pier.catalog import Catalog
from repro.pier.operators import JoinProbe, StoredHashJoin
from repro.piersearch.publisher import Publisher


@pytest.fixture(scope="module")
def dht():
    network = DhtNetwork(rng=301)
    network.populate(256)
    return network


def test_dht_lookup(benchmark, dht):
    rng = make_rng(302)
    keys = [rng.getrandbits(160) for _ in range(100)]

    def lookups():
        return [dht.lookup(key) for key in keys]

    results = benchmark(lookups)
    assert all(r.owner == dht.owner_of(r.key) for r in results)


def test_dht_put_get(benchmark, dht):
    counter = iter(range(10**9))

    def roundtrip():
        i = next(counter)
        key = hash_key(f"bench-key-{i}")
        dht.put_many(((key, i, None, 0, "dht.put"),))
        return dht.get_raw(key, "dht.get")

    values = benchmark(roundtrip)
    assert values


def test_flood_800_ultrapeers(benchmark):
    topology = build_topology(TopologyConfig(num_ultrapeers=800, num_leaves=0, seed=303))

    def one_flood():
        return flood(topology, topology.ultrapeers[0], ttl=4)

    result = benchmark(one_flood)
    assert len(result.visited) > 100


def test_stored_hash_join_10k(benchmark):
    stored = list(range(0, 20_000, 2))
    arriving = list(range(10_000))

    def join():
        site = JoinProbe(StoredHashJoin(stored, memory_budget=2_000))
        return sum(len(site.probe(arriving[i : i + 64])) for i in range(0, 10_000, 64))

    count = benchmark(join)
    assert count == 5_000  # the even arrivals


def test_publisher_throughput(benchmark):
    network = DhtNetwork(rng=304)
    network.populate(64)
    catalog = Catalog(network)
    publisher = Publisher(network, catalog)
    counter = iter(range(10**9))

    def publish_one():
        i = next(counter)
        return publisher.publish_file(
            f"bench artist{i % 97} - track number{i}.mp3", i, f"10.0.{i % 255}.1", 6346
        )

    receipt = benchmark(publish_one)
    assert receipt.tuples_published >= 1

"""Tests for the pull-based subsystem collectors (repro.obs.collect)."""

from repro.dht.network import DhtNetwork
from repro.obs.collect import (
    collect_all,
    collect_network,
    collect_simulator,
)
from repro.obs.metrics import MetricsRegistry, validate_prometheus
from repro.sim.engine import Simulator


def small_network():
    dht = DhtNetwork(rng=7)
    dht.populate(8)
    dht.put("alpha", "value-1")
    dht.get("alpha")
    return dht


class TestNetworkCollector:
    def test_gauges_mirror_meter_totals(self):
        dht = small_network()
        registry = MetricsRegistry()
        collect_network(registry, dht)
        assert registry.gauge("dht.nodes").value == 8
        assert registry.gauge("dht.messages").value == dht.meter.messages
        assert registry.gauge("dht.bytes").value == dht.meter.bytes

    def test_per_category_traffic_labelled(self):
        dht = small_network()
        registry = MetricsRegistry()
        collect_network(registry, dht)
        for category, cost in dht.meter.by_category.items():
            labels = {"category": category}
            assert (
                registry.gauge("dht.traffic.bytes", labels=labels).value == cost.bytes
            )
            assert (
                registry.gauge("dht.traffic.messages", labels=labels).value
                == cost.messages
            )

    def test_route_cache_ratio(self):
        dht = small_network()
        registry = MetricsRegistry()
        collect_network(registry, dht)
        hits = registry.gauge("dht.route_cache.hits").value
        misses = registry.gauge("dht.route_cache.misses").value
        ratio = registry.gauge("dht.route_cache.hit_ratio").value
        total = hits + misses
        assert ratio == (hits / total if total else 0.0)

    def test_scrape_is_idempotent(self):
        dht = small_network()
        registry = MetricsRegistry()
        collect_network(registry, dht)
        first = registry.to_json()
        collect_network(registry, dht)
        assert registry.to_json() == first


class TestSimCollector:
    def test_simulator_gauges(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run(until=1.5)
        registry = MetricsRegistry()
        collect_simulator(registry, sim)
        assert registry.gauge("sim.virtual_now").value == 1.5
        assert registry.gauge("sim.events_processed").value == 1
        assert registry.gauge("sim.events_pending").value == 1


class TestCollectAll:
    def test_one_call_scrape_exports_validly(self):
        dht = small_network()
        sim = Simulator()
        registry = collect_all(MetricsRegistry(), network=dht, sim=sim)
        text = registry.to_prometheus()
        validate_prometheus(text)
        assert "repro_dht_nodes 8" in text
        assert "repro_sim_virtual_now" in text

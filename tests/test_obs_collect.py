"""Tests for the pull-based subsystem collectors (repro.obs.collect)."""

from repro.cache.results import QueryResultCache
from repro.dht.network import DhtNetwork
from repro.obs.collect import (
    collect_all,
    collect_cache,
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


class TestCacheAndSimCollectors:
    def test_cache_gauges(self):
        cache = QueryResultCache(budget_bytes=4096)
        cache.put(("montia",), ["a.mp3"], cost_bytes=100, result_count=1)
        cache.get(("montia",))
        cache.get(("missing",))
        registry = MetricsRegistry()
        collect_cache(registry, cache)
        assert registry.gauge("cache.hits").value == 1
        assert registry.gauge("cache.misses").value == 1
        assert registry.gauge("cache.entries").value == 1
        assert registry.gauge("cache.budget_bytes").value == 4096

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

    def test_round_robin_run_report_gauges(self):
        """A finished run_sharded report: aggregate gauges plus one
        labelled series per shard, busy seconds included."""
        from repro.sim.shard import ShardProgram, run_sharded

        class Tick(ShardProgram):
            def start(self, ctx):
                ctx.schedule(1.0 + ctx.shard_id, lambda: None)

        report = run_sharded(lambda shard_id, num_shards, rng: Tick(), 2, 0.05)
        registry = MetricsRegistry()
        collect_simulator(registry, report)
        assert registry.gauge("sim.virtual_now").value == 2.0
        assert registry.gauge("sim.events_processed").value == 2
        assert registry.gauge("sim.shards").value == 2
        assert registry.gauge("sim.windows").value == report.windows
        for shard in ("0", "1"):
            labels = {"shard": shard}
            assert registry.gauge("sim.shard.events_processed", labels=labels).value == 1
            assert registry.gauge("sim.shard.busy_seconds", labels=labels).value >= 0.0
        assert (
            registry.gauge("sim.shard.virtual_now", labels={"shard": "1"}).value == 2.0
        )

    def test_shard_run_report_gauges_with_ipc_series(self):
        """A finished ShardRunReport scrapes like a live kernel: aggregate
        plus per-shard series, with IPC serialize/deserialize time as
        labelled gauges (the process backend's wall-time breakdown)."""
        from repro.sim.shard import ShardReport, ShardRunReport

        report = ShardRunReport(num_shards=2, backend="process", lookahead=0.05)
        report.windows = 7
        report.wall_seconds = 1.5
        report.cross_messages = 40
        report.shards = [
            ShardReport(
                shard_id=0,
                processed=100,
                busy_seconds=0.5,
                final_time=3.0,
                ipc_serialize_seconds=0.02,
                ipc_deserialize_seconds=0.01,
            ),
            ShardReport(
                shard_id=1,
                processed=50,
                busy_seconds=0.25,
                final_time=2.0,
                ipc_serialize_seconds=0.04,
                ipc_deserialize_seconds=0.03,
            ),
        ]
        registry = MetricsRegistry()
        collect_simulator(registry, report)
        assert registry.gauge("sim.virtual_now").value == 3.0
        assert registry.gauge("sim.events_processed").value == 150
        assert registry.gauge("sim.shards").value == 2
        assert registry.gauge("sim.windows").value == 7
        assert registry.gauge("sim.wall_seconds").value == 1.5
        assert registry.gauge("sim.cross_messages").value == 40
        assert (
            registry.gauge("sim.shard.busy_seconds", labels={"shard": "1"}).value
            == 0.25
        )
        assert (
            registry.gauge(
                "sim.shard.ipc_seconds", labels={"shard": "0", "phase": "serialize"}
            ).value
            == 0.02
        )
        assert (
            registry.gauge(
                "sim.shard.ipc_seconds", labels={"shard": "1", "phase": "deserialize"}
            ).value
            == 0.03
        )
        validate_prometheus(registry.to_prometheus())


class TestCollectAll:
    def test_one_call_scrape_exports_validly(self):
        dht = small_network()
        sim = Simulator()
        cache = QueryResultCache(budget_bytes=1024)
        registry = collect_all(
            MetricsRegistry(), network=dht, sim=sim, caches={"results": cache}
        )
        assert registry.gauge("cache.results.entries").value == 0
        text = registry.to_prometheus()
        validate_prometheus(text)
        assert "repro_dht_nodes 8" in text
        assert "repro_sim_virtual_now" in text

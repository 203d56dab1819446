"""Pull-based collectors: snapshot subsystem stats into a registry.

The DHT bandwidth meter, route cache and simulator already keep exact
counts on their own hot paths; re-counting them per-message in the
metrics layer would double the bookkeeping for nothing. Instead —
Prometheus-style — these collectors are called at scrape time and copy
the current totals into gauges (and the meter's per-category traffic
into labelled gauges), so a scrape costs O(series) and the hot paths
cost nothing extra.
"""

from __future__ import annotations

from typing import Any

from repro.obs.metrics import MetricsRegistry


def collect_network(registry: MetricsRegistry, network: Any) -> None:
    """DHT-wide gauges: per-message-type bandwidth, route cache, churn."""
    registry.gauge("dht.nodes").set(len(network.nodes))
    registry.gauge("dht.membership_version").set(network.membership_version)
    meter = network.meter
    registry.gauge("dht.messages").set(meter.messages)
    registry.gauge("dht.bytes").set(meter.bytes)
    for category, cost in meter.by_category.items():
        labels = {"category": category}
        registry.gauge("dht.traffic.messages", labels=labels).set(cost.messages)
        registry.gauge("dht.traffic.bytes", labels=labels).set(cost.bytes)
    hits = network.route_cache_hits
    misses = network.route_cache_misses
    registry.gauge("dht.route_cache.hits").set(hits)
    registry.gauge("dht.route_cache.misses").set(misses)
    total = hits + misses
    registry.gauge("dht.route_cache.hit_ratio").set(hits / total if total else 0.0)
    registry.gauge("dht.route_repairs").set(getattr(network, "route_repairs", 0))
    handoff = meter.by_category.get("dht.handoff")
    registry.gauge("dht.handoff.bytes").set(handoff.bytes if handoff else 0)


def collect_simulator(registry: MetricsRegistry, sim: Any) -> None:
    """Engine gauges: virtual clock, lifetime events, queue depth."""
    registry.gauge("sim.virtual_now").set(sim.now)
    registry.gauge("sim.events_processed").set(sim.processed)
    registry.gauge("sim.events_pending").set(sim.pending)


def collect_all(
    registry: MetricsRegistry, network: Any = None, sim: Any = None
) -> MetricsRegistry:
    """One-call scrape of every standard subsystem; returns the registry."""
    if network is not None:
        collect_network(registry, network)
    if sim is not None:
        collect_simulator(registry, sim)
    return registry

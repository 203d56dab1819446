"""Pull-based collectors: snapshot subsystem stats into a registry.

The DHT bandwidth meter, route cache, result cache, and simulator
already keep exact counts on their own hot paths; re-counting them
per-message in the metrics layer would double the bookkeeping for
nothing. Instead — Prometheus-style — these collectors are called at
scrape time and copy the current totals into gauges (and the meter's
per-category traffic into labelled gauges), so a scrape costs O(series)
and the hot paths cost nothing extra.
"""

from __future__ import annotations

from typing import Any

from repro.obs.metrics import MetricsRegistry


def collect_network(registry: MetricsRegistry, network: Any, prefix: str = "dht") -> None:
    """DHT-wide gauges: per-message-type bandwidth, route cache, churn."""
    registry.gauge(f"{prefix}.nodes").set(len(network.nodes))
    registry.gauge(f"{prefix}.membership_version").set(network.membership_version)
    meter = network.meter
    registry.gauge(f"{prefix}.messages").set(meter.messages)
    registry.gauge(f"{prefix}.bytes").set(meter.bytes)
    for category, cost in meter.by_category.items():
        labels = {"category": category}
        registry.gauge(f"{prefix}.traffic.messages", labels=labels).set(cost.messages)
        registry.gauge(f"{prefix}.traffic.bytes", labels=labels).set(cost.bytes)
    hits = network.route_cache_hits
    misses = network.route_cache_misses
    registry.gauge(f"{prefix}.route_cache.hits").set(hits)
    registry.gauge(f"{prefix}.route_cache.misses").set(misses)
    total = hits + misses
    registry.gauge(f"{prefix}.route_cache.hit_ratio").set(hits / total if total else 0.0)
    registry.gauge(f"{prefix}.route_repairs").set(getattr(network, "route_repairs", 0))
    handoff = meter.by_category.get("dht.handoff")
    registry.gauge(f"{prefix}.handoff.bytes").set(handoff.bytes if handoff else 0)


def collect_cache(registry: MetricsRegistry, cache: Any, prefix: str = "cache") -> None:
    """Result-cache gauges: hit/miss/eviction accounting plus occupancy."""
    stats = cache.stats
    for name in (
        "hits",
        "misses",
        "insertions",
        "rejections",
        "evictions",
        "bytes_saved",
    ):
        registry.gauge(f"{prefix}.{name}").set(getattr(stats, name))
    registry.gauge(f"{prefix}.hit_ratio").set(stats.hit_rate)
    registry.gauge(f"{prefix}.entries").set(len(cache))
    registry.gauge(f"{prefix}.used_bytes").set(cache.used_bytes)
    registry.gauge(f"{prefix}.budget_bytes").set(cache.budget_bytes)


def collect_simulator(registry: MetricsRegistry, sim: Any, prefix: str = "sim") -> None:
    """Engine gauges: virtual clock, lifetime events, queue depth."""
    registry.gauge(f"{prefix}.virtual_now").set(sim.now)
    registry.gauge(f"{prefix}.events_processed").set(sim.processed)
    registry.gauge(f"{prefix}.events_pending").set(sim.pending)


def collect_all(
    registry: MetricsRegistry,
    network: Any = None,
    sim: Any = None,
    caches: dict[str, Any] | None = None,
) -> MetricsRegistry:
    """One-call scrape of every standard subsystem; returns the registry."""
    if network is not None:
        collect_network(registry, network)
    if sim is not None:
        collect_simulator(registry, sim)
    for name, cache in (caches or {}).items():
        collect_cache(registry, cache, prefix=f"cache.{name}")
    return registry

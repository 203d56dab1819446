"""The world builder wires the hybrid stack the same way for every caller.

:func:`repro.hybrid.world.build_world` owns three wiring decisions: the
i-th hybrid ultrapeer sits on the i-th DHT node, the cache (and a passed
tracer) read the world's virtual clock, and one metrics registry reaches
the search engine, the race engine and every ultrapeer.
"""

import math

import pytest

from repro.dht.network import DhtNetwork
from repro.hybrid.world import build_world
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer

#: the series key of a ``dataflow.strategy`` counter, up to the strategy
STRATEGY_SERIES = 'dataflow.strategy{strategy="'


def executed_strategies(metrics: MetricsRegistry) -> dict[str, int]:
    """{strategy name: plans executed} from the ``dataflow.strategy``
    counters."""
    return {
        key[len(STRATEGY_SERIES) : -len('"}')]: counter.value
        for key, counter in metrics.counters.items()
        if key.startswith(STRATEGY_SERIES) and counter.value
    }


def populated_dht(nodes: int = 16) -> DhtNetwork:
    dht = DhtNetwork(rng=3)
    dht.populate(nodes)
    return dht


def test_ith_hybrid_sits_on_ith_dht_node():
    dht = DhtNetwork(rng=3)
    joined = dht.populate(16)
    world = build_world(dht, [40, 7, 19, 3])
    assert [hybrid.ultrapeer_id for hybrid in world.hybrids] == [40, 7, 19, 3]
    for index, hybrid in enumerate(world.hybrids):
        assert hybrid.dht_node_id == joined[index].node_id
        assert world.nodes[index] is joined[index]


def test_more_hybrids_than_dht_nodes_is_refused():
    with pytest.raises(ValueError, match="DHT nodes"):
        build_world(populated_dht(4), range(5))


def test_one_registry_reaches_search_engine_and_every_hybrid():
    metrics = MetricsRegistry()
    world = build_world(populated_dht(), range(6), optimizer=True, metrics=metrics)
    assert world.search.metrics is metrics
    assert world.search.optimizer.metrics is metrics
    assert world.engine.metrics is metrics
    assert all(hybrid.metrics is metrics for hybrid in world.hybrids)
    assert all(hybrid.search_engine is world.search for hybrid in world.hybrids)
    assert all(hybrid.publisher is world.publisher for hybrid in world.hybrids)


def test_passed_tracer_reads_the_world_clock():
    tracer = Tracer()
    world = build_world(populated_dht(), range(2), tracer=tracer)
    assert world.engine.tracer is world.search.tracer is tracer
    world.sim.schedule_at(12.5, lambda: None)
    world.sim.run()
    assert world.sim.now == 12.5
    assert tracer.begin("probe").start == 12.5


def test_cache_reads_the_simulator_clock():
    world = build_world(populated_dht(), range(3), cache_budget_bytes=4096)
    assert all(hybrid.result_cache is world.cache for hybrid in world.hybrids)
    world.sim.schedule_at(7.25, lambda: None)
    world.sim.run()
    assert world.cache.now() == world.sim.now == 7.25


def test_cache_is_off_by_default():
    world = build_world(populated_dht(), range(3))
    assert world.cache is None
    assert all(hybrid.result_cache is None for hybrid in world.hybrids)


def test_world_races_a_published_file():
    """A world that names no strategy races with the semi-join."""
    metrics = MetricsRegistry()
    world = build_world(
        populated_dht(), range(2), gnutella_timeout=1.0, rng=5, metrics=metrics
    )
    world.publisher.publish_file("montia klorena take.mp3", 1000, "10.0.0.1", 6346)
    race = world.hybrids[1].handle_leaf_query_simulated(
        world.engine, ["montia", "klorena"], [math.inf], stop_ttl=3
    )
    world.sim.run()
    assert race.done and race.outcome.pier_results == 1
    assert world.engine.completed == 1
    assert executed_strategies(metrics) == {"SEMI_JOIN": 1}

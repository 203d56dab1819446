"""The hybrid engine's registry series, pinned over a fixed race matrix.

The engine resolves each counter and its latency histogram once, on first
use, and keeps the handle. A handle resolved under the wrong name or
label, or a series created before the race that first feeds it, would
still let every answer come out right; this test catches both by pinning
the registry snapshot after each phase of a fixed matrix — a flood win,
PIER answers, a stop-word query, cache hits, a degraded zero answer,
re-query walks that recover from churn or retry, and a re-query abandoned
after its retries — against the snapshots the engine produced when it
looked every series up by name on each use, with every answered race's
first-result latency in the histogram exactly once (a PIER answer's too,
though its race resolves before its result count is known).
"""

import math

import pytest

from repro.cache.results import QueryResultCache
from repro.common.ids import hash_key
from repro.dht.network import DhtNetwork
from repro.hybrid.engine import HybridQueryEngine, RaceConfig
from repro.hybrid.ultrapeer import HybridUltrapeer
from repro.pier.catalog import Catalog
from repro.piersearch.publisher import Publisher
from repro.piersearch.search import SearchEngine
from repro.sim.engine import Simulator

TIMEOUT = 30.0


def run_matrix():
    """Registry snapshots (``MetricsRegistry.to_json``) before any race
    and after each phase of the matrix, and the races."""
    dht = DhtNetwork(rng=41)
    nodes = dht.populate(32)
    catalog = Catalog(dht)
    publisher = Publisher(dht, catalog)
    names = ["rare montia klorena.mp3", "rare zentor quillet.mp3"]
    names += [f"rare walker{index}.mp3" for index in range(8)]
    for name in names:
        publisher.publish_file(filename=name, filesize=100, ip_address="10.0.0.1", port=6346)
    sim = Simulator()
    engine = HybridQueryEngine(sim, dht, config=RaceConfig(retry_backoff=0.5), rng=5)
    hybrid = HybridUltrapeer(
        ultrapeer_id=1,
        dht_node_id=nodes[0].node_id,
        publisher=publisher,
        search_engine=SearchEngine(dht, catalog),
        gnutella_timeout=TIMEOUT,
        result_cache=QueryResultCache(
            1 << 20, clock=lambda: sim.now, cost_model=dht.cost_model
        ),
    )

    def race(terms, depths=(math.inf,)):
        hybrid.handle_leaf_query_simulated(engine, list(terms), list(depths), 3)

    snapshots = [engine.metrics.to_json()]
    # 1. the flood answers in time
    race(["popular"], depths=(1.0, 2.0))
    sim.run()
    snapshots.append(engine.metrics.to_json())
    # 2. PIER answers two rare queries; a stop-word query cannot re-query
    race(["Montia", "klorena"])
    race(["zentor"])
    race(["the"])
    sim.run()
    snapshots.append(engine.metrics.to_json())
    # 3. both rare answers come from the cache; a zero answer whose posting
    # list's owner died without a handoff is degraded
    race(["klorena", "montia"])
    race(["Zentor!"])
    race(["absentword"])
    lost = hash_key("Inverted|absentword")
    sim.schedule(TIMEOUT - 0.01, lambda: dht.remove_node(dht.owner_of(lost), graceful=False))
    sim.run()
    snapshots.append(engine.metrics.to_json())
    # 4. nodes leave while eight re-query walks are in flight
    for index in range(8):
        race([f"walker{index}"])
    start = sim.now
    for step in range(1, 7):
        sim.schedule_at(
            start + TIMEOUT + step * 0.8,
            lambda: dht.remove_node(dht.random_node_id(), graceful=True),
        )
    sim.run()
    snapshots.append(engine.metrics.to_json())
    # 5. the ring empties under a re-query: every retry dead-ends
    race(["quillet"])

    def empty_ring():
        for node_id in list(dht.nodes):
            dht.remove_node(node_id, graceful=False)

    sim.schedule(TIMEOUT - 0.01, empty_ring)
    sim.run()
    snapshots.append(engine.metrics.to_json())
    return snapshots, engine.races


#: the latency histogram after the one flood win (7 s)
ONE_FLOOD_WIN = {
    "count": 1,
    "sum": 7.0,
    "mean": 7.0,
    "min": 7.0,
    "max": 7.0,
    "quantiles": {"0.5": 7.0, "0.9": 7.0, "0.99": 7.0},
}

#: ... and after two PIER answers (timeout + walk + pipeline)
FLOOD_AND_TWO_PIER_ANSWERS = {
    "count": 3,
    "sum": 82.09202922953473,
    "mean": 27.364009743178244,
    "min": 7.0,
    "max": 37.70062188527851,
    "quantiles": {
        "0.5": 37.39140734425622,
        "0.9": 37.70062188527851,
        "0.99": 37.70062188527851,
    },
}

#: ... and after two cache hits (timeout + cache latency)
PLUS_TWO_CACHE_HITS = {
    "count": 5,
    "sum": 142.19202922953474,
    "mean": 28.43840584590695,
    "min": 7.0,
    "max": 37.70062188527851,
    "quantiles": {
        "0.5": 30.049999999999997,
        "0.9": 37.70062188527851,
        "0.99": 37.70062188527851,
    },
}

#: ... and after the eight walks, each answered by PIER
PLUS_EIGHT_WALKS = {
    "count": 13,
    "sum": 483.4826093527177,
    "mean": 37.19096995020905,
    "min": 7.0,
    "max": 46.59557244128642,
    "quantiles": {
        "0.5": 39.0897625517503,
        "0.9": 44.99834774375431,
        "0.99": 46.59557244128642,
    },
}

#: Recorded on CPython 3.11 (the two PIER latencies re-recorded once the
#: semi-join fetched its Items from its last join site; the counters and
#: the latency sum did not move); the counters are the ones the engine
#: produced when it looked every series up by name on each use. Before PIER
#: answers were observed, the histogram held the flood win and the two
#: cache hits only: a PIER race resolves on its first answer batch, before
#: its result count is known, and was never observed after.
EXPECTED = [
    {"counters": {}, "gauges": {}, "histograms": {}},
    {
        "counters": {
            "hybrid.races": 1,
            'hybrid.winner{source="gnutella"}': 1,
        },
        "gauges": {},
        "histograms": {"hybrid.first_result_latency": ONE_FLOOD_WIN},
    },
    {
        "counters": {
            "hybrid.races": 4,
            "hybrid.requery_attempts": 3,
            'hybrid.winner{source="gnutella"}': 1,
            'hybrid.winner{source="pier"}': 3,
        },
        "gauges": {},
        "histograms": {"hybrid.first_result_latency": FLOOD_AND_TWO_PIER_ANSWERS},
    },
    {
        "counters": {
            "hybrid.cache_hits": 2,
            'hybrid.degraded{reason="suspect-range"}': 1,
            "hybrid.races": 7,
            "hybrid.requery_attempts": 4,
            'hybrid.winner{source="cache"}': 2,
            'hybrid.winner{source="gnutella"}': 1,
            'hybrid.winner{source="pier"}': 4,
        },
        "gauges": {},
        "histograms": {"hybrid.first_result_latency": PLUS_TWO_CACHE_HITS},
    },
    {
        "counters": {
            "hybrid.cache_hits": 2,
            "hybrid.churn_recoveries": 4,
            'hybrid.degraded{reason="suspect-range"}': 1,
            "hybrid.dht_dead_ends": 13,
            "hybrid.races": 15,
            "hybrid.requery_attempts": 25,
            "hybrid.requery_retries": 13,
            'hybrid.winner{source="cache"}': 2,
            'hybrid.winner{source="gnutella"}': 1,
            'hybrid.winner{source="pier"}': 12,
        },
        "gauges": {},
        "histograms": {"hybrid.first_result_latency": PLUS_EIGHT_WALKS},
    },
    {
        "counters": {
            "hybrid.cache_hits": 2,
            "hybrid.churn_recoveries": 4,
            'hybrid.degraded{reason="requery-abandoned"}': 1,
            'hybrid.degraded{reason="suspect-range"}': 1,
            "hybrid.dht_dead_ends": 16,
            "hybrid.pier_abandoned": 1,
            "hybrid.races": 16,
            "hybrid.requery_attempts": 28,
            "hybrid.requery_retries": 15,
            'hybrid.winner{source="cache"}': 2,
            'hybrid.winner{source="gnutella"}': 1,
            'hybrid.winner{source="none"}': 1,
            'hybrid.winner{source="pier"}': 12,
        },
        "gauges": {},
        "histograms": {"hybrid.first_result_latency": PLUS_EIGHT_WALKS},
    },
]


def test_registry_series_match_the_per_use_lookups():
    assert run_matrix()[0] == EXPECTED


def test_every_answered_race_is_observed_once():
    """The histogram holds exactly the finite first-result latencies of
    the resolved races — flood wins, cache hits and PIER answers alike."""
    snapshots, races = run_matrix()
    answered = [
        race for race in races if race.done and not math.isinf(race.first_result_latency)
    ]
    assert [race for race in races if race.latency_observed] == answered
    latencies = [race.first_result_latency for race in answered]
    histogram = snapshots[-1]["histograms"]["hybrid.first_result_latency"]
    assert histogram["count"] == len(latencies) == 13
    assert (histogram["min"], histogram["max"]) == (min(latencies), max(latencies))
    assert histogram["sum"] == pytest.approx(sum(latencies))

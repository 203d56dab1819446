"""The hybrid engine's registry series, pinned over a fixed race matrix.

The engine resolves each counter once, on first use, and keeps the
handle. A handle resolved under the wrong name or label, or a series
created before the race that first feeds it, would still let every
answer come out right; this test catches both by pinning the counters
after each phase of a fixed matrix — a flood win, PIER answers, a
stop-word query, cache hits, a degraded zero answer, re-query walks that
recover from churn or retry, and a re-query abandoned after its retries —
against the counters the engine produced when it looked every series up
by name on each use.
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


def counters(engine: HybridQueryEngine) -> dict[str, int]:
    """The engine registry's counters, by series key."""
    return {key: counter.value for key, counter in engine.metrics.counters.items()}


def run_matrix():
    """Counter snapshots before any race and after each phase of the
    matrix."""
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

    snapshots = [counters(engine)]
    # 1. the flood answers in time
    race(["popular"], depths=(1.0, 2.0))
    sim.run()
    snapshots.append(counters(engine))
    # 2. PIER answers two rare queries; a stop-word query cannot re-query
    race(["Montia", "klorena"])
    race(["zentor"])
    race(["the"])
    sim.run()
    snapshots.append(counters(engine))
    # 3. both rare answers come from the cache; a zero answer whose posting
    # list's owner died without a handoff is degraded
    race(["klorena", "montia"])
    race(["Zentor!"])
    race(["absentword"])
    lost = hash_key("Inverted|absentword")
    sim.schedule(TIMEOUT - 0.01, lambda: dht.remove_node(dht.owner_of(lost), graceful=False))
    sim.run()
    snapshots.append(counters(engine))
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
    snapshots.append(counters(engine))
    # 5. the ring empties under a re-query: every retry dead-ends
    race(["quillet"])

    def empty_ring():
        for node_id in list(dht.nodes):
            dht.remove_node(node_id, graceful=False)

    sim.schedule(TIMEOUT - 0.01, empty_ring)
    sim.run()
    snapshots.append(counters(engine))
    return snapshots


#: Recorded on CPython 3.11; the counters are the ones the engine produced
#: when it looked every series up by name on each use.
EXPECTED = [
    {},
    {
        "hybrid.races": 1,
        'hybrid.winner{source="gnutella"}': 1,
    },
    {
        "hybrid.races": 4,
        "hybrid.requery_attempts": 3,
        'hybrid.winner{source="gnutella"}': 1,
        'hybrid.winner{source="pier"}': 3,
    },
    {
        "hybrid.cache_hits": 2,
        'hybrid.degraded{reason="suspect-range"}': 1,
        "hybrid.races": 7,
        "hybrid.requery_attempts": 4,
        'hybrid.winner{source="cache"}': 2,
        'hybrid.winner{source="gnutella"}': 1,
        'hybrid.winner{source="pier"}': 4,
    },
    {
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
    {
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
]


@pytest.fixture(scope="module")
def snapshots():
    return run_matrix()


def test_registry_series_match_the_per_use_lookups(snapshots):
    assert snapshots == EXPECTED


def family(snapshot, name):
    """The sum of ``name``'s labelled series in ``snapshot``."""
    return sum(value for key, value in snapshot.items() if key.startswith(name + "{"))


def test_every_race_is_won_once(snapshots):
    """Each resolved race names exactly one winner, ``none`` included."""
    for snapshot in snapshots:
        assert family(snapshot, "hybrid.winner") == snapshot.get("hybrid.races", 0)


def test_every_cache_hit_is_a_cache_win(snapshots):
    for snapshot in snapshots:
        assert snapshot.get("hybrid.cache_hits", 0) == snapshot.get(
            'hybrid.winner{source="cache"}', 0
        )


def test_counters_never_decrease_between_phases(snapshots):
    for before, after in zip(snapshots, snapshots[1:]):
        assert set(before) <= set(after)
        assert all(after[key] >= value for key, value in before.items())

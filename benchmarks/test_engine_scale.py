"""Bench the event-driven query engine: >=1k concurrent races under churn.

Submits 1,200 leaf queries within a 12 s virtual-time window against a
30 s Gnutella timeout, so the whole batch is simultaneously in flight
when the re-queries start firing, while scheduled churn (including
non-stabilizing steps that leave stale fingers) removes and adds DHT
nodes mid-run. Pins engine throughput and the engine's liveness
guarantees at scale.
"""

import math

from repro.common.rng import make_rng
from repro.dht.churn import ChurnProcess
from repro.dht.network import DhtNetwork
from repro.hybrid.engine import HybridQueryEngine, RaceConfig
from repro.hybrid.ultrapeer import HybridUltrapeer
from repro.pier.catalog import Catalog
from repro.piersearch.publisher import Publisher
from repro.piersearch.search import SearchEngine
from repro.sim.engine import Simulator

NUM_QUERIES = 1200
NUM_NODES = 64
NUM_FILES = 250
SUBMIT_WINDOW = 12.0
TIMEOUT = 30.0


def _build_and_run():
    dht = DhtNetwork(rng=17)
    nodes = dht.populate(NUM_NODES)
    catalog = Catalog(dht)
    publisher = Publisher(dht, catalog)
    search = SearchEngine(dht, catalog)
    sim = Simulator()
    engine = HybridQueryEngine(sim, dht, config=RaceConfig(retry_backoff=1.0), rng=7)
    hybrids = [
        HybridUltrapeer(
            ultrapeer_id=index,
            dht_node_id=node.node_id,
            publisher=publisher,
            search_engine=search,
            gnutella_timeout=TIMEOUT,
        )
        for index, node in enumerate(nodes[:8])
    ]
    # Published corpus: every rare query below has a real DHT answer.
    for index in range(NUM_FILES):
        publisher.publish_file(
            filename=f"rare track{index:04d} nebula.mp3",
            filesize=4096 + index,
            ip_address=f"10.1.{index // 256}.{index % 256}",
            port=6346,
            origin=nodes[index % NUM_NODES].node_id,
        )

    # Churn lands while the whole batch is in flight: every 4 s of
    # virtual time, with every other step leaving tables unstabilized so
    # in-flight walks hit stale fingers and dead next hops.
    churn = ChurnProcess(dht, rng=29, failure_fraction=0.4)
    churn.schedule(sim, interval=4.0, steps=8, stabilize=True)
    churn.schedule(sim, interval=8.0, steps=4, stabilize=False)

    rng = make_rng(23)
    for index in range(NUM_QUERIES):
        hybrid = hybrids[index % len(hybrids)]
        if index % 4 == 0:
            # Popular query: replicas close by, flooding wins in-round.
            terms = ["popular", "hit"]
            depths = [1.0, 2.0, 2.0]
        else:
            # Rare query: nothing within the flood horizon -> DHT race.
            file_index = rng.randrange(NUM_FILES)
            terms = [f"track{file_index:04d}", "nebula"]
            depths = [math.inf]
        sim.schedule_at(
            index * (SUBMIT_WINDOW / NUM_QUERIES),
            lambda hybrid=hybrid, terms=terms, depths=depths: (
                hybrid.handle_leaf_query_simulated(engine, terms, depths, stop_ttl=3)
            ),
        )
    sim.run()
    return engine, dht, churn


def test_engine_1k_concurrent_races_under_churn(benchmark):
    engine, dht, churn = benchmark(_build_and_run)
    # Every race resolved, and the batch really was concurrent.
    assert engine.completed == NUM_QUERIES
    assert engine.inflight == 0
    assert engine.peak_inflight >= 1000
    # Churn actually happened mid-run...
    assert churn.stats.leaves + churn.stats.failures >= 10
    # ...and the engine still answered rare queries through the DHT.
    pier_answered = [
        race for race in engine.races if race.outcome.used_pier and race.outcome.pier_results > 0
    ]
    assert len(pier_answered) > NUM_QUERIES // 4
    # Popular queries were answered by flooding before the timeout.
    flood_answered = [
        race for race in engine.races if not race.outcome.used_pier
    ]
    assert len(flood_answered) >= NUM_QUERIES // 4
    # Throughput is pinned: the run must not stretch virtual time beyond
    # the submit window + timeout + a bounded re-query tail.
    assert engine.completed / engine.sim.now > 10.0

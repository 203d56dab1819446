"""Tests for the event-driven hybrid query engine (virtual-time races)."""

import math

import pytest

from repro.cache.results import QueryResultCache
from oracle import reference_dynamic_query
from repro.dht.network import DhtNetwork
from repro.gnutella.latency import GnutellaLatencyModel
from repro.gnutella.measurement import ContentMatcher, bfs_depths, dynamic_stop_ttl
from repro.hybrid.engine import MAX_REQUERY_ATTEMPTS, HybridQueryEngine, RaceConfig
from repro.hybrid.ultrapeer import DEFAULT_CACHE_LATENCY, HybridUltrapeer
from repro.net.transport import HOP_JITTER, HOP_LATENCY
from repro.pier.catalog import Catalog
from repro.piersearch.publisher import Publisher
from repro.piersearch.search import SearchEngine
from repro.sim.engine import Simulator

from tests.test_gnutella_flooding import line_topology, network_of

TIMEOUT = 30.0


@pytest.fixture()
def world():
    dht = DhtNetwork(rng=41)
    nodes = dht.populate(32)
    catalog = Catalog(dht)
    publisher = Publisher(dht, catalog)
    search = SearchEngine(dht, catalog)
    sim = Simulator()
    engine = HybridQueryEngine(sim, dht, config=RaceConfig(retry_backoff=0.5), rng=5)
    hybrid = HybridUltrapeer(
        ultrapeer_id=1,
        dht_node_id=nodes[0].node_id,
        publisher=publisher,
        search_engine=search,
        gnutella_timeout=TIMEOUT,
    )
    return sim, dht, engine, hybrid


def publish(hybrid, name):
    hybrid.publisher.publish_file(
        filename=name, filesize=100, ip_address="10.0.0.1", port=6346
    )


class TestGnutellaSide:
    def test_popular_query_wins_without_pier(self, world):
        sim, _, engine, hybrid = world
        race = hybrid.handle_leaf_query_simulated(engine, ["popular"], [1.0, 2.0], stop_ttl=3)
        sim.run()
        assert race.done
        outcome = race.outcome
        assert not outcome.used_pier
        assert outcome.gnutella_results == 2
        model = GnutellaLatencyModel()
        assert outcome.gnutella_latency == pytest.approx(model.arrival_for_depth(1, 3))
        assert outcome.first_result_latency < TIMEOUT

    def test_arrival_times_follow_round_structure(self, world):
        sim, _, engine, hybrid = world
        race = hybrid.handle_leaf_query_simulated(engine, ["deep"], [3.0], stop_ttl=3)
        sim.run()
        model = GnutellaLatencyModel()
        assert race.outcome.gnutella_latency == pytest.approx(model.arrival_for_depth(3, 3))

    def test_race_answers_as_the_round_by_round_reference(self, world):
        """A leaf query raced with its closed-form depths and stop TTL (as
        the Section 7 deployment submits it) counts the replicas and
        first-result time of the reference query that floods round by
        round."""
        sim, _, engine, hybrid = world
        topology = line_topology(6)
        files = {0: ["hit zero.mp3"], 2: ["hit two.mp3", "miss.mp3"], 4: ["hit four.mp3"]}
        network = network_of(topology, files)
        names = ContentMatcher(network).matching_filenames(["hit"])
        depths = network.replica_depths(names, bfs_depths(network, 1))
        stop_ttl = dynamic_stop_ttl(depths, 2, 4)
        race = hybrid.handle_leaf_query_simulated(engine, ["hit"], depths, stop_ttl)
        sim.run()
        found, reference_stop, first_arrival, _ = reference_dynamic_query(
            topology, network.placement, 1, ["hit"], 2, 4, GnutellaLatencyModel()
        )
        assert stop_ttl == reference_stop == 1
        assert race.outcome.gnutella_results == len(found) == 2
        assert race.outcome.gnutella_latency == first_arrival == 7.0
        assert not race.outcome.used_pier

    def test_replicas_beyond_stop_ttl_do_not_count(self, world):
        sim, _, engine, hybrid = world
        race = hybrid.handle_leaf_query_simulated(engine, ["far"], [4.0], stop_ttl=3)
        sim.run()
        assert race.outcome.gnutella_results == 0
        assert race.outcome.used_pier


class TestDhtSide:
    def test_rare_query_answered_by_pier_after_timeout(self, world):
        sim, _, engine, hybrid = world
        publish(hybrid, "rare montia klorena.mp3")
        race = hybrid.handle_leaf_query_simulated(engine, ["montia"], [math.inf], stop_ttl=3)
        sim.run()
        outcome = race.outcome
        assert race.done and outcome.used_pier
        assert outcome.pier_results == 1
        assert outcome.pier_latency > TIMEOUT
        assert outcome.pier_bytes > 0
        assert outcome.first_result_latency == outcome.pier_latency

    def test_race_picks_faster_source(self, world):
        """Gnutella results arriving after the timeout race the DHT."""
        sim, _, engine, hybrid = world
        publish(hybrid, "rare montia klorena.mp3")
        # Depth 4 with stop_ttl 4 arrives deep into the round structure,
        # after the 30 s timeout has already fired the re-query.
        race = hybrid.handle_leaf_query_simulated(engine, ["montia"], [4.0], stop_ttl=4)
        sim.run()
        outcome = race.outcome
        assert outcome.used_pier
        assert outcome.gnutella_latency > TIMEOUT
        assert outcome.first_result_latency == min(
            outcome.gnutella_latency, outcome.pier_latency
        )

    def test_stop_word_query_cannot_requery(self, world):
        sim, _, engine, hybrid = world
        race = hybrid.handle_leaf_query_simulated(engine, ["the"], [math.inf], stop_ttl=3)
        sim.run()
        assert race.done
        assert race.outcome.used_pier
        assert race.outcome.pier_results == 0
        assert math.isinf(race.outcome.first_result_latency)

    def test_pier_latency_reflects_hop_count(self, world):
        sim, _, engine, hybrid = world
        publish(hybrid, "rare montia klorena.mp3")
        race = hybrid.handle_leaf_query_simulated(engine, ["montia"], [math.inf], stop_ttl=3)
        sim.run()
        # At least one hop draw past the timeout, bounded by the jitter.
        minimum = TIMEOUT + HOP_LATENCY * (1 - HOP_JITTER)
        assert race.outcome.pier_latency >= minimum


class TestCacheIntegration:
    @pytest.fixture()
    def cached_world(self):
        dht = DhtNetwork(rng=41)
        nodes = dht.populate(32)
        catalog = Catalog(dht)
        publisher = Publisher(dht, catalog)
        search = SearchEngine(dht, catalog)
        sim = Simulator()
        engine = HybridQueryEngine(sim, dht, rng=5)
        hybrid = HybridUltrapeer(
            ultrapeer_id=1,
            dht_node_id=nodes[0].node_id,
            publisher=publisher,
            search_engine=search,
            gnutella_timeout=TIMEOUT,
            result_cache=QueryResultCache(budget_bytes=64 * 1024),
        )
        return sim, engine, hybrid

    def test_second_identical_query_hits_cache(self, cached_world):
        sim, engine, hybrid = cached_world
        publish(hybrid, "rare montia klorena.mp3")
        first = hybrid.handle_leaf_query_simulated(engine, ["montia"], [math.inf], 3)
        sim.run()
        second = hybrid.handle_leaf_query_simulated(engine, ["montia"], [math.inf], 3)
        sim.run()
        assert not first.outcome.cache_hit and second.outcome.cache_hit
        assert second.outcome.pier_results == first.outcome.pier_results
        assert second.outcome.saved_bytes == first.outcome.pier_bytes > 0
        assert second.outcome.pier_latency == pytest.approx(
            TIMEOUT + DEFAULT_CACHE_LATENCY
        )
        assert second.outcome.pier_latency < first.outcome.pier_latency


class TestChurnDuringQueries:
    def test_races_survive_churn_mid_query(self, world):
        sim, dht, engine, hybrid = world
        for index in range(12):
            publish(hybrid, f"rare montia{index:02d} klorena.mp3")
        races = [
            hybrid.handle_leaf_query_simulated(
                engine, [f"montia{index:02d}"], [math.inf], 3
            )
            for index in range(12)
        ]
        # Node departures land while every re-query walk is in flight
        # (between timeout and completion), without stabilization.
        for step in range(1, 7):
            sim.schedule(
                TIMEOUT + step * 0.8,
                lambda: dht.remove_node(dht.random_node_id(), graceful=True),
            )
        sim.run()
        assert all(race.done for race in races)
        answered = [race for race in races if race.outcome.pier_results > 0]
        assert len(answered) >= 8
        assert engine.inflight == 0
        # The engine's named counters reconcile with the per-race records:
        # every successor-list repair is a churn recovery, every DhtError
        # is a dead end, and each dead end either retried or abandoned.
        metrics = engine.metrics
        assert metrics.counter("hybrid.churn_recoveries").value == sum(
            race.route_retries for race in races
        )
        assert metrics.counter("hybrid.requery_attempts").value == sum(
            race.pier_attempts for race in races
        )
        assert metrics.counter("hybrid.dht_dead_ends").value == (
            metrics.counter("hybrid.requery_retries").value
            + metrics.counter("hybrid.pier_abandoned").value
        )

    def test_hybrid_dht_node_churned_out_still_queries(self, world):
        sim, dht, engine, hybrid = world
        publish(hybrid, "rare montia klorena.mp3")
        dht.remove_node(hybrid.dht_node_id, graceful=True)
        dht.stabilize()
        race = hybrid.handle_leaf_query_simulated(engine, ["montia"], [math.inf], 3)
        sim.run()
        assert race.done
        assert race.outcome.pier_results == 1

    def test_abandoned_requery_marks_pier_failed(self, world):
        sim, dht, engine, hybrid = world
        publish(hybrid, "rare montia klorena.mp3")
        race = hybrid.handle_leaf_query_simulated(engine, ["montia"], [math.inf], 3)
        # Empty the network right when the re-query fires: every attempt
        # must fail and the DHT side of the race gives up cleanly.
        def nuke():
            for node_id in list(dht.nodes):
                if dht.size > 1:
                    dht.remove_node(node_id, graceful=False)
        sim.schedule(TIMEOUT - 0.01, nuke)
        sim.run()
        assert race.done
        assert race.outcome.pier_results == 0
        assert engine.metrics.counter("hybrid.requery_attempts").value == (
            race.pier_attempts
        )

    def test_empty_ring_abandons_with_named_counters(self, world):
        """Every attempt dead-ends on an emptied ring: the race abandons
        the DHT side and the retry/dead-end/abandon counters reconcile."""
        sim, dht, engine, hybrid = world
        publish(hybrid, "rare montia klorena.mp3")
        race = hybrid.handle_leaf_query_simulated(engine, ["montia"], [math.inf], 3)
        def nuke():
            for node_id in list(dht.nodes):
                dht.remove_node(node_id, graceful=False)
        sim.schedule(TIMEOUT - 0.01, nuke)
        sim.run()
        assert race.done and race.pier_failed
        attempts = MAX_REQUERY_ATTEMPTS
        assert race.pier_attempts == attempts
        metrics = engine.metrics
        assert metrics.counter("hybrid.requery_attempts").value == attempts
        assert metrics.counter("hybrid.requery_retries").value == attempts - 1
        assert metrics.counter("hybrid.dht_dead_ends").value == attempts
        assert metrics.counter("hybrid.pier_abandoned").value == 1
        assert metrics.counter("hybrid.winner", labels={"source": "none"}).value == 1

    def test_all_races_resolve_eventually(self, world):
        """Liveness: no race may hang, whatever churn does."""
        sim, dht, engine, hybrid = world
        for index in range(10):
            publish(hybrid, f"rare montia{index:02d} klorena.mp3")
        for index in range(10):
            hybrid.handle_leaf_query_simulated(
                engine, [f"montia{index:02d}"], [math.inf], 3
            )
        for step in range(1, 10):
            sim.schedule(TIMEOUT + step * 0.5, lambda: (
                dht.size > 4 and dht.remove_node(dht.random_node_id(), graceful=False)
            ))
        sim.run()
        assert engine.inflight == 0
        assert engine.completed == 10


class TestConcurrencyAccounting:
    def test_peak_inflight_tracks_overlap(self, world):
        sim, _, engine, hybrid = world
        for index in range(5):
            sim.schedule_at(
                index * 1.0,
                lambda: hybrid.handle_leaf_query_simulated(
                    engine, ["popular"], [1.0], 3
                ),
            )
        sim.run()
        assert engine.peak_inflight == 5
        assert engine.completed == 5
        assert engine.inflight == 0

    def test_deterministic_given_seeds(self):
        def build_and_run():
            dht = DhtNetwork(rng=41)
            nodes = dht.populate(32)
            catalog = Catalog(dht)
            publisher = Publisher(dht, catalog)
            search = SearchEngine(dht, catalog)
            sim = Simulator()
            engine = HybridQueryEngine(sim, dht, rng=5)
            hybrid = HybridUltrapeer(1, nodes[0].node_id, publisher, search)
            publish(hybrid, "rare montia klorena.mp3")
            races = [
                hybrid.handle_leaf_query_simulated(engine, ["montia"], [math.inf], 3)
                for _ in range(3)
            ]
            sim.run()
            return [race.outcome.pier_latency for race in races]

        assert build_and_run() == build_and_run()


class TestPipelinedRaces:
    """Re-queries execute on the streaming dataflow by default: the race
    resolves at the first answer batch, mid-join."""

    def build(self, config=None, num_files=40, seed=41):
        dht = DhtNetwork(rng=seed)
        nodes = dht.populate(32)
        catalog = Catalog(dht)
        publisher = Publisher(dht, catalog)
        search = SearchEngine(dht, catalog)
        sim = Simulator()
        engine = HybridQueryEngine(sim, dht, config=config, rng=5)
        hybrid = HybridUltrapeer(1, nodes[0].node_id, publisher, search,
                                 gnutella_timeout=TIMEOUT)
        for index in range(num_files):
            publish(hybrid, f"montia klorena track{index:03d}.mp3")
        return sim, dht, engine, hybrid

    def test_first_answer_not_after_pipeline_completion(self):
        sim, _, engine, hybrid = self.build(
            config=RaceConfig(batch_size=1, retry_backoff=0.5)
        )
        race = hybrid.handle_leaf_query_simulated(
            engine, ["montia", "klorena"], [math.inf], 3
        )
        sim.run()
        outcome = race.outcome
        assert outcome.pier_results > 1
        assert outcome.pier_latency > TIMEOUT
        assert outcome.pier_latency < outcome.pier_completion_latency

    def test_race_and_blocking_search_charge_the_same(self):
        # With one batch per edge (huge batch size) a race charges exactly
        # what the blocking search() does for the same plan.
        sim, _, engine, hybrid = self.build(config=RaceConfig(batch_size=10**9))
        race = hybrid.handle_leaf_query_simulated(
            engine, ["montia", "klorena"], [math.inf], 3
        )
        sim.run()
        blocking = hybrid.search_engine.search(
            ["montia", "klorena"], query_node=hybrid.dht_node_id
        )
        assert race.outcome.pier_results == len(blocking) > 1
        assert race.outcome.pier_bytes == blocking.stats.bytes

    def test_a_race_won_mid_join_caches_the_whole_answer(self):
        """The race resolves on the first answer batch, but the pipeline
        drains every edge, so what the cache keeps is the full answer."""
        sim, _, engine, hybrid = self.build(config=RaceConfig(batch_size=1))
        hybrid.result_cache = QueryResultCache(budget_bytes=64 * 1024)
        race = hybrid.handle_leaf_query_simulated(
            engine, ["montia", "klorena"], [math.inf], 3
        )
        sim.run()
        outcome = race.outcome
        assert outcome.pier_latency < outcome.pier_completion_latency
        blocking = hybrid.search_engine.search(
            ["montia", "klorena"], query_node=hybrid.dht_node_id
        )
        cached = hybrid.cache_lookup(race.key)
        assert cached.result_count == outcome.pier_results == len(blocking) > 1
        assert sorted(cached.filenames) == sorted(blocking.filenames)

    def test_races_with_dataflow_survive_churn(self):
        sim, dht, engine, hybrid = self.build(
            config=RaceConfig(batch_size=1, retry_backoff=0.5)
        )
        races = [
            hybrid.handle_leaf_query_simulated(
                engine, ["montia", "klorena"], [math.inf], 3
            )
            for _ in range(8)
        ]
        for step in range(1, 8):
            sim.schedule(TIMEOUT + step * 0.7, lambda: (
                dht.size > 4 and dht.remove_node(dht.random_node_id(), graceful=False)
            ))
        sim.run()
        assert all(race.done for race in races)
        assert engine.inflight == 0
        metrics = engine.metrics
        assert metrics.counter("hybrid.churn_recoveries").value == sum(
            race.route_retries for race in races
        )
        assert metrics.counter("hybrid.dht_dead_ends").value == (
            metrics.counter("hybrid.requery_retries").value
            + metrics.counter("hybrid.pier_abandoned").value
        )

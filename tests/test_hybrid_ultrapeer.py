"""Tests for the hybrid ultrapeer's proxy and re-query policy.

The policy tests run each leaf query as a race on the hybrid query
engine and drain the simulator, so every answer is final when read.
Under the default Gnutella latency model a replica one overlay hop away
answers at 7 s, two hops at 25 s and three at 48 s, against the
ultrapeer's 30 s re-query timeout.
"""

import pytest

from repro.dht.network import DhtNetwork
from repro.hybrid.engine import HybridQueryEngine
from repro.hybrid.ultrapeer import (
    DEFAULT_CACHE_LATENCY,
    QRS_RESULT_SIZE_THRESHOLD,
    HybridUltrapeer,
)
from repro.obs.metrics import MetricsRegistry
from repro.pier.catalog import Catalog
from repro.piersearch.publisher import Publisher
from repro.piersearch.search import SearchEngine
from repro.sim.engine import Simulator
from repro.workload.library import SharedFile

from oracle import steady_hops


def build(**extra):
    """A hybrid ultrapeer on a 16-node ring, and ``ask(terms, depths,
    stop_ttl)``: one leaf query raced to the end on its own engine
    (``ask.engine``)."""
    network = steady_hops(DhtNetwork(rng=41), hop=1.0)
    nodes = network.populate(16)
    catalog = Catalog(network)
    hybrid = HybridUltrapeer(
        ultrapeer_id=1,
        dht_node_id=nodes[0].node_id,
        publisher=Publisher(network, catalog),
        search_engine=SearchEngine(network, catalog),
        gnutella_timeout=30.0,
        **extra,
    )
    sim = Simulator()
    engine = HybridQueryEngine(sim, network, rng=41)

    def ask(terms, depths=(), stop_ttl=3):
        race = hybrid.handle_leaf_query_simulated(engine, list(terms), list(depths), stop_ttl)
        sim.run()
        assert race.done
        return race.outcome

    ask.engine = engine
    return hybrid, ask


@pytest.fixture()
def hybrid():
    return build()[0]


@pytest.fixture()
def leaf():
    return build()


def shared(name, node=7):
    return SharedFile(filename=name, filesize=100, node_id=node)


class TestQrsPublishing:
    def test_small_result_set_published(self, hybrid):
        published = hybrid.observe_query_results([shared("rare song one.mp3")])
        assert published == 1
        assert hybrid.files_published == 1

    def test_large_result_set_ignored(self, hybrid):
        results = [
            shared(f"popular track {i}.mp3", node=i) for i in range(QRS_RESULT_SIZE_THRESHOLD)
        ]
        assert hybrid.observe_query_results(results) == 0

    def test_empty_result_set_ignored(self, hybrid):
        assert hybrid.observe_query_results([]) == 0

    def test_duplicate_files_published_once(self, hybrid):
        file = shared("rare song.mp3")
        hybrid.observe_query_results([file])
        hybrid.observe_query_results([file])
        assert hybrid.files_published == 1

    def test_publish_bytes_accumulate(self, hybrid):
        hybrid.observe_query_results([shared("rare montia klorena.mp3")])
        assert hybrid.publish_bytes > 0

    @pytest.mark.parametrize("size, published", [(1, 1), (19, 19), (20, 0), (21, 0)])
    def test_a_set_below_the_threshold_is_published_whole(self, hybrid, size, published):
        """QRS with threshold 20: a set of 1-19 results is rare and every
        file in it is published; a set of 20 or more is not."""
        results = [shared(f"track {i} of {size}.mp3", node=i) for i in range(size)]
        assert hybrid.observe_query_results(results) == published
        assert hybrid.files_published == published

    def test_the_deployment_threshold_is_twenty_results(self):
        """Section 7's QRS rule: a result set of fewer than 20 is rare."""
        first = build()[0]
        hybrid = HybridUltrapeer(
            ultrapeer_id=2,
            dht_node_id=first.dht_node_id,
            publisher=first.publisher,
            search_engine=first.search_engine,
        )
        assert QRS_RESULT_SIZE_THRESHOLD == 20
        popular = [shared(f"track {i}.mp3", node=i) for i in range(20)]
        assert hybrid.observe_query_results(popular) == 0
        assert hybrid.observe_query_results(popular[:19]) == 19

    def test_a_file_seen_in_a_large_set_is_published_from_a_small_one(self, hybrid):
        """A file's smallest result set decides: seen first among popular
        answers it stays unpublished until a small set carries it."""
        rare = shared("rare montia klorena.mp3")
        popular = [
            shared(f"popular track {i}.mp3", node=i)
            for i in range(QRS_RESULT_SIZE_THRESHOLD - 1)
        ]
        assert hybrid.observe_query_results(popular + [rare]) == 0
        assert hybrid.observe_query_results([rare]) == 1
        assert hybrid.observe_query_results(popular + [rare]) == 0
        assert hybrid.files_published == 1

    def test_replicas_of_one_name_are_published_apiece(self, hybrid):
        """A result is a (filename, host, size) replica, so two hosts of
        one filename are two publishes."""
        results = [shared("rare song.mp3", node=1), shared("rare song.mp3", node=2)]
        assert hybrid.observe_query_results(results) == 2

    def test_ultrapeers_sharing_a_publisher_compile_one_plan(self):
        first = build()[0]
        second = HybridUltrapeer(
            ultrapeer_id=2,
            dht_node_id=first.dht_node_id,
            publisher=first.publisher,
            search_engine=first.search_engine,
        )
        file = shared("rare montia klorena.mp3")
        assert first.observe_query_results([file]) == 1
        assert second.observe_query_results([file]) == 1
        assert list(first.publisher.plans) == [file.result_key]

    def test_publish_metrics_match_the_receipts(self):
        metrics = MetricsRegistry()
        hybrid = build(metrics=metrics)[0]
        hybrid.observe_query_results([shared("rare montia klorena.mp3"), shared("rare b.mp3")])
        assert metrics.counter("ultrapeer.qrs_published").value == 2
        assert metrics.counter("ultrapeer.qrs_publish_bytes").value == hybrid.publish_bytes


class TestHybridQueryPath:
    def test_gnutella_success_skips_pier(self, leaf):
        hybrid, ask = leaf
        outcome = ask(["whatever"], [1.0] * 12)
        assert not outcome.used_pier
        assert outcome.total_results == 12
        assert outcome.first_result_latency == 7.0

    def test_zero_results_triggers_pier(self, leaf):
        hybrid, ask = leaf
        hybrid.observe_query_results([shared("rare montia klorena.mp3")])
        outcome = ask(["montia"])
        assert outcome.used_pier
        assert outcome.pier_results == 1
        assert outcome.pier_latency > hybrid.gnutella_timeout
        assert outcome.first_result_latency == outcome.pier_latency

    def test_slow_gnutella_triggers_pier_but_keeps_results(self, leaf):
        hybrid, ask = leaf
        outcome = ask(["whatever"], [3.0, 3.0])
        assert outcome.used_pier
        assert outcome.gnutella_results == 2
        assert outcome.gnutella_latency == 48.0
        assert outcome.total_results >= 2

    def test_first_result_latency_picks_faster_source(self, leaf):
        hybrid, ask = leaf
        hybrid.observe_query_results([shared("rare montia klorena.mp3")])
        outcome = ask(["montia"], [3.0])
        assert outcome.used_pier
        assert outcome.pier_results == 1
        assert outcome.first_result_latency == outcome.pier_latency < 48.0

    def test_unanswerable_query_stays_empty(self, leaf):
        hybrid, ask = leaf
        outcome = ask(["nothinghere"])
        assert outcome.used_pier
        assert outcome.total_results == 0
        assert outcome.first_result_latency == float("inf")

    def test_stop_word_query_cannot_requery(self, leaf):
        hybrid, ask = leaf
        outcome = ask(["the"])
        assert outcome.used_pier
        assert outcome.pier_results == 0
        assert outcome.pier_bytes == 0

    def test_outcomes_recorded(self, leaf):
        hybrid, ask = leaf
        outcomes = [ask(["a1"], [1.0] * 3), ask(["b2"])]
        assert [race.outcome for race in ask.engine.races] == outcomes


class TestResultCache:
    @pytest.fixture()
    def cached(self):
        from repro.cache.results import QueryResultCache

        return build(result_cache=QueryResultCache(budget_bytes=64 * 1024))

    def test_repeat_query_served_from_cache(self, cached):
        hybrid, ask = cached
        hybrid.observe_query_results([shared("rare montia klorena.mp3")])
        first = ask(["montia"])
        second = ask(["montia"])
        assert not first.cache_hit and second.cache_hit
        # zero recall loss: the cached answer matches the executed one
        assert second.pier_results == first.pier_results
        # the hit spends no wire bytes and records what it saved
        assert second.pier_bytes == 0
        assert second.saved_bytes == first.pier_bytes > 0

    def test_cache_hit_is_faster_than_execution(self, cached):
        hybrid, ask = cached
        hybrid.observe_query_results([shared("rare montia klorena.mp3")])
        first = ask(["montia"])
        second = ask(["montia"])
        expected = hybrid.gnutella_timeout + DEFAULT_CACHE_LATENCY
        assert second.pier_latency == pytest.approx(expected)
        assert second.pier_latency < first.pier_latency

    def test_term_order_shares_cache_entry(self, cached):
        hybrid, ask = cached
        hybrid.observe_query_results([shared("rare montia klorena.mp3")])
        ask(["montia", "klorena"])
        reordered = ask(["klorena", "montia"])
        assert reordered.cache_hit

    def test_gnutella_success_bypasses_cache(self, cached):
        hybrid, ask = cached
        ask(["montia"], [1.0] * 4)
        assert hybrid.result_cache.stats.lookups == 0

    def test_stop_word_query_not_cached(self, cached):
        hybrid, ask = cached
        ask(["the"])
        assert len(hybrid.result_cache) == 0

"""Tests for the PIERSearch Search Engine."""

import pytest

from repro.common.errors import PlanError
from repro.dht.network import DhtNetwork
from repro.pier.catalog import Catalog
from repro.pier.query import JoinStrategy
from repro.piersearch.publisher import Publisher
from repro.piersearch.search import SearchEngine

CORPUS = [
    ("britney spears - toxic.mp3", "1.0.0.1"),
    ("britney spears - lucky.mp3", "1.0.0.2"),
    ("obscure band - toxic waste.mp3", "1.0.0.3"),
]


@pytest.fixture(scope="module")
def search_env():
    network = DhtNetwork(rng=31)
    network.populate(40)
    catalog = Catalog(network)
    publisher = Publisher(network, catalog)
    cache_publisher = Publisher(network, catalog, inverted_cache=True)
    for filename, ip in CORPUS:
        publisher.publish_file(filename, 1000, ip, 6346)
        cache_publisher.publish_file(filename, 1000, ip, 6346)
    return network, catalog


class TestSearch:
    def test_single_term(self, search_env):
        network, catalog = search_env
        engine = SearchEngine(network, catalog)
        result = engine.search(["britney"])
        assert sorted(result.filenames) == [
            "britney spears - lucky.mp3",
            "britney spears - toxic.mp3",
        ]

    def test_conjunction(self, search_env):
        network, catalog = search_env
        engine = SearchEngine(network, catalog)
        result = engine.search(["britney", "toxic"])
        assert result.filenames == ["britney spears - toxic.mp3"]

    def test_query_normalised_like_publisher(self, search_env):
        network, catalog = search_env
        engine = SearchEngine(network, catalog)
        # Mixed case and a stop word; still matches.
        result = engine.search(["BRITNEY", "the"])
        assert len(result) == 2

    def test_all_stop_words_rejected(self, search_env):
        network, catalog = search_env
        engine = SearchEngine(network, catalog)
        with pytest.raises(PlanError):
            engine.search(["the", "of"])

    def test_no_results(self, search_env):
        network, catalog = search_env
        engine = SearchEngine(network, catalog)
        assert len(engine.search(["nonexistentterm"])) == 0

    def test_result_len_and_stats_consistent(self, search_env):
        network, catalog = search_env
        engine = SearchEngine(network, catalog)
        result = engine.search(["toxic"])
        assert result.stats.results == len(result)

    def test_inverted_cache_engine_same_answers(self, search_env):
        network, catalog = search_env
        plain = SearchEngine(network, catalog)
        cached = SearchEngine(network, catalog, strategy=JoinStrategy.INVERTED_CACHE)
        for terms in (["toxic"], ["britney", "toxic"], ["obscure"]):
            a = sorted(plain.search(terms).filenames)
            b = sorted(cached.search(terms).filenames)
            assert a == b

    def test_strategy_override(self, search_env):
        network, catalog = search_env
        engine = SearchEngine(network, catalog, strategy=JoinStrategy.INVERTED_CACHE)
        result = engine.search(["toxic"])
        assert result.stats.strategy is JoinStrategy.INVERTED_CACHE

    def test_explicit_query_node(self, search_env):
        network, catalog = search_env
        engine = SearchEngine(network, catalog)
        node = network.random_node_id()
        result = engine.search(["toxic"], query_node=node)
        assert len(result) == 2

    def test_memory_budget_bounds_the_blocking_search(self, search_env):
        """The budget reaches the engine's own executor, not only the
        optimizer's pricing: under a tight one the join site evicts and
        re-reads its own stored rows, writing no temp tuple, and the
        answer and the wire bytes stay the unbudgeted ones."""
        network, catalog = search_env
        node = network.random_node_id()
        stored = sorted(network.stored_items())
        free, tight = (
            SearchEngine(
                network, catalog, strategy=JoinStrategy.DISTRIBUTED_JOIN, memory_budget=budget
            ).search(["britney", "toxic"], query_node=node)
            for budget in (None, 1)
        )
        assert sorted(tight.filenames) == sorted(free.filenames) != []
        assert tight.stats.bytes == free.stats.bytes
        assert free.stats.spill is None
        assert tight.stats.spill.partition_evictions > 0
        assert tight.stats.spill.spill_reads > 0
        assert sorted(network.stored_items()) == stored

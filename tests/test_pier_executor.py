"""Integration tests for the planner and the dataflow executor's join and
InvertedCache accounting."""

import pytest

from repro.common.errors import PlanError
from repro.dht.network import DhtNetwork
from repro.pier.catalog import Catalog
from repro.pier.dataflow import DataflowExecutor
from repro.pier.planner import KeywordPlanner
from repro.pier.query import JoinStrategy
from repro.piersearch.publisher import Publisher

FILES = [
    ("britney spears - toxic.mp3", 4_000_000, "1.0.0.1"),
    ("britney spears - lucky.mp3", 3_000_000, "1.0.0.2"),
    ("obscure band - toxic waste.mp3", 900_000, "1.0.0.3"),
    ("another obscure demo.mp3", 800_000, "1.0.0.4"),
    ("britney spears - toxic.mp3", 4_000_000, "1.0.0.5"),  # replica
]


@pytest.fixture(scope="module")
def engine_env():
    network = DhtNetwork(rng=13)
    network.populate(48)
    catalog = Catalog(network)
    publisher = Publisher(network, catalog)
    cache_publisher = Publisher.__new__(Publisher)  # reuse same catalog tables
    cache_publisher.__init__(network, catalog, inverted_cache=True)
    for filename, size, ip in FILES:
        publisher.publish_file(filename, size, ip, 6346)
        cache_publisher.publish_file(filename, size, ip, 6346)
    planner = KeywordPlanner(catalog)
    executor = DataflowExecutor(network, catalog)
    return network, catalog, planner, executor


class TestPlanner:
    def test_orders_smaller_posting_list_first(self, engine_env):
        network, catalog, planner, _ = engine_env
        # 'obscure' appears in 2 files, 'britney' in 3.
        plan = planner.plan(["britney", "obscure"], network.random_node_id())
        assert plan.keywords[0] == "obscure"

    def test_given_order_preserved_when_disabled(self, engine_env):
        network, _, planner, _ = engine_env
        plan = planner.plan(
            ["britney", "obscure"], network.random_node_id(), order_by_size=False
        )
        assert plan.keywords == ("britney", "obscure")

    def test_deduplicates_keywords(self, engine_env):
        network, _, planner, _ = engine_env
        plan = planner.plan(["toxic", "toxic"], network.random_node_id())
        assert plan.keywords == ("toxic",)

    def test_empty_query_rejected(self, engine_env):
        network, _, planner, _ = engine_env
        with pytest.raises(PlanError):
            planner.plan([], network.random_node_id())

    def test_inverted_cache_plan_single_site(self, engine_env):
        network, _, planner, _ = engine_env
        plan = planner.plan(
            ["britney", "toxic"],
            network.random_node_id(),
            strategy=JoinStrategy.INVERTED_CACHE,
        )
        assert len({stage.site for stage in plan.stages}) == 1


class TestDistributedJoin:
    def run_query(self, engine_env, terms, **kwargs):
        network, _, planner, executor = engine_env
        plan = planner.plan(
            terms,
            network.random_node_id(),
            strategy=JoinStrategy.DISTRIBUTED_JOIN,
            **kwargs,
        )
        return executor.execute(plan)

    def test_single_term(self, engine_env):
        rows, stats = self.run_query(engine_env, ["toxic"])
        names = {row["filename"] for row in rows}
        assert names == {
            "britney spears - toxic.mp3",
            "obscure band - toxic waste.mp3",
        }
        # Both replicas of the popular file plus the rare one: 3 Items.
        assert len(rows) == 3

    def test_two_term_conjunction(self, engine_env):
        rows, _ = self.run_query(engine_env, ["britney", "toxic"])
        assert {row["filename"] for row in rows} == {"britney spears - toxic.mp3"}

    def test_three_term_conjunction(self, engine_env):
        rows, _ = self.run_query(engine_env, ["obscure", "toxic", "waste"])
        assert {row["filename"] for row in rows} == {"obscure band - toxic waste.mp3"}

    def test_no_match_returns_empty(self, engine_env):
        rows, stats = self.run_query(engine_env, ["britney", "waste"])
        assert rows == []

    def test_posting_entries_shipped_counted(self, engine_env):
        _, stats = self.run_query(engine_env, ["britney", "toxic"])
        assert stats.posting_entries_shipped > 0

    def test_single_term_ships_nothing(self, engine_env):
        _, stats = self.run_query(engine_env, ["waste"])
        assert stats.posting_entries_shipped == 0

    def test_stats_accumulate_bytes_and_messages(self, engine_env):
        _, stats = self.run_query(engine_env, ["britney", "toxic"])
        assert stats.messages > 0
        assert stats.bytes > 0
        assert stats.critical_path_hops >= 1

    def test_smaller_first_ships_no_more_than_naive(self, engine_env):
        _, ordered = self.run_query(engine_env, ["britney", "obscure"])
        _, naive = self.run_query(
            engine_env, ["britney", "obscure"], order_by_size=False
        )
        assert ordered.posting_entries_shipped <= naive.posting_entries_shipped


class TestInvertedCache:
    def run_query(self, engine_env, terms):
        network, _, planner, executor = engine_env
        plan = planner.plan(
            terms, network.random_node_id(), strategy=JoinStrategy.INVERTED_CACHE
        )
        return executor.execute(plan)

    def test_same_answers_as_distributed_join(self, engine_env):
        network, catalog, planner, executor = engine_env
        for terms in (["toxic"], ["britney", "toxic"], ["obscure", "demo"]):
            plan = planner.plan(
                terms, network.random_node_id(), strategy=JoinStrategy.DISTRIBUTED_JOIN
            )
            join_rows, _ = executor.execute(plan)
            cache_rows, _ = self.run_query(engine_env, terms)
            assert {r["fileID"] for r in join_rows} == {
                r["fileID"] for r in cache_rows
            }

    def test_ships_no_posting_entries(self, engine_env):
        _, stats = self.run_query(engine_env, ["britney", "toxic"])
        assert stats.posting_entries_shipped == 0

    def test_cheaper_than_distributed_join_for_multiterm(self, engine_env):
        network, _, planner, executor = engine_env
        plan = planner.plan(
            ["britney", "spears"],
            network.random_node_id(),
            strategy=JoinStrategy.DISTRIBUTED_JOIN,
        )
        _, join_stats = executor.execute(plan, fetch_items=False)
        cache_plan = planner.plan(
            ["britney", "spears"],
            network.random_node_id(),
            strategy=JoinStrategy.INVERTED_CACHE,
        )
        _, cache_stats = executor.execute(cache_plan, fetch_items=False)
        assert cache_stats.bytes < join_stats.bytes

"""Tests for the cost-based join optimizer and its two join rewrites.

Covers the byte-cost model (golden-file pinned), the Bloom join's
false-positive invariant (FPs may only add bytes, never answers), the
byte-accounting invariant (per-query stats equal the meter's charges for
every strategy at both batchings), and the optimizer wired through the
search engine and the hybrid engine's race path.
"""

import json
import math
from dataclasses import replace
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from repro.dht.network import DhtNetwork
from repro.hybrid.engine import HybridQueryEngine, RaceConfig
from repro.hybrid.ultrapeer import HybridUltrapeer
from repro.pier.catalog import Catalog
from repro.pier import dataflow
from repro.pier.dataflow import DataflowExecutor
from repro.obs.metrics import MetricsRegistry
from repro.pier.optimizer import (
    JOIN_SELECTIVITY,
    CostBasedOptimizer,
    CostEstimate,
    inverted_cache_covers,
)
from repro.pier.planner import KeywordPlanner
from repro.pier.query import BLOOM_FP_RATE, JoinStrategy
from repro.piersearch.publisher import Publisher
from repro.piersearch.search import SearchEngine
from repro.sim.engine import Simulator

from oracle import oracle_items

GOLDEN = Path(__file__).parent / "golden" / "optimizer_choices.json"


def build_world(
    seed: int = 7,
    nodes: int = 24,
    popular: int = 120,
    rare: int = 8,
    overlap: int = 3,
    with_cache: bool = False,
):
    """A corpus with a controlled rare/popular keyword pair.

    ``popular`` files contain "popular"; ``rare`` files contain "rarex";
    ``overlap`` of them contain both (the join answer).
    """
    network = DhtNetwork(rng=seed)
    network.populate(nodes)
    catalog = Catalog(network)
    publisher = Publisher(network, catalog)
    publishers = [publisher]
    if with_cache:
        publishers.append(Publisher(network, catalog, inverted_cache=True))
    for index in range(popular):
        both = " rarex" if index < overlap else ""
        for pub in publishers:
            pub.publish_file(
                f"popular{both} song{index:03d}.mp3",
                1000 + index,
                f"10.0.{index // 250}.{index % 250}",
                6346,
            )
    for index in range(rare - overlap):
        for pub in publishers:
            pub.publish_file(
                f"rarex only{index:02d}.mp3", 5000 + index, f"10.9.0.{index}", 6346
            )
    return network, catalog


def result_key(rows):
    return sorted(
        (row.get("fileID"), row.get("ipAddress"), row.get("filename"))
        for row in rows
    )


class TestCostModel:
    def test_single_term_always_distributed_join(self):
        network, catalog = build_world(popular=5, rare=2, overlap=1)
        optimizer = CostBasedOptimizer(catalog)
        priced = optimizer.estimates({"alpha": 50})
        assert set(priced) == {JoinStrategy.DISTRIBUTED_JOIN}
        assert optimizer.pick({"alpha": 50}).strategy is JoinStrategy.DISTRIBUTED_JOIN

    def test_all_join_strategies_priced_for_multi_term(self):
        network, catalog = build_world(popular=5, rare=2, overlap=1)
        optimizer = CostBasedOptimizer(catalog)
        priced = optimizer.estimates({"a": 10, "b": 20})
        assert JoinStrategy.DISTRIBUTED_JOIN in priced
        assert JoinStrategy.SEMI_JOIN in priced
        assert JoinStrategy.BLOOM_JOIN in priced
        for estimate in priced.values():
            assert isinstance(estimate, CostEstimate)
            assert estimate.bytes > 0

    def test_digests_always_undercut_framed_tuples(self):
        """The semi-join rewrite prices below the distributed join for
        every multi-term query — a packed key costs ~26x less than the
        same key as a framed tuple over identical legs."""
        network, catalog = build_world(popular=5, rare=2, overlap=1)
        optimizer = CostBasedOptimizer(catalog)
        for sizes in ({"a": 1, "b": 1}, {"a": 40, "b": 900}, {"a": 7, "b": 8, "c": 9}):
            priced = optimizer.estimates(sizes)
            assert (
                priced[JoinStrategy.SEMI_JOIN].bytes
                < priced[JoinStrategy.DISTRIBUTED_JOIN].bytes
            )

    def test_inverted_cache_requires_actual_coverage(self):
        """Registered-but-empty InvertedCache (every Inverted-only world:
        the publisher registers all schemas up front) must never be
        chosen — it would silently answer with the empty set."""
        network, catalog = build_world(popular=200, rare=150, overlap=50)
        assert "InvertedCache" in catalog  # registered, but empty
        optimizer = CostBasedOptimizer(catalog)
        priced = optimizer.estimates({"popular": 200, "rarex": 150})
        assert JoinStrategy.INVERTED_CACHE not in priced

    def test_inverted_cache_priced_when_published(self):
        network, catalog = build_world(
            popular=30, rare=8, overlap=3, with_cache=True
        )
        optimizer = CostBasedOptimizer(catalog)
        sizes = {
            "popular": catalog.posting_size("Inverted", "popular"),
            "rarex": catalog.posting_size("Inverted", "rarex"),
        }
        priced = optimizer.estimates(sizes)
        assert JoinStrategy.INVERTED_CACHE in priced

    @pytest.mark.parametrize("nodes", [1, 2, 16, 17, 32])
    def test_hop_estimate_is_log_of_the_live_ring(self, nodes):
        network = DhtNetwork(rng=0)
        network.populate(nodes)
        optimizer = CostBasedOptimizer(Catalog(network))
        assert optimizer.hop_estimate() == max(1, math.ceil(math.log2(nodes)))
        network.remove_node(network.random_node_id())
        assert optimizer.hop_estimate() == max(1, math.ceil(math.log2(max(1, nodes - 1))))

    @pytest.mark.parametrize(
        "strategy",
        [JoinStrategy.DISTRIBUTED_JOIN, JoinStrategy.SEMI_JOIN, JoinStrategy.BLOOM_JOIN],
        ids=lambda s: s.value,
    )
    def test_observe_actual_records_both_sides_of_the_error(self, strategy):
        """Each observed query adds its estimate's bytes and its metered
        bytes under the strategy's label, so the registry can compare
        each prediction with what the query paid."""
        network, catalog = build_world(popular=5, rare=2, overlap=1)
        metrics = MetricsRegistry()
        optimizer = CostBasedOptimizer(catalog, metrics=metrics)
        estimate = optimizer.estimates({"rarex": 10, "popular": 500})[strategy]
        for actual in (1_000, 3_000):
            optimizer.observe_actual(estimate, actual)
        labels = {"strategy": strategy.name}
        value = lambda name: metrics.counter(f"optimizer.{name}", labels=labels).value
        assert value("predicted_bytes") == 2 * estimate.bytes
        assert value("actual_bytes") == 4_000
        errors = metrics.histogram("optimizer.bytes_error_ratio", labels=labels)
        assert errors.count == 2


class TestBudgetPricesNothing:
    """A join memory budget is accounting at the join site: it moves no
    wire byte, so it moves no price and no pick."""

    def test_budgeted_engine_plans_the_semi_join_for_rare_x_popular(self):
        """The chain strategies build the popular list at the join site,
        and a budget of 32 rows evicts most of it — yet the semi-join
        still ships the fewest bytes, so it is what runs."""
        network, catalog = build_world(popular=500, rare=10, overlap=3)
        engine = SearchEngine(network, catalog, optimizer=True, memory_budget=32)
        plan = engine.prepare(["rarex", "popular"])
        assert {k: catalog.posting_size("Inverted", k) for k in plan.keywords} == {
            "rarex": 10,
            "popular": 500,
        }
        assert plan.strategy is JoinStrategy.SEMI_JOIN
        assert plan.estimate == SearchEngine(network, catalog, optimizer=True).prepare(
            ["rarex", "popular"]
        ).estimate
        items, stats = engine.executor.execute(plan)
        assert stats.spill is not None and stats.spill.partition_evictions > 0
        assert result_key(items) == result_key(
            oracle_items(catalog, ["rarex", "popular"])
        )


class TestGoldenChoices:
    """Cost-model changes must be reviewed, not silent: the optimizer's
    choices (and byte estimates) on a canonical stats table are pinned in
    ``tests/golden/optimizer_choices.json``."""

    def test_golden_file_matches_cost_model(self):
        payload = json.loads(GOLDEN.read_text())
        config = payload["config"]
        # The pinned constants are the optimizer's own, and a 16-node ring
        # is what prices the pinned four hops per routed leg.
        assert config["bloom_fp_rate"] == BLOOM_FP_RATE
        assert config["join_selectivity"] == JOIN_SELECTIVITY
        network = DhtNetwork(rng=0)
        network.populate(16)
        optimizer = CostBasedOptimizer(Catalog(network))
        assert optimizer.hop_estimate() == config["hop_estimate"] == 4
        for case in payload["cases"]:
            sizes = case["sizes"]
            ic = case["inverted_cache"]
            choice = optimizer.pick(sizes, inverted_cache=ic).strategy
            assert choice.value == case["choice"], (
                f"strategy choice drifted for {sizes} (ic={ic}): "
                f"golden {case['choice']}, got {choice.value} — if the "
                "cost model deliberately changed, regenerate the golden file"
            )
            priced = optimizer.estimates(sizes, inverted_cache=ic)
            assert {
                s.value: e.bytes for s, e in priced.items()
            } == case["estimated_bytes"]

    def test_golden_table_exercises_every_strategy(self):
        payload = json.loads(GOLDEN.read_text())
        chosen = {case["choice"] for case in payload["cases"]}
        assert chosen == {s.value for s in JoinStrategy}


class TestBloomJoinProperties:
    """Bloom false positives may only add bytes — never answers."""

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        fp_rate=st.floats(min_value=0.005, max_value=0.9),
        overlap=st.integers(min_value=0, max_value=6),
    )
    def test_answers_invariant_under_fp_rate(self, seed, fp_rate, overlap):
        network, catalog = build_world(
            seed=seed, nodes=16, popular=40, rare=max(overlap, 6), overlap=overlap
        )
        executor = DataflowExecutor(network, catalog, rng=seed)
        plan = KeywordPlanner(catalog).plan(
            ["rarex", "popular"],
            network.random_node_id(),
            strategy=JoinStrategy.BLOOM_JOIN,
        )
        with patch.object(dataflow, "BLOOM_FP_RATE", fp_rate):
            rows_bloom, stats = executor.execute(plan)
        assert result_key(rows_bloom) == result_key(
            oracle_items(catalog, ["rarex", "popular"])
        )
        # Every answer survived each digest leg, so shipped entries are
        # bounded below by the answer count whenever anything shipped.
        assert stats.posting_entries_shipped >= len({r["fileID"] for r in rows_bloom})

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        fp_rate=st.floats(min_value=0.005, max_value=0.9),
    )
    def test_batched_bloom_matches_unbatched_for_any_fp(self, seed, fp_rate):
        network, catalog = build_world(seed=seed, nodes=16, popular=30, rare=6, overlap=2)
        unbatched = DataflowExecutor(network, catalog, rng=seed)
        batched = DataflowExecutor(network, catalog, rng=seed)
        planner = KeywordPlanner(catalog)
        plan = planner.plan(
            ["rarex", "popular"], network.random_node_id(),
            strategy=JoinStrategy.BLOOM_JOIN,
        )
        plan.batch_size = None
        with patch.object(dataflow, "BLOOM_FP_RATE", fp_rate):
            rows_whole, stats_whole = unbatched.execute(plan)
            rows_split, stats_split = batched.execute(replace(plan, batch_size=3))
        assert result_key(rows_split) == result_key(rows_whole)
        assert stats_split.filter_bytes == stats_whole.filter_bytes
        assert stats_split.posting_entries_shipped == stats_whole.posting_entries_shipped
        extra = stats_split.bytes - stats_whole.bytes
        assert extra >= 0 and extra % network.cost_model.header_bytes == 0

    def test_false_positives_add_candidate_bytes_not_answers(self):
        """A sloppier filter lets more candidates through (more digest
        entries on the wire) while the verified answer set is unchanged."""
        network, catalog = build_world(seed=3, popular=400, rare=12, overlap=4)
        executor = DataflowExecutor(network, catalog, rng=3)
        planner = KeywordPlanner(catalog)
        query_node = network.random_node_id()

        def run(fp_rate):
            plan = planner.plan(
                ["rarex", "popular"], query_node, strategy=JoinStrategy.BLOOM_JOIN
            )
            with patch.object(dataflow, "BLOOM_FP_RATE", fp_rate):
                return executor.execute(plan)

        rows_tight, stats_tight = run(0.001)
        rows_loose, stats_loose = run(0.5)
        assert result_key(rows_tight) == result_key(rows_loose)
        assert (
            stats_loose.posting_entries_shipped
            >= stats_tight.posting_entries_shipped
        )
        # The loose filter itself is smaller; the candidates are what grow.
        assert stats_loose.filter_bytes <= stats_tight.filter_bytes


class TestByteAccountingInvariant:
    """Per-query ``QueryStats`` bandwidth must equal the sum of charged
    ``DhtNetwork`` transfers, for every strategy at both batchings —
    the regression this catches is double-charging (or not charging)
    a new message category."""

    STRATEGIES = tuple(JoinStrategy)

    @pytest.mark.parametrize("strategy", STRATEGIES, ids=lambda s: s.value)
    @pytest.mark.parametrize("runtime", ["stage", "batched"])
    def test_stats_equal_meter_charges(self, strategy, runtime):
        network, catalog = build_world(
            seed=11, popular=60, rare=9, overlap=4, with_cache=True
        )
        executor = DataflowExecutor(network, catalog, rng=2)
        plan = KeywordPlanner(catalog).plan(
            ["rarex", "popular"], network.random_node_id(), strategy=strategy
        )
        plan.batch_size = {"stage": None, "batched": 3}[runtime]
        before = network.meter.snapshot()
        rows, stats = executor.execute(plan)
        after = network.meter.snapshot()
        assert rows  # the invariant should cover a real data path
        assert after.messages - before.messages == stats.messages
        assert after.bytes - before.bytes == stats.bytes
        # Every pier category the strategy uses is in the meter breakdown.
        pier_bytes = sum(
            cost.bytes
            for category, cost in network.meter.by_category.items()
            if category.startswith("pier.")
        )
        assert pier_bytes >= stats.bytes


class TestOptimizedSearchEngine:
    def test_search_engine_prepares_cheapest_strategy(self):
        network, catalog = build_world(seed=5, popular=300, rare=60, overlap=10)
        engine = SearchEngine(network, catalog, optimizer=True)
        plan = engine.prepare(["rarex", "popular"])
        sizes = {
            keyword: catalog.posting_size("Inverted", keyword)
            for keyword in plan.keywords
        }
        assert plan.strategy is engine.optimizer.pick(sizes).strategy
        assert plan.strategy in (JoinStrategy.SEMI_JOIN, JoinStrategy.BLOOM_JOIN)

    def test_optimized_results_match_distributed_join(self):
        network, catalog = build_world(seed=5, popular=80, rare=12, overlap=5)
        optimized = SearchEngine(network, catalog, optimizer=True)
        baseline = SearchEngine(network, catalog, strategy=JoinStrategy.DISTRIBUTED_JOIN)
        node = network.random_node_id()
        fast = optimized.search(["rarex", "popular"], query_node=node)
        slow = baseline.search(["rarex", "popular"], query_node=node)
        assert result_key(fast.items) == result_key(slow.items)
        assert fast.stats.bytes < slow.stats.bytes

    def test_explicit_strategy_still_honoured(self):
        network, catalog = build_world(seed=5, popular=40, rare=6, overlap=2)
        engine = SearchEngine(
            network, catalog, strategy=JoinStrategy.DISTRIBUTED_JOIN, optimizer=True
        )
        plan = engine.prepare(["rarex", "popular"])
        assert plan.strategy is JoinStrategy.DISTRIBUTED_JOIN


class TestEngineRacePath:
    @staticmethod
    def race_world(optimizer, config, metrics=None):
        """A hybrid ultrapeer over a 32-node DHT holding 40 "klorena"
        files, 6 of them also "montia"; returns ``(dht, search engine,
        hybrid, engine, simulator)``."""
        dht = DhtNetwork(rng=41)
        nodes = dht.populate(32)
        catalog = Catalog(dht)
        publisher = Publisher(dht, catalog)
        search = SearchEngine(dht, catalog, optimizer=optimizer)
        sim = Simulator()
        engine = HybridQueryEngine(sim, dht, config=config, rng=5, metrics=metrics)
        hybrid = HybridUltrapeer(
            ultrapeer_id=1,
            dht_node_id=nodes[0].node_id,
            publisher=publisher,
            search_engine=search,
            gnutella_timeout=5.0,
        )
        for index in range(40):
            both = " montia" if index < 6 else ""
            publisher.publish_file(
                f"klorena{both} track{index:03d}.mp3", 100 + index,
                f"10.0.0.{index}", 6346,
            )
        return dht, search, hybrid, engine, sim

    def test_race_executes_optimizer_chosen_plan(self):
        """The hybrid engine's DHT re-query runs the cost-picked strategy
        through the shared exchange dataflow and still wins the race."""
        dht, search, hybrid, engine, sim = self.race_world(
            True, RaceConfig(retry_backoff=0.5)
        )
        plan = search.prepare(["montia", "klorena"], query_node=hybrid.dht_node_id)
        assert plan.strategy in (JoinStrategy.SEMI_JOIN, JoinStrategy.BLOOM_JOIN)
        race = hybrid.handle_leaf_query_simulated(
            engine, ["montia", "klorena"], [math.inf], stop_ttl=3
        )
        sim.run()
        assert race.done
        assert race.outcome.used_pier
        assert race.outcome.pier_results == 6
        assert race.outcome.pier_latency > 0.0

    def test_budgeted_race_evicts_at_the_site_and_writes_nothing(self):
        """``RaceConfig.memory_budget`` reaches the race path's dataflow:
        the distributed join's site evicts partitions of the list it
        stores and re-reads them, the race still answers in full, and no
        store holds anything it did not hold before the race."""
        metrics = MetricsRegistry()
        dht, _, hybrid, engine, sim = self.race_world(
            None, RaceConfig(retry_backoff=0.5, memory_budget=1), metrics
        )
        stored = sorted(dht.stored_items())
        race = hybrid.handle_leaf_query_simulated(
            engine, ["montia", "klorena"], [math.inf], stop_ttl=3
        )
        sim.run()
        assert race.done and race.outcome.used_pier
        assert race.outcome.pier_results == 6
        assert metrics.counter("operator.spill.partition_evictions").value > 0
        assert metrics.counter("operator.spill.reads").value > 0
        assert sorted(dht.stored_items()) == stored


def test_inverted_cache_needs_its_table_registered():
    """Without an InvertedCache table the strategy is never offered."""
    catalog = Catalog(DhtNetwork(rng=1))
    assert not inverted_cache_covers(catalog, {"rare": 0, "common": 40})

"""Integration tests for the Section 7 deployment simulation."""

from dataclasses import replace
from functools import partial

import pytest

from repro.hybrid import deployment
from repro.hybrid.deployment import DeploymentConfig, build_deployment, run_deployment
from repro.hybrid.ultrapeer import DEFAULT_GNUTELLA_TIMEOUT
from repro.obs.metrics import MetricsRegistry

from oracle import oracle_items
from test_hybrid_world import executed_strategies


@pytest.fixture(scope="module")
def report():
    return run_deployment(
        DeploymentConfig(
            num_ultrapeers=400,
            num_leaves=1600,
            num_hybrid=30,
            num_items=600,
            num_background_queries=250,
            num_test_queries=200,
            seed=7,
        )
    )


class TestDeploymentOutcomes:
    def test_publishing_happened(self, report):
        assert report.files_published > 0
        assert report.publish_bytes > 0

    def test_publish_cost_in_paper_range(self, report):
        assert 1.0 < report.publish_kb_per_file < 10.0

    def test_hybrid_reduces_no_result_queries(self, report):
        assert report.hybrid_no_result_fraction <= report.gnutella_no_result_fraction
        assert report.no_result_reduction > 0

    def test_reduction_bounded_by_potential(self, report):
        assert report.no_result_reduction <= report.potential_reduction + 1e-9

    def test_oracle_fraction_lowest(self, report):
        assert report.oracle_no_result_fraction <= report.hybrid_no_result_fraction

    def test_pier_latency_reasonable(self, report):
        # Paper: ~10-12 s first result from PIER.
        assert 2.0 < report.mean_pier_latency < 30.0

    def test_rare_query_latency_includes_timeout(self, report):
        assert report.mean_hybrid_latency_rare > DEFAULT_GNUTELLA_TIMEOUT

    def test_outcome_count_matches_test_queries(self, report):
        assert len(report.outcomes) == report.config.num_test_queries


class TestEventDrivenRace:
    """Every leaf query of the deployment is a virtual-time race on the
    hybrid query engine."""

    @pytest.fixture(scope="class")
    def small_config(self):
        return DeploymentConfig(
            num_ultrapeers=200,
            num_leaves=800,
            num_hybrid=15,
            num_items=300,
            num_background_queries=100,
            num_test_queries=80,
            seed=11,
        )

    @pytest.fixture(scope="class")
    def event_report(self, small_config):
        return run_deployment(small_config)

    def test_race_results_agree_with_oracle(self, small_config):
        """The engine decides *when* answers arrive, never *what* they
        are: each re-query returns what the published index holds."""
        built = build_deployment(small_config)
        report = built.run()
        catalog = built.world.catalog
        assert any(outcome.pier_results for outcome in report.outcomes)
        for outcome in report.outcomes:
            # The re-query fires exactly when the flood is empty-handed
            # at the timeout; late flood results still count.
            timed_out = (
                outcome.gnutella_results == 0
                or outcome.gnutella_latency > DEFAULT_GNUTELLA_TIMEOUT
            )
            assert outcome.used_pier == timed_out
            expected = len(oracle_items(catalog, outcome.terms)) if timed_out else 0
            assert outcome.total_results == outcome.gnutella_results + expected

    def test_queries_overlap_in_virtual_time(self, event_report):
        # 1 s submit interval against a 30 s timeout: races must overlap.
        assert event_report.peak_inflight > 10

    def test_pier_latencies_exceed_timeout(self, event_report):
        answered = [
            outcome
            for outcome in event_report.outcomes
            if outcome.used_pier and outcome.pier_results > 0
        ]
        for outcome in answered:
            assert outcome.pier_latency > DEFAULT_GNUTELLA_TIMEOUT

    def test_churn_mid_run_keeps_deployment_whole(self, small_config):
        churned = run_deployment(
            replace(small_config, churn_interval=15.0, churn_steps=4)
        )
        assert len(churned.outcomes) == small_config.num_test_queries
        assert churned.peak_inflight > 1


def run_metered(config):
    """(report, {strategy name: plans executed}) of one deployment whose
    world carries a metrics registry. A build that no longer goes through
    ``deployment.build_world`` leaves the counters empty, so the callers'
    equality checks fail rather than pass unmetered."""
    metrics = MetricsRegistry()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            deployment, "build_world", partial(deployment.build_world, metrics=metrics)
        )
        report = run_deployment(config)
    return report, executed_strategies(metrics)


class TestInvertedCacheVariant:
    def test_cache_cheaper_queries_pricier_publish(self):
        """The deployment runs the paper's two plans by name: Figure 2's
        distributed join by default, Figure 3's InvertedCache scan when
        asked; never the engine's own default, the semi-join."""
        config = DeploymentConfig(
            num_ultrapeers=300,
            num_leaves=1200,
            num_hybrid=20,
            num_items=400,
            num_background_queries=150,
            num_test_queries=120,
            seed=8,
        )
        shj, shj_plans = run_metered(config)
        cache, cache_plans = run_metered(replace(config, inverted_cache=True))
        for report in (shj, cache):
            assert any(len(o.terms) > 1 and o.used_pier for o in report.outcomes)
        assert list(shj_plans) == ["DISTRIBUTED_JOIN"]
        assert list(cache_plans) == ["INVERTED_CACHE"]
        assert cache.publish_kb_per_file > shj.publish_kb_per_file
        if cache.pier_query_bytes and shj.pier_query_bytes:
            assert cache.mean_pier_query_kb < shj.mean_pier_query_kb

    def test_deterministic_given_seed(self):
        config = DeploymentConfig(
            num_ultrapeers=200,
            num_leaves=800,
            num_hybrid=10,
            num_items=300,
            num_background_queries=80,
            num_test_queries=60,
            seed=9,
        )
        a = run_deployment(config)
        b = run_deployment(config)
        assert a.files_published == b.files_published
        assert a.gnutella_no_result_fraction == b.gnutella_no_result_fraction
        assert a.hybrid_no_result_fraction == b.hybrid_no_result_fraction


class TestCachedDeployment:
    """The repro.cache subsystem wired end-to-end through the deployment."""

    @pytest.fixture(scope="class")
    def config(self):
        return DeploymentConfig(
            num_ultrapeers=200,
            num_leaves=800,
            num_hybrid=20,
            num_items=400,
            num_background_queries=150,
            num_test_queries=150,
            seed=7,
        )

    @pytest.fixture(scope="class")
    def stock(self, config):
        return run_deployment(config)

    @pytest.fixture(scope="class")
    def cached(self, config):
        from dataclasses import replace

        return run_deployment(replace(config, cache_budget_bytes=256 * 1024))

    def test_cache_disabled_by_default(self, stock):
        assert stock.cache_hits == stock.cache_misses == 0
        assert stock.cache_hit_rate == 0.0

    def test_cache_produces_hits_and_savings(self, cached):
        assert cached.cache_hits > 0
        assert cached.cache_bytes_saved > 0
        assert 0.0 < cached.cache_hit_rate <= 1.0

    def test_cached_answers_lose_no_recall(self, stock, cached):
        # identical workload, identical answers: caching changes costs,
        # never result availability
        assert cached.hybrid_no_result_fraction == stock.hybrid_no_result_fraction
        assert cached.gnutella_no_result_fraction == stock.gnutella_no_result_fraction
        for a, b in zip(stock.outcomes, cached.outcomes):
            assert a.total_results == b.total_results

    def test_cache_reduces_pier_bandwidth(self, stock, cached):
        assert sum(cached.pier_query_bytes) < sum(stock.pier_query_bytes)

    def test_cache_hits_cut_latency(self, cached):
        hits = [o for o in cached.outcomes if o.cache_hit]
        executed = [o for o in cached.outcomes if o.used_pier and not o.cache_hit]
        if hits and executed:
            fastest_executed = min(o.pier_latency for o in executed)
            assert all(o.pier_latency <= fastest_executed for o in hits)

"""Unit tests for the streaming exchange dataflow runtime."""

import pytest

from repro.common.errors import DhtError
from repro.dht.network import DhtNetwork
from repro.pier.catalog import Catalog
from repro.pier.dataflow import DataflowConfig, DataflowExecutor, temp_ring_key
from repro.pier.operators import SpillSink, SymmetricHashJoin
from repro.pier.planner import KeywordPlanner
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.piersearch.publisher import Publisher
from repro.sim.engine import Simulator

from oracle import oracle_items, reference_match_counts

WORDS = ["nebula", "quasar", "aurora", "meteor"]


def build_world(num_files=30, seed=13, nodes=24):
    network = DhtNetwork(rng=seed)
    network.populate(nodes)
    catalog = Catalog(network)
    publisher = Publisher(network, catalog)
    import random

    rng = random.Random(seed + 1)
    for index in range(num_files):
        name = f"{rng.choice(WORDS)} {rng.choice(WORDS)} track{index:03d}.mp3"
        publisher.publish_file(name, 1000 + index, f"10.0.0.{index}", 6346)
    return network, catalog


def plan_for(network, catalog, terms, batch_size=None):
    plan = KeywordPlanner(catalog).plan(terms, network.random_node_id())
    plan.batch_size = batch_size
    return plan


def spill_ring_keys(query_id=1, partitions=8, stages=4):
    """Every ring key a budgeted query's spill sinks could use: one per
    (stage, side, partition) under the ``spill-{side}-p{pid}`` tag."""
    return {
        temp_ring_key(query_id, stage, f"spill-{side}-p{pid}")
        for stage in range(stages)
        for side in ("left", "right")
        for pid in range(partitions)
    }


def stored_spill_keys(network, query_id=1):
    """The spill ring keys some live node holds a value under, mapped to
    how many values the network holds there."""
    spill_keys = spill_ring_keys(query_id)
    stored = {}
    for node in network.nodes.values():
        for ring_key, values in node.store.items():
            if ring_key in spill_keys and values:
                stored[ring_key] = stored.get(ring_key, 0) + len(values)
    return stored


class TestPipelinedExecution:
    def test_batches_shipped_scale_with_batch_size(self):
        network, catalog = build_world()
        plan = plan_for(network, catalog, ["nebula", "quasar"])
        few = DataflowExecutor(
            network, catalog, config=DataflowConfig(batch_size=None), rng=3
        )
        many = DataflowExecutor(
            network, catalog, config=DataflowConfig(batch_size=1), rng=3
        )
        _, stats_few = few.execute(plan)
        _, stats_many = many.execute(plan)
        assert stats_many.pipeline.batches_shipped > stats_few.pipeline.batches_shipped
        assert stats_few.pipeline.batches_shipped >= 2  # rehash + answers

    def test_first_answer_strictly_before_completion_when_batched(self):
        network, catalog = build_world()
        plan = plan_for(network, catalog, ["nebula", "quasar"], batch_size=1)
        dataflow = DataflowExecutor(
            network, catalog, config=DataflowConfig(batch_size=1), rng=3
        )
        rows, stats = dataflow.execute(plan)
        assert len(rows) > 1
        pipeline = stats.pipeline
        assert pipeline.first_answer_time is not None
        assert pipeline.first_answer_time < pipeline.completion_time


class TestEarlyTermination:
    def test_stop_after_cancels_upstream_and_saves_bytes(self):
        network, catalog = build_world(num_files=60)
        plan = plan_for(network, catalog, ["nebula", "quasar"], batch_size=1)
        # Slow pacing keeps upstream batches queued when the first answer
        # lands, so cancellation has something to cancel.
        config = DataflowConfig(batch_size=1, send_interval=1.0)
        full = DataflowExecutor(network, catalog, config=config, rng=7)
        rows_full, stats_full = full.execute(plan)
        assert len(rows_full) > 1
        stopped = DataflowExecutor(network, catalog, config=config, rng=7)
        rows_stopped, stats_stopped = stopped.execute(plan, stop_after=1)
        pipeline = stats_stopped.pipeline
        assert pipeline.early_terminated
        assert pipeline.batches_cancelled > 0
        assert stats_stopped.bytes < stats_full.bytes
        assert len(rows_stopped) >= 1

    def test_stop_after_larger_than_results_drains_normally(self):
        network, catalog = build_world()
        plan = plan_for(network, catalog, ["nebula", "quasar"], batch_size=2)
        dataflow = DataflowExecutor(network, catalog, rng=7)
        rows, stats = dataflow.execute(plan, stop_after=10_000)
        assert not stats.pipeline.early_terminated
        assert stats.pipeline.batches_cancelled == 0
        assert rows


class TestMemoryBudgetSpill:
    def test_spill_preserves_results_and_counts(self):
        network, catalog = build_world(num_files=40)
        plan = plan_for(network, catalog, ["nebula", "quasar"], batch_size=4)
        unbounded = DataflowExecutor(network, catalog, rng=11)
        rows_ref, _ = unbounded.execute(plan)
        budgeted = DataflowExecutor(
            network,
            catalog,
            config=DataflowConfig(batch_size=4, memory_budget=3),
            rng=11,
        )
        rows, stats = budgeted.execute(plan)
        key = lambda rs: sorted((r["fileID"], r["ipAddress"]) for r in rs)
        assert key(rows) == key(rows_ref)
        assert stats.pipeline.spilled_tuples > 0
        assert stats.pipeline.spill_reads > 0

    def test_spill_state_surfaces_per_partition_and_is_released(self):
        network, catalog = build_world(num_files=40)
        plan = plan_for(network, catalog, ["nebula", "quasar"], batch_size=4)
        budgeted = DataflowExecutor(
            network,
            catalog,
            config=DataflowConfig(batch_size=4, memory_budget=3),
            rng=11,
        )
        seen_mid_run = set()
        query = budgeted.submit(plan)

        def snapshot():
            seen_mid_run.update(stored_spill_keys(network))
            if not query.done:
                budgeted.sim.schedule(0.5, snapshot)

        budgeted.sim.schedule(0.5, snapshot)
        budgeted.sim.run()
        assert query.done and query.error is None
        # The spill surface was really there mid-run, under the
        # per-partition temp-tuple tags...
        assert query.stats.pipeline.spilled_tuples > 0
        assert seen_mid_run
        # ...and completion released every one of those keys.
        assert stored_spill_keys(network) == {}

    @pytest.mark.parametrize(
        "terms", [["nebula", "quasar"], ["nebula", "quasar", "aurora"]]
    )
    def test_batching_changes_no_spill_stat_and_no_surfaced_tuple(self, terms):
        """The DHT-sink twin of the operator-level chunking property: the
        join sites see the same key order whatever the exchange batch
        size (zero jitter keeps arrivals in send order), so the spill
        statistics and the ``spill-{side}-p{pid}`` tuples in the sites'
        stores — order included — cannot depend on how the stream was
        cut into ``insert_keys`` calls."""
        network, catalog = build_world(num_files=60)
        runs = {}
        for batch_size in (1, 2, 16, None):
            plan = plan_for(network, catalog, terms, batch_size=batch_size)
            budgeted = DataflowExecutor(
                network,
                catalog,
                config=DataflowConfig(
                    batch_size=batch_size, memory_budget=3, hop_jitter=0.0
                ),
                rng=11,
            )

            def surface():
                # Surfaced values are the bare join keys (fileIDs).
                return [
                    (stage, side, pid, keys)
                    for stage, planned in enumerate(plan.stages)
                    for side in ("left", "right")
                    for pid in range(8)
                    if (
                        keys := network.get_local(
                            planned.site,
                            temp_ring_key(1, stage, f"spill-{side}-p{pid}"),
                        )
                    )
                ]

            query = budgeted.submit(plan)
            last_mid_query = []

            def snapshot():
                # The final sample before completion sees every join
                # drained: the answer's own hop outlasts the 0.05 s step.
                if not query.done:
                    last_mid_query[:] = surface()
                    budgeted.sim.schedule(0.05, snapshot)

            budgeted.sim.schedule(0.05, snapshot)
            budgeted.sim.run()
            assert query.done and query.error is None
            assert surface() == []  # released on completion
            runs[batch_size] = (query.stats.spill, last_mid_query)
        reference_spill, reference_surface = runs[None]
        assert reference_spill.spilled_tuples > 0 and reference_surface
        for batch_size, (spill, mid_query) in runs.items():
            assert spill == reference_spill, batch_size
            assert mid_query == reference_surface, batch_size

    def test_one_join_spill_event_per_eviction_and_per_routed_run(self, monkeypatch):
        """A traced budgeted query marks each eviction and each *run* of
        keys routed into spilled partitions with one ``join.spill`` event
        (not one per routed row), both in one shape, and the events' rows
        add up to the ``operator.spill.rows`` counter."""
        routed_runs = []
        route_counts = SpillSink.route_counts

        def counting(sink, side, routed):
            routed_runs.append(len(routed))
            return route_counts(sink, side, routed)

        monkeypatch.setattr(SpillSink, "route_counts", counting)
        network, catalog = build_world(num_files=60)
        plan = plan_for(network, catalog, ["nebula", "quasar"], batch_size=4)
        tracer, metrics = Tracer(), MetricsRegistry()
        budgeted = DataflowExecutor(
            network,
            catalog,
            config=DataflowConfig(batch_size=4, memory_budget=3, hop_jitter=0.0),
            rng=11,
            tracer=tracer,
            metrics=metrics,
        )
        tracer.bind_clock(lambda: budgeted.sim.now)
        _, stats = budgeted.execute(plan)
        events = [span.attrs for span in tracer.spans if span.name == "join.spill"]
        assert stats.spill.partition_evictions
        assert sum(routed_runs) > len(routed_runs)  # some run has many rows
        assert len(events) == stats.spill.partition_evictions + len(routed_runs)
        assert all(
            sorted(event) == ["partitions", "rows", "side", "site"]
            and event["partitions"] == sorted(set(event["partitions"]))
            for event in events
        )
        spilled = metrics.counter("operator.spill.rows").value
        assert sum(event["rows"] for event in events) == spilled
        assert spilled == stats.spill.spilled_tuples > len(events)

    def _run_budgeted_with_kill(self, kill, batch_size=2):
        """Submit a budgeted two-term query and run ``kill(network,
        plan)`` at t=4.1 — after the join stages have spilled (the spill
        trace for this seeded world starts just before t=4.0) but while
        build batches are still arriving."""
        network, catalog = build_world(num_files=40)
        plan = plan_for(network, catalog, ["nebula", "quasar"], batch_size=batch_size)
        metrics = MetricsRegistry()
        budgeted = DataflowExecutor(
            network,
            catalog,
            config=DataflowConfig(batch_size=batch_size, memory_budget=3),
            rng=11,
            metrics=metrics,
        )
        query = budgeted.submit(plan)
        budgeted.sim.schedule(4.1, lambda: kill(network, plan))
        budgeted.sim.run()
        leftover = set(stored_spill_keys(network))
        return query, metrics, leftover

    @staticmethod
    def _kill_join_sites(network, plan):
        for stage in plan.stages[1:]:
            if stage.site in network.nodes and network.size > 1:
                network.remove_node(stage.site, graceful=False)

    def test_orphan_rows_labelled_and_released_after_site_churn(self):
        """Regression: rows spilled after their site churned out used to
        land in the in-memory sink with no accounting distinction. They
        must surface as the ``operator.spill.orphan_rows`` metric and be
        released with the query's other temp state."""
        query, metrics, leftover = self._run_budgeted_with_kill(
            self._kill_join_sites
        )
        assert query.done
        assert metrics.counter("operator.spill.rows").value > 0
        assert metrics.counter("operator.spill.orphan_rows").value > 0
        assert leftover == set()

    @pytest.mark.parametrize(
        "batch_size, spilled_rows, orphan_rows", [(1, 27, 7), (2, 28, 2)]
    )
    def test_orphan_count_pinned_to_the_single_put_path(
        self, batch_size, spilled_rows, orphan_rows
    ):
        """A run of keys surfaced through ``put_local_many`` on a departed
        site counts one orphan per *row*, exactly as the per-row
        ``put_local`` did: the expected numbers were recorded on the
        parent commit's tuple-at-a-time path."""
        query, metrics, leftover = self._run_budgeted_with_kill(
            self._kill_join_sites, batch_size
        )
        assert query.done
        assert metrics.counter("operator.spill.rows").value == spilled_rows
        assert metrics.counter("operator.spill.orphan_rows").value == orphan_rows
        assert query.stats.spill.orphan_rows == orphan_rows
        assert leftover == set()

    @staticmethod
    def _collapse(network, plan):
        for node_id in list(network.nodes):
            if network.size > 1:
                network.remove_node(node_id, graceful=False)

    def test_spill_state_released_on_pipeline_failure(self):
        """A query that *fails* mid-spill must release its spill surface
        exactly like a completing one."""
        query, metrics, leftover = self._run_budgeted_with_kill(self._collapse)
        assert query.done and query.error is not None
        assert metrics.counter("operator.spill.rows").value > 0
        assert metrics.counter("operator.spill.orphan_rows").value > 0
        assert leftover == set()

    @pytest.mark.parametrize("batch_size", [1, 16, None])
    def test_spill_state_released_on_failure_at_any_batching(self, batch_size):
        query, metrics, leftover = self._run_budgeted_with_kill(
            self._collapse, batch_size
        )
        assert query.done and query.error is not None
        assert metrics.counter("operator.spill.rows").value > 0
        assert leftover == set()

    def test_incremental_shj_spills_and_matches(self):
        moves = [
            (side, index % 3) for index in range(9) for side in ("left", "right")
        ]
        bounded = SymmetricHashJoin("k", memory_budget=4, spill_sink=SpillSink("k"))
        counts = [bounded.insert_keys(side, (key,))[0] for side, key in moves]
        assert counts == reference_match_counts(moves)
        assert bounded.spilled_rows > 0
        assert bounded.spill_reads > 0


class TestFailureHandling:
    def test_mid_flow_route_break_reports_error(self):
        network, catalog = build_world()
        plan = plan_for(network, catalog, ["nebula", "quasar"], batch_size=1)
        sim = Simulator()
        dataflow = DataflowExecutor(network, catalog, sim=sim, rng=7)
        errors = []
        query = dataflow.submit(
            plan, on_error=lambda q, e: errors.append(e)
        )
        # Collapse the ring to a single node while batches are in flight:
        # either a stage site or a route disappears under the pipeline.
        def collapse():
            for node_id in list(network.nodes):
                if network.size > 1:
                    network.remove_node(node_id, graceful=False)
        sim.schedule(0.5, collapse)
        sim.run()
        assert query.done
        if query.error is not None:
            assert isinstance(query.error, DhtError)
            assert errors

    def test_execute_raises_on_broken_plan_site(self):
        network, catalog = build_world()
        plan = plan_for(network, catalog, ["nebula", "quasar"])
        for stage in plan.stages:
            if stage.site in network.nodes:
                network.remove_node(stage.site, graceful=False)
        network.stabilize()
        dataflow = DataflowExecutor(network, catalog, rng=7)
        with pytest.raises(DhtError):
            dataflow.execute(plan)


class TestEmptyStreams:
    def test_no_match_conjunction_returns_empty_with_answer_charge(self):
        network, catalog = build_world()
        # "montia" never appears in this corpus.
        planner = KeywordPlanner(catalog)
        plan = planner.plan(["montia", "nebula"], network.random_node_id())
        dataflow = DataflowExecutor(network, catalog, rng=7)
        rows, stats = dataflow.execute(plan)
        assert rows == []
        assert stats.results == 0
        assert stats.bytes > 0  # dissemination + empty rehash + empty answer
        assert stats.pipeline.completion_time is not None
        assert stats.pipeline.first_answer_time is None


class TestNoFetchRowShapeParity:
    """With fetch_items=False the result rows keep their *shapes*, not
    just the right fileID set (regression: the compact batch-row path
    must not strip single-stage answers down to fileID-only rows)."""

    def shape_key(self, rows):
        return sorted(tuple(sorted(row.items())) for row in rows)

    def test_single_stage_returns_full_posting_rows(self):
        network, catalog = build_world()
        plan = plan_for(network, catalog, ["nebula"])
        dataflow = DataflowExecutor(network, catalog, rng=5)
        rows, _ = dataflow.execute(plan, fetch_items=False)
        stage = plan.stages[0]
        postings = catalog.table("Inverted").fetch_local(stage.site, "nebula")
        assert postings  # the corpus guarantees matches
        assert {"keyword", "fileID"} <= set(rows[0])
        assert self.shape_key(rows) == self.shape_key(postings)

    def test_multi_stage_returns_fileid_survivors(self):
        network, catalog = build_world()
        plan = plan_for(network, catalog, ["nebula", "quasar"], batch_size=2)
        dataflow = DataflowExecutor(network, catalog, rng=5)
        rows, _ = dataflow.execute(plan, fetch_items=False)
        expected = {item["fileID"] for item in oracle_items(catalog, plan.keywords)}
        assert expected
        assert self.shape_key(rows) == self.shape_key(
            {"fileID": file_id} for file_id in expected
        )

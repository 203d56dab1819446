"""Unit tests for the streaming exchange dataflow runtime."""

import math
from dataclasses import replace

import pytest

from repro.common.errors import DhtError, NodeNotFoundError
from repro.common.units import MessageCost
from repro.dht.network import DhtNetwork
from repro.hybrid.engine import RaceConfig
from repro.hybrid.world import build_world as build_hybrid_world
from repro.pier.catalog import Catalog
from repro.pier import operators
from repro.pier.dataflow import SEND_INTERVAL, DataflowExecutor, _QueryRun
from repro.pier.planner import KeywordPlanner
from repro.pier.query import Edge, JoinStrategy
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.piersearch.publisher import Publisher
from repro.sim.engine import Simulator

from oracle import oracle_items, reference_stored_join, steady_hops
from test_pier_call_budget import budgeted_bloom_world

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
    """The Figure 2 plan (rehash edges, key-joins) over ``terms``."""
    plan = KeywordPlanner(catalog).plan(
        terms, network.random_node_id(), strategy=JoinStrategy.DISTRIBUTED_JOIN
    )
    plan.batch_size = batch_size
    return plan


def stored_values(network):
    """``(node, ring key) -> value count`` over every store in the network."""
    return {(node, key): len(values) for node, key, values in network.stored_items()}


class TestPipelinedExecution:
    def test_batches_shipped_scale_with_batch_size(self):
        network, catalog = build_world()
        plan = plan_for(network, catalog, ["nebula", "quasar"])
        few = DataflowExecutor(network, catalog, rng=3)
        many = DataflowExecutor(network, catalog, rng=3)
        _, stats_few = few.execute(plan)
        _, stats_many = many.execute(replace(plan, batch_size=1))
        assert stats_many.pipeline.batches_shipped > stats_few.pipeline.batches_shipped
        assert stats_few.pipeline.batches_shipped >= 2  # rehash + answers

    def test_first_answer_strictly_before_completion_when_batched(self):
        network, catalog = build_world()
        plan = plan_for(network, catalog, ["nebula", "quasar"], batch_size=1)
        dataflow = DataflowExecutor(network, catalog, rng=3)
        rows, stats = dataflow.execute(plan)
        assert len(rows) > 1
        pipeline = stats.pipeline
        assert pipeline.first_answer_time is not None
        assert pipeline.first_answer_time < pipeline.completion_time


class TestDrainsWholeJoin:
    def test_a_submitted_query_runs_on_past_its_first_answer(self):
        """No early stop: a submitted query's answer grows after its first
        batch and ends equal to the blocking run of the same plan."""
        network, catalog = build_world(num_files=60)
        plan = plan_for(network, catalog, ["nebula", "quasar"], batch_size=1)
        blocking_rows, blocking_stats = DataflowExecutor(network, catalog, rng=7).execute(plan)
        dataflow = DataflowExecutor(network, catalog, rng=7)
        at_first = []
        query = dataflow.submit(plan, on_first_answer=lambda q: at_first.append(len(q.rows)))
        dataflow.sim.run()
        assert query.done and query.error is None
        assert 0 < at_first[0] < len(query.rows)
        key = lambda rows: sorted((r["fileID"], r["ipAddress"]) for r in rows)
        assert key(query.rows) == key(blocking_rows)
        assert query.stats.bytes == blocking_stats.bytes
        assert query.pipeline.batches_shipped == blocking_stats.pipeline.batches_shipped


class TestSendPacing:
    @pytest.mark.parametrize(
        "strategy, edge",
        [(JoinStrategy.DISTRIBUTED_JOIN, Edge.REHASH), (JoinStrategy.SEMI_JOIN, Edge.SEMI)],
        ids=["rehash", "semijoin"],
    )
    def test_batches_on_one_edge_leave_send_interval_apart(self, strategy, edge):
        """A scan offers its whole list at once, so the queue of the edge
        it feeds never drains early: each batch leaves ``SEND_INTERVAL``
        after the one before it."""
        network, catalog = build_world(num_files=60)
        plan = KeywordPlanner(catalog).plan(
            ["nebula", "quasar"], network.random_node_id(), strategy=strategy
        )
        plan.batch_size = 1
        dataflow = DataflowExecutor(network, catalog, rng=7)
        sends = {}
        ship = network.ship_batch

        def recording_ship(source, target, payload_bytes, category):
            sends.setdefault((source, target, category), []).append(dataflow.sim.now)
            return ship(source, target, payload_bytes, category)

        network.ship_batch = recording_ship
        rows, _ = dataflow.execute(plan)
        assert rows
        first, second = plan.stages[0].site, plan.stages[1].site
        times = sends[(first, second, edge)]
        assert len(times) == len(
            catalog.table("Inverted").fetch_local(first, plan.stages[0].keyword)
        )
        assert len(times) > 2
        for earlier, later in zip(times, times[1:]):
            assert later == earlier + SEND_INTERVAL


class TestMemoryBudgetSpill:
    def test_spill_preserves_results_and_counts(self):
        network, catalog = build_world(num_files=40)
        plan = plan_for(network, catalog, ["nebula", "quasar"], batch_size=4)
        unbounded = DataflowExecutor(network, catalog, rng=11)
        rows_ref, _ = unbounded.execute(plan)
        budgeted = DataflowExecutor(network, catalog, memory_budget=3, rng=11)
        rows, stats = budgeted.execute(plan)
        key = lambda rs: sorted((r["fileID"], r["ipAddress"]) for r in rs)
        assert key(rows) == key(rows_ref)
        assert stats.spill.partition_evictions > 0
        assert stats.spill.spill_reads > 0

    def test_a_budgeted_query_stores_no_temp_tuple(self):
        """Evicted build partitions stay where the site stores them: at no
        event of a spilling query does any store hold a value it did not
        hold before the query."""
        network, catalog = build_world(num_files=40)
        plan = plan_for(network, catalog, ["nebula", "quasar"], batch_size=4)
        budgeted = DataflowExecutor(network, catalog, memory_budget=3, rng=11)
        before = stored_values(network)
        query = budgeted.submit(plan)
        while budgeted.sim.step():
            assert stored_values(network) == before
        assert query.done and query.error is None
        assert query.stats.spill.partition_evictions > 0
        assert query.stats.spill.spill_reads > 0

    @pytest.mark.parametrize(
        "terms", [["nebula", "quasar"], ["nebula", "quasar", "aurora"]]
    )
    def test_batching_moves_reads_never_evictions(self, terms):
        """A join site evicts from the list it stores before the first
        batch arrives, so no batching moves an eviction. Reads are
        charged per arriving batch by design: with steady hops the join
        sites see the same key order at every batch size, and each batch
        of a coarser cut is a run of whole finer batches, so reads and
        re-read bytes only fall as batches grow."""
        network, catalog = build_world(num_files=60)
        steady_hops(network)
        runs = []
        for batch_size in (1, 2, 16, None):
            plan = plan_for(network, catalog, terms, batch_size=batch_size)
            budgeted = DataflowExecutor(network, catalog, memory_budget=3, rng=11)
            runs.append(budgeted.execute(plan)[1].spill)
        assert len({spill.partition_evictions for spill in runs}) == 1
        assert runs[0].partition_evictions > 0
        for finer, coarser in zip(runs, runs[1:]):
            assert finer.spill_reads >= coarser.spill_reads
            assert finer.reread_bytes >= coarser.reread_bytes
        assert runs[-1].spill_reads > 0

    @pytest.mark.parametrize("batch_size", [1, 4, None])
    def test_each_join_site_accounts_as_the_reference(self, monkeypatch, batch_size):
        """Every join site of a budgeted three-term query, held to
        ``tests/oracle.py``'s written-out reference over the list it
        stores and the batches it was actually probed with: the build's
        evictions, and the reads and re-read bytes of the site's probe."""
        sites = {}  # JoinProbe -> (the stored keys of its build, its batches)
        stored_of = {}  # StoredHashJoin -> the stored keys it was built on
        join, init = operators.StoredList.join, operators.JoinProbe.__init__
        probe = operators.JoinProbe.probe

        def recording_join(view, *config):
            build = join(view, *config)
            stored_of[build] = list(view.ids)
            return build

        def recording_init(handle, build):
            init(handle, build)
            sites[handle] = (stored_of[build], [])

        def recording_probe(handle, keys):
            sites[handle][1].append(list(keys))
            return probe(handle, keys)

        monkeypatch.setattr(operators.StoredList, "join", recording_join)
        monkeypatch.setattr(operators.JoinProbe, "__init__", recording_init)
        monkeypatch.setattr(operators.JoinProbe, "probe", recording_probe)
        network, catalog = build_world(num_files=60)
        plan = plan_for(network, catalog, ["nebula", "quasar", "aurora"], batch_size)
        budgeted = DataflowExecutor(network, catalog, memory_budget=5, rng=11)
        _, stats = budgeted.execute(plan)
        assert len(sites) == 2
        postings = catalog.table("Inverted")
        assert sorted(stored for stored, _ in sites.values()) == sorted(
            [row["fileID"] for row in postings.fetch_local(stage.site, stage.keyword)]
            for stage in plan.stages[1:]
        )
        row_bytes = budgeted.cost_model.spill_tuple_bytes()
        totals = [0, 0, 0]
        for handle, (stored, batches) in sites.items():
            _, evicted, reads, reread_rows = reference_stored_join(stored, batches, 5)
            assert handle.build.evicted == evicted
            assert (handle.reads, handle.reread_bytes) == (reads, reread_rows * row_bytes)
            totals = [a + b for a, b in zip(totals, (reads, reread_rows, len(evicted)))]
        spill = stats.spill
        assert [
            spill.spill_reads,
            spill.reread_bytes // row_bytes,
            spill.partition_evictions,
        ] == totals
        assert totals[0] > 0

    def _run_budgeted_with_kill(self, kill, batch_size=2):
        """Submit a budgeted two-term query and run ``kill(network,
        plan)`` at t=4.1, while batches are still arriving at the join
        site; returns the query and whether every store left holds only
        values it held before the query."""
        network, catalog = build_world(num_files=40)
        plan = plan_for(network, catalog, ["nebula", "quasar"], batch_size=batch_size)
        budgeted = DataflowExecutor(network, catalog, memory_budget=3, rng=11)
        before = stored_values(network)
        query = budgeted.submit(plan)
        budgeted.sim.schedule(4.1, lambda: kill(network, plan))
        budgeted.sim.run()
        after = stored_values(network)
        return query, after.items() <= before.items()

    @staticmethod
    def _kill_join_sites(network, plan):
        for stage in plan.stages[1:]:
            if stage.site in network.nodes and network.size > 1:
                network.remove_node(stage.site, graceful=False)

    @staticmethod
    def _collapse(network, plan):
        for node_id in list(network.nodes):
            if network.size > 1:
                network.remove_node(node_id, graceful=False)

    @pytest.mark.parametrize("batch_size", [1, 2, 16, None])
    def test_losing_the_join_site_leaves_nothing_stored(self, batch_size):
        """The old sink parked rows spilled after their site churned out
        as orphans, to be released later; now nothing is ever written, so
        a join site lost mid-query leaves nothing behind anywhere."""
        query, unchanged = self._run_budgeted_with_kill(self._kill_join_sites, batch_size)
        assert query.done and unchanged

    def test_spill_state_released_on_pipeline_failure(self):
        """A query that *fails* after its join site evicted leaves nothing
        stored anywhere, exactly like a completing one, and its
        accounting still holds what the site paid before the failure."""
        query, unchanged = self._run_budgeted_with_kill(self._collapse)
        assert query.done and query.error is not None
        assert unchanged
        assert query.stats.spill.partition_evictions > 0
        assert query.stats.spill.spill_reads > 0

    @pytest.mark.parametrize("batch_size", [1, 16, None])
    def test_spill_state_released_on_failure_at_any_batching(self, batch_size):
        query, unchanged = self._run_budgeted_with_kill(self._collapse, batch_size)
        assert query.done and query.error is not None
        assert unchanged

    def test_spill_stats_equal_the_registry_and_the_join_spans(self):
        """A traced, metered budgeted query reports its spill once in
        ``SpillStats``, once in the ``operator.spill.*`` counters and
        per join site on the ``stage.join`` spans, and all three agree."""
        network, catalog = build_world(num_files=60)
        plan = plan_for(network, catalog, ["nebula", "quasar", "aurora"], batch_size=2)
        tracer, metrics = Tracer(), MetricsRegistry()
        budgeted = DataflowExecutor(
            network, catalog, memory_budget=4, rng=11, tracer=tracer, metrics=metrics
        )
        tracer.bind_clock(lambda: budgeted.sim.now)
        _, stats = budgeted.execute(plan)
        spill = stats.spill
        assert spill.partition_evictions > 0 and spill.spill_reads > 0
        counter = lambda name: metrics.counter(f"operator.spill.{name}").value
        assert counter("reads") == spill.spill_reads
        assert counter("reread_bytes") == spill.reread_bytes
        assert counter("partition_evictions") == spill.partition_evictions
        joins = [span.attrs for span in tracer.spans if span.name == "stage.join"]
        assert len(joins) == 2
        assert sum(attrs["spill_reads"] for attrs in joins) == spill.spill_reads
        assert [attrs["build_rows"] for attrs in joins] == stats.per_stage_entries[1:]

    def test_an_unbudgeted_query_reports_no_spill(self):
        network, catalog = build_world(num_files=60)
        plan = plan_for(network, catalog, ["nebula", "quasar"], batch_size=2)
        metrics = MetricsRegistry()
        free = DataflowExecutor(network, catalog, rng=11, metrics=metrics)
        rows, stats = free.execute(plan)
        assert rows and stats.spill is None
        assert not [name for name in metrics.counters if name.startswith("operator.spill")]

    def test_a_budgeted_two_term_bloom_join_builds_nothing(self):
        """A two-term Bloom join has no key-join site: its probe site
        filters its own list and its verify site the candidates, so a
        memory budget evicts nothing and changes no answer."""
        network, catalog = build_world(num_files=60)
        plan = KeywordPlanner(catalog).plan(
            ["nebula", "quasar"], network.random_node_id(), strategy=JoinStrategy.BLOOM_JOIN
        )
        plan.batch_size = 2
        free = DataflowExecutor(network, catalog, rng=11)
        budgeted = DataflowExecutor(network, catalog, memory_budget=1, rng=11)
        (rows_free, stats_free), (rows, stats) = free.execute(plan), budgeted.execute(plan)
        key = lambda rs: sorted((r["fileID"], r["ipAddress"]) for r in rs)
        assert rows and key(rows) == key(rows_free)
        assert stats.spill is None
        assert stats.bytes == stats_free.bytes


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
        plan = plan_for(network, catalog, ["nebula", "quasar"], batch_size=64)
        for stage in plan.stages:
            if stage.site in network.nodes:
                network.remove_node(stage.site, graceful=False)
        network.stabilize()
        dataflow = DataflowExecutor(network, catalog, rng=7)
        with pytest.raises(DhtError):
            dataflow.execute(plan)


class TestDepartedJoinSite:
    """A batch goes direct to the site its plan leg resolved. When that
    site leaves the ring between two batches, the next send fails the run
    and charges nothing; the race re-plans onto the list's new owner."""

    TERMS = ["nebula", "quasar"]

    @staticmethod
    def leave_after_first_batch(monkeypatch, network, edge):
        """Patch ``network.ship_batch`` so the target of the first batch on
        ``edge`` leaves gracefully right after that batch is charged;
        returns the categories of every batch charged."""
        ship = network.ship_batch
        shipped = []

        def shipping(source, target, payload_bytes, category):
            result = ship(source, target, payload_bytes, category)
            shipped.append(category)
            if category == edge and shipped.count(edge) == 1:
                network.remove_node(target, graceful=True)
            return result

        monkeypatch.setattr(network, "ship_batch", shipping)
        return shipped

    def test_the_next_batch_fails_the_run_before_it_is_charged(self, monkeypatch):
        network, catalog = build_world(num_files=60)
        plan = KeywordPlanner(catalog).plan(self.TERMS, network.random_node_id())
        assert plan.strategy is JoinStrategy.SEMI_JOIN
        plan.batch_size = 1
        dataflow = DataflowExecutor(network, catalog, rng=7)
        shipped = self.leave_after_first_batch(monkeypatch, network, Edge.SEMI)
        before = network.meter.snapshot()
        handoff = network.meter.by_category.get("dht.handoff")
        query = dataflow.submit(plan)
        dataflow.sim.run()
        assert isinstance(query.error, NodeNotFoundError)
        # One semi-join batch charged, none after it; the join stage never
        # received a batch (it would have read its list on the first).
        assert shipped == [Edge.SEMI]
        assert network.meter.by_category[Edge.SEMI].messages == 1
        assert len(query.stats.per_stage_entries) == 1
        # Everything the query charged, and nothing else but the handoff.
        handed = network.meter.by_category["dht.handoff"].bytes - (
            handoff.bytes if handoff is not None else 0
        )
        assert query.stats.bytes == network.meter.bytes - before.bytes - handed

    def test_a_race_replans_around_the_departed_site_and_resolves_once(self, monkeypatch):
        network, catalog = build_world(num_files=60)
        world = build_hybrid_world(
            network, range(8), gnutella_timeout=1.0,
            race_config=RaceConfig(batch_size=1), rng=5,
        )
        expected = len(oracle_items(world.catalog, self.TERMS))
        assert expected > 0
        inverted = world.catalog.table("Inverted")
        sites = {inverted.host_of(term) for term in self.TERMS}
        hybrid = next(h for h in world.hybrids if h.dht_node_id not in sites)
        shipped = self.leave_after_first_batch(monkeypatch, network, Edge.SEMI)
        race = world.engine.submit(hybrid, self.TERMS, [math.inf], 3)
        world.sim.run()
        assert race.done and world.engine.completed == 1
        assert race.pier_attempts == 2
        assert race.outcome.pier_results == expected
        # The re-planned semi-join fetched its Items from its last join
        # site: no answer leg shipped.
        assert Edge.ANSWER not in shipped
        assert network.meter.by_category["pier.item_fetch"].messages >= expected


def one_match_world():
    """(network, catalog, query node, the one matching fileID): two terms
    that share one file, each also alone in others, with both posting
    sites, the match's Item host and the query node four distinct nodes."""
    network = DhtNetwork(rng=13)
    network.populate(24)
    catalog = Catalog(network)
    publisher = Publisher(network, catalog)
    names = ["nebula quasar both.mp3"]
    names += [f"nebula solo{index}.mp3" for index in range(3)]
    names += [f"quasar solo{index}.mp3" for index in range(4)]
    for index, name in enumerate(names):
        publisher.publish_file(name, 1000 + index, f"10.0.0.{index}", 6346)
    (match,) = oracle_items(catalog, ["nebula", "quasar"])
    inverted, items = catalog.table("Inverted"), catalog.table("Item")
    busy = {inverted.host_of("nebula"), inverted.host_of("quasar")}
    busy.add(items.host_of(match["fileID"]))
    assert len(busy) == 3, "the world must host the sites and the Item apart"
    query_node = next(node for node in sorted(network.nodes) if node not in busy)
    return network, catalog, query_node, match["fileID"]


class TestFetchAtTheAnswerSite:
    """The semi-join fetches each match's Item from its last join site:
    no answer leg, one routed request from there and one reply to the
    query node. The distributed join (Figure 2) keeps its answer leg and
    fetches at the query node."""

    TERMS = ["nebula", "quasar"]

    def run(self, network, catalog, query_node, strategy, monkeypatch):
        """(plan, rows, stats, the meter's (messages, bytes) per category
        the query moved, and the origin and fileIDs of each fetch)."""
        plan = KeywordPlanner(catalog).plan(self.TERMS, query_node, strategy=strategy)
        origins = []
        fetch = _QueryRun._fetch_items

        def recording(run, origin, reply_to, file_ids):
            assert reply_to == query_node
            origins.append((origin, list(file_ids)))
            return fetch(run, origin, reply_to, file_ids)

        monkeypatch.setattr(_QueryRun, "_fetch_items", recording)
        before = dict(network.meter.by_category)
        rows, stats = DataflowExecutor(network, catalog, rng=7).execute(plan)
        monkeypatch.undo()
        delta = {}
        for category, cost in network.meter.by_category.items():
            old = before.get(category, MessageCost(0, 0))
            if cost.bytes != old.bytes:
                delta[category] = (cost.messages - old.messages, cost.bytes - old.bytes)
        return plan, rows, stats, delta, origins

    def test_a_semi_join_fetches_from_its_last_join_site(self, monkeypatch):
        network, catalog, query_node, file_id = one_match_world()
        plan, rows, stats, delta, origins = self.run(
            network, catalog, query_node, JoinStrategy.SEMI_JOIN, monkeypatch
        )
        assert [row["fileID"] for row in rows] == [file_id]
        last_site = plan.stages[-1].site
        assert origins == [(last_site, [file_id])]
        assert Edge.ANSWER not in delta
        # One routed request from the last join site, one direct reply.
        cost = network.cost_model
        items = catalog.table("Item")
        host = items.host_of(file_id)
        hops = network.route_hops(host, last_site)
        reply = sum(cost.item_tuple_bytes(row["filename"]) for row in rows)
        assert delta["pier.item_fetch"] == (
            max(1, hops) + 1,
            cost.routed_bytes(cost.fileid_bytes, hops) + cost.message_bytes(reply),
        )
        # Every byte the query reports was metered, and nothing else.
        assert stats.bytes == sum(moved for _, moved in delta.values())
        assert stats.messages == sum(count for count, _ in delta.values())
        assert stats.critical_path_hops == stats.chain_hops + hops + 1

    def test_the_distributed_join_keeps_its_answer_leg(self, monkeypatch):
        network, catalog, query_node, file_id = one_match_world()
        plan, rows, stats, delta, origins = self.run(
            network, catalog, query_node, JoinStrategy.DISTRIBUTED_JOIN, monkeypatch
        )
        assert [row["fileID"] for row in rows] == [file_id]
        assert origins == [(query_node, [file_id])]
        cost = network.cost_model
        answer = cost.tuple_bytes(cost.fileid_bytes)
        assert delta[Edge.ANSWER] == (1, cost.message_bytes(answer))
        assert stats.bytes == sum(moved for _, moved in delta.values())
        hops = network.route_hops(catalog.table("Item").host_of(file_id), query_node)
        assert stats.critical_path_hops == stats.chain_hops + 1 + hops + 1

    def test_an_item_reply_to_a_departed_query_node_fails_the_run(self, monkeypatch):
        """The query node leaves right after the semi-join batch is
        charged: the last join site's fetch fails the run before it
        charges anything, as an answer batch to that node would."""
        network, catalog, query_node, _ = one_match_world()
        plan = KeywordPlanner(catalog).plan(self.TERMS, query_node)
        assert plan.strategy is JoinStrategy.SEMI_JOIN
        ship = network.ship_batch

        def shipping(source, target, payload_bytes, category):
            result = ship(source, target, payload_bytes, category)
            if category == Edge.SEMI:
                network.remove_node(query_node, graceful=True)
            return result

        monkeypatch.setattr(network, "ship_batch", shipping)
        before = network.meter.snapshot()
        handoff = network.meter.by_category.get("dht.handoff")
        dataflow = DataflowExecutor(network, catalog, rng=7)
        query = dataflow.submit(plan)
        dataflow.sim.run()
        assert isinstance(query.error, NodeNotFoundError)
        assert "pier.item_fetch" not in network.meter.by_category
        assert Edge.ANSWER not in network.meter.by_category
        # The join site read its list: the semi batch landed before the
        # fetch failed.
        assert len(query.stats.per_stage_entries) == 2
        handed = network.meter.by_category["dht.handoff"].bytes - (
            handoff.bytes if handoff is not None else 0
        )
        assert query.stats.bytes == network.meter.bytes - before.bytes - handed


class TestEmptyStreams:
    def test_no_match_conjunction_returns_empty_with_answer_charge(self):
        network, catalog = build_world()
        # "montia" never appears in this corpus.
        planner = KeywordPlanner(catalog)
        plan = planner.plan(
            ["montia", "nebula"],
            network.random_node_id(),
            strategy=JoinStrategy.DISTRIBUTED_JOIN,
        )
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
        plan = plan_for(network, catalog, ["nebula"], batch_size=64)
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


class TestStoredListsAcrossWrites:
    """A site's join state is built once per version of its stored list:
    a repeated query reuses it all, and after a write only the site whose
    list changed builds again — and answers from the new list."""

    def counted_search(self, monkeypatch, engine, terms):
        """``engine.search(terms)`` and how many stored-list views, Bloom
        filters and join builds it made."""
        made = {"views": 0, "filters": 0, "builds": 0}

        def counting(name, original):
            def wrapper(*args, **kwargs):
                made[name] += 1
                return original(*args, **kwargs)

            return wrapper

        with monkeypatch.context() as patch:
            patch.setattr(
                operators.StoredList,
                "__init__",
                counting("views", operators.StoredList.__init__),
            )
            patch.setattr(
                operators, "bloom_for_keys", counting("filters", operators.bloom_for_keys)
            )
            patch.setattr(
                operators.StoredHashJoin,
                "__init__",
                counting("builds", operators.StoredHashJoin.__init__),
            )
            result = engine.search(terms)
        assert result.stats.strategy is JoinStrategy.BLOOM_JOIN
        assert result.stats.spill.partition_evictions > 0
        return sorted(item["fileID"] for item in result.items), made

    def test_a_write_rebuilds_only_the_touched_site(self, monkeypatch):
        engine, _ = budgeted_bloom_world()
        catalog = engine.catalog
        terms = ["alpha00", "beta00", "gamma00", "delta00"]
        # A fresh file in three of the four lists; "alpha00" sorts first,
        # so its list stays the filter site however the writes size it.
        name = "alpha00 beta00 gamma00 delta00 fresh.mp3"
        file_id = "f" * 40
        catalog.table("Item").publish(
            {
                "fileID": file_id,
                "filename": name,
                "filesize": 1,
                "ipAddress": "10.0.9.9",
                "port": 6346,
            }
        )
        postings = catalog.table("Inverted")
        for keyword in terms[1:]:
            postings.publish({"keyword": keyword, "fileID": file_id})

        def oracle():
            return sorted(item["fileID"] for item in oracle_items(catalog, terms))

        first, made = self.counted_search(monkeypatch, engine, terms)
        assert first == oracle() and file_id not in first
        assert made == {"views": 4, "filters": 1, "builds": 2}
        again, made = self.counted_search(monkeypatch, engine, terms)
        assert again == first
        assert made == {"views": 0, "filters": 0, "builds": 0}
        # The filter site's list gains the file: that site alone builds a
        # new view and filter; the probe and join sites reuse theirs.
        postings.publish({"keyword": "alpha00", "fileID": file_id})
        second, made = self.counted_search(monkeypatch, engine, terms)
        assert second == oracle() == sorted(first + [file_id])
        assert made == {"views": 1, "filters": 1, "builds": 0}
        # The last join site's list gains a row no other list holds: that
        # site alone builds a new view and join build.
        postings.publish({"keyword": "gamma00", "fileID": "e" * 40})
        third, made = self.counted_search(monkeypatch, engine, terms)
        assert third == oracle() == second
        assert made == {"views": 1, "filters": 0, "builds": 1}

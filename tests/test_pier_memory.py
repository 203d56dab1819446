"""A finished query costs nothing: no cycle, no retained bytes, no temp tuple.

Three things nothing else in the suite would notice, all checked without
a stopwatch and with the cyclic collector *off* (the benchmark drains
with ``gc`` disabled, and a long-lived engine cannot count on a gen-2
pass): a run, its edges and its join stages are freed by reference
count the moment the query completes, fails or terminates early — the
stored-list views a run reads outlive it, so none may reach back to it;
the bytes a drained world still holds per finished query stay under a
recorded ceiling; and a spilling query leaves no value in any store —
also when its join site leaves gracefully mid-query, or a node joins as
the site's predecessor and claims the list the site builds on. The
memos a query fills across queries — a stored list's Bloom probe
results, the optimizer's prices — are bounded, and a bound small enough
to clear on almost every use changes no answer and no price.
"""

import gc
import random
import tracemalloc
import weakref
from collections import Counter

import pytest

from repro.pier import dataflow, operators, optimizer
from repro.pier.catalog import table_key
from repro.pier.dataflow import DataflowExecutor
from repro.pier.operators import StoredList
from repro.pier.optimizer import CostBasedOptimizer

from test_pier_call_budget import QUERIES, budgeted_bloom_world
from oracle import steady_hops
from test_pier_dataflow import build_world, plan_for

#: Bytes still allocated per finished query after the Bloom-join world of
#: ``test_pier_call_budget.py`` drained a second time (memos, route cache
#: and store buckets warm). Recorded on CPython 3.11: 1.5 KB with the
#: teardown, 29.7 KB on its parent commit, where every finished run
#: waited for the cyclic collector. What is left is allocator and
#: free-list noise, so the ceiling is a few times the reading.
RETAINED_BYTES_PER_QUERY_CEILING = 6_000


@pytest.fixture
def no_gc():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.fixture
def started_runs(monkeypatch):
    """Weak references into every run the test submits: ``(run, an
    exchange, a join stage)``, taken once assembled."""
    refs = []
    start = dataflow._QueryRun.start

    def recording_start(run):
        start(run)
        refs.append(
            [weakref.ref(part) for part in (run, run.exchanges[0], run.joins[0])]
        )

    monkeypatch.setattr(dataflow._QueryRun, "start", recording_start)
    return refs


def spill_world():
    """A budgeted two-term query whose join site evicts, submitted but not
    yet drained."""
    network, catalog = build_world(num_files=60)
    steady_hops(network)
    plan = plan_for(network, catalog, ["nebula", "quasar"], batch_size=4)
    flow = DataflowExecutor(network, catalog, memory_budget=3, rng=11)
    return network, plan, flow, flow.submit(plan)


def collapse(network):
    for node_id in list(network.nodes):
        if network.size > 1:
            network.remove_node(node_id, graceful=False)


def stored_by_key(network):
    """Values held under each ring key, summed over every store: churn
    moves a value between stores, never between keys."""
    totals = Counter()
    for _, key, values in network.stored_items():
        totals[key] += len(values)
    return +totals


def step_until(flow, query, condition, check=lambda: None):
    """Advance event by event to the first instant ``condition()`` holds,
    calling ``check()`` after every event."""
    while not condition():
        assert not query.done and flow.sim.step()
        check()


ENDINGS = ["complete", "fail"]
CHURN = ["stays", "leaves", "gains-predecessor"]


def run_to_its_end(ending, churn="stays", check=lambda network: None):
    """Drive one spilling query to ``ending``, stopping the simulator at
    the event that finished it (later events stay queued). Once the join
    site has opened (both stages read their lists), ``churn`` strikes it:
    it leaves gracefully, handing its store to its successor, or a node
    joins right on the ring key of the list it built on and claims it.
    ``check(network)`` runs once before the first event and after every
    event."""
    network, plan, flow, query = spill_world()
    check(network)
    opened = lambda: len(query.stats.per_stage_entries) >= 2
    step_until(flow, query, opened, lambda: check(network))
    site, before = plan.stages[1].site, stored_by_key(network)
    if churn == "leaves":
        network.remove_node(site, graceful=True)
        assert stored_by_key(network) == before  # handed over, not dropped
    elif churn == "gains-predecessor":
        key = table_key("Inverted", plan.stages[1].keyword)
        assert network.local_contains(site, key) and key != site
        network.create_node(key)
        assert network.local_contains(key, key)  # claimed by the newcomer
        assert stored_by_key(network) == before
    if ending == "fail":
        collapse(network)
    step_until(flow, query, lambda: query.done, lambda: check(network))
    return network, query


class TestFreedByRefcount:
    @pytest.mark.parametrize("ending", ENDINGS)
    def test_a_finished_run_dies_without_the_collector(
        self, ending, no_gc, started_runs
    ):
        """Edges and stages all point back at their run; the
        teardown drops the run's side of every such cycle, and a
        cancelled event drops its callback, so nothing — not even a
        cancelled batch still sitting in the event heap — keeps a
        finished query's dataflow alive."""
        _, query = run_to_its_end(ending)
        assert (query.error is not None) == (ending == "fail")
        assert query.stats.spill.partition_evictions > 0
        [refs] = started_runs
        assert [ref() for ref in refs] == [None] * 3

    def test_bloom_chain_dies_without_the_collector(self, no_gc, started_runs):
        engine, queries = budgeted_bloom_world()
        for terms in queries[:4]:
            assert len(engine.search(terms)) == 1
        assert len(started_runs) == 4
        assert all(ref() is None for refs in started_runs for ref in refs)

    def test_a_run_keeps_under_thirty_instance_attributes(self, monkeypatch):
        """Past 30 attributes CPython 3.11 stops sharing a class's
        instance-dict keys, and every ``run.`` read on the per-batch paths
        slows down; counted at completion, after every lazy attribute."""
        counts = []
        complete = dataflow._QueryRun.complete

        def counting_complete(run):
            counts.append(len(vars(run)))
            complete(run)

        monkeypatch.setattr(dataflow._QueryRun, "complete", counting_complete)
        _, _, flow, query = spill_world()
        flow.sim.run()
        engine, queries = budgeted_bloom_world()
        engine.search(queries[0])
        assert query.done and len(counts) == 2
        assert max(counts) < 30, counts

    def test_retained_bytes_per_finished_query(self, no_gc):
        engine, queries = budgeted_bloom_world()
        for terms in queries:
            engine.search(terms)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for terms in queries:
                assert len(engine.search(terms)) == 1
            retained = (tracemalloc.get_traced_memory()[0] - before) / QUERIES
        finally:
            tracemalloc.stop()
        assert retained < RETAINED_BYTES_PER_QUERY_CEILING, retained


class TestTempTuplesReleased:
    @pytest.mark.parametrize("churn", CHURN)
    @pytest.mark.parametrize("ending", ENDINGS)
    def test_no_store_holds_a_finished_runs_temp_tuples(self, ending, churn):
        """A join site used to copy its evicted partitions into temp tuples
        in its own store and release them when the query ended — and a
        site that left gracefully handed them to a successor that release
        never looked at. Now an evicted partition stays where the site
        stores it, so at no event of the run, through any churn of its
        join site and however it ends, does any ring key hold a value it
        did not hold before the query (ungraceful failures only take
        values away)."""
        baseline = {}

        def nothing_written(network):
            now = stored_by_key(network)
            if not baseline:
                baseline.update(now)
            assert all(baseline.get(key, 0) >= count for key, count in now.items())

        network, query = run_to_its_end(ending, churn, check=nothing_written)
        assert query.done
        assert query.stats.spill.partition_evictions > 0
        nothing_written(network)
        if ending != "fail":
            assert stored_by_key(network) == baseline


class TestMemosBounded:
    def replay(self):
        """Each query of the Bloom-join world twice: (answer, bytes, spill)
        per search, and the world's catalog."""
        engine, queries = budgeted_bloom_world()
        results = [engine.search(terms) for terms in queries + queries]
        answers = [
            (sorted(item["fileID"] for item in found.items), found.stats.bytes, found.stats.spill)
            for found in results
        ]
        return answers, engine.catalog, queries

    def test_a_one_entry_bloom_probe_memo_changes_no_answer(self, monkeypatch):
        reference, _, _ = self.replay()
        monkeypatch.setattr(operators, "BLOOM_PROBE_MEMO_MAX", 1)
        answers, catalog, queries = self.replay()
        assert answers == reference
        postings = catalog.table("Inverted")
        for keyword in {term for terms in queries for term in terms}:
            view = postings.view_local(postings.host_of(keyword), keyword, StoredList)
            assert len(view._bloom_hits or ()) <= 1

    def test_a_two_entry_price_memo_prices_as_fresh_optimizers_do(self, monkeypatch):
        _, catalog, _ = self.replay()
        rng = random.Random(4)
        profiles = [
            {f"t{index}": rng.choice((0, 5, 64, 300)) for index in range(rng.randint(1, 4))}
            for _ in range(40)
        ]
        fresh = [CostBasedOptimizer(catalog).estimates(sizes) for sizes in profiles]
        monkeypatch.setattr(optimizer, "PRICE_MEMO_MAX", 2)
        memoised = CostBasedOptimizer(catalog)
        for sizes, expected in zip(profiles, fresh):
            assert memoised.estimates(sizes) == expected
            assert len(memoised._prices) <= 2

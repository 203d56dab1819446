"""A finished query costs nothing: no cycle, no retained bytes, no temp tuple.

Three things nothing else in the suite would notice, all checked without
a stopwatch and with the cyclic collector *off* (the benchmark drains
with ``gc`` disabled, and a long-lived engine cannot count on a gen-2
pass): a run, its edges, join stages and spill sinks are freed by
reference count the moment the query completes, fails or terminates
early; the bytes a drained world still holds per finished query stay
under a recorded ceiling; and no store in the network holds a value under
a run's temp ring keys once the run is done — also when a join site left
gracefully mid-query and handed its spill tuples to its successor, or a
node joined as its predecessor and claimed some of them.
"""

import gc
import tracemalloc
import weakref

import pytest

from repro.pier import dataflow
from repro.pier.dataflow import DataflowConfig, DataflowExecutor

from test_pier_call_budget import QUERIES, budgeted_bloom_world
from test_pier_dataflow import (
    build_world,
    plan_for,
    spill_ring_keys,
    stored_spill_keys,
)

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
    exchange, a join stage, its spill sink)``, taken once assembled."""
    refs = []
    start = dataflow._QueryRun.start

    def recording_start(run):
        start(run)
        join = run.joins[0]
        refs.append(
            [
                weakref.ref(part)
                for part in (run, run.exchanges[0], join, join.shj.spill_sink)
            ]
        )

    monkeypatch.setattr(dataflow._QueryRun, "start", recording_start)
    return refs


def spill_world(nodes=24, **submit):
    """The budgeted two-term query of ``test_pier_spill.py``'s surface
    pin, submitted but not yet drained."""
    network, catalog = build_world(num_files=60, nodes=nodes)
    plan = plan_for(network, catalog, ["nebula", "quasar"], batch_size=4)
    flow = DataflowExecutor(
        network,
        catalog,
        config=DataflowConfig(batch_size=4, memory_budget=3, hop_jitter=0.0),
        rng=11,
    )
    return network, plan, flow, flow.submit(plan, **submit)


def spill_tuples(network):
    """Values stored anywhere under the query's spill temp ring keys."""
    return sum(stored_spill_keys(network).values())


def collapse(network):
    for node_id in list(network.nodes):
        if network.size > 1:
            network.remove_node(node_id, graceful=False)


def owned_spill_keys(network):
    """Spill ring keys stored at the node that also owns them on the ring
    (a sink writes at its join site whoever owns the key)."""
    spill_keys = spill_ring_keys()
    return [
        key
        for holder, key, values in network.stored_items()
        if key in spill_keys and values and network.owner_of(key) == holder
    ]


def step_until(flow, query, condition):
    """Advance event by event to the first instant ``condition()`` holds."""
    while not condition():
        assert not query.done and flow.sim.step()


ENDINGS = ["complete", "fail", "stop_after"]
CHURN = ["stays", "leaves", "gains-predecessor"]


def run_to_its_end(ending, churn="stays"):
    """Drive one spilling query to ``ending``, stopping the simulator at
    the event that finished it (later events stay queued)."""
    submit = {"stop_after": 1} if ending == "stop_after" else {}
    if churn == "gains-predecessor":
        # Six nodes: arcs wide enough that a join site owns one of the
        # ring keys it spills under. A node joining right on that key
        # becomes the site's predecessor and claims the bucket.
        network, plan, flow, query = spill_world(nodes=6, **submit)
        step_until(flow, query, lambda: owned_spill_keys(network))
        before = spill_tuples(network)
        key = owned_spill_keys(network)[0]
        network.create_node(key)
        assert network.local_contains(key, key)  # claimed by the newcomer
        assert spill_tuples(network) == before
    else:
        network, plan, flow, query = spill_world(**submit)
        step_until(flow, query, lambda: spill_tuples(network))
    if churn == "leaves":
        before = spill_tuples(network)
        network.remove_node(plan.stages[1].site, graceful=True)
        assert spill_tuples(network) == before  # handed over, not dropped
    if ending == "fail":
        collapse(network)
    while not query.done:
        assert flow.sim.step()
    return network, query


class TestFreedByRefcount:
    @pytest.mark.parametrize("ending", ENDINGS)
    def test_a_finished_run_dies_without_the_collector(
        self, ending, no_gc, started_runs
    ):
        """Edges, stages and sinks all point back at their run; the
        teardown drops the run's side of every such cycle, and a
        cancelled event drops its callback, so nothing — not even a
        cancelled batch still sitting in the event heap — keeps a
        finished query's dataflow alive."""
        network, query = run_to_its_end(ending)
        assert (query.error is not None) == (ending == "fail")
        assert query.pipeline.early_terminated == (ending == "stop_after")
        assert query.stats.spill.spilled_tuples > 0
        [refs] = started_runs
        assert [ref() for ref in refs] == [None] * 4

    def test_bloom_chain_dies_without_the_collector(self, no_gc, started_runs):
        engine, queries = budgeted_bloom_world()
        for terms in queries[:4]:
            assert len(engine.search(terms)) == 1
        assert len(started_runs) == 4
        assert all(ref() is None for refs in started_runs for ref in refs)

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
        """Regression: a join site that left gracefully handed its spill
        tuples to its successor, and release only ever looked at the
        departed id — 29 tuples stayed in the successor's store for good
        (and were charged as ``dht.handoff`` again on every later leave).
        Likewise the bucket a new predecessor claims out of a live
        site's store."""
        network, query = run_to_its_end(ending, churn)
        assert query.done
        assert spill_tuples(network) == 0

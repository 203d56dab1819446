"""Property suites for the runtime overhaul.

Three invariants the perf work must never bend:

* **Group-cancel semantics** — whatever interleaving of scheduling,
  individual cancels, partial draining, and group cancellation happens,
  a cancelled group never fires another callback, ``pending`` counters
  stay exact, and cancelling is idempotent.
* **Route-cache transparency** — with churn interleaved at arbitrary
  points, every lookup the network serves, direct or inside a put or a
  get, from the cache or not, is the walk the uncached reference walker
  in ``tests/oracle.py`` makes: same owner, same path, no retries (and
  every byte a put or get is charged derives from that path).
* **Representation-blind accounting** — the compact batch-row path keeps
  ``QueryStats`` byte-identical across all four join strategies (pinned
  by the golden digest in ``tests/golden/runtime_stats_digest.json``).
"""

import json
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.common.errors import KeyNotFoundError
from repro.dht.network import DhtNetwork
from repro.sim.engine import Simulator

from test_dht_routing_step import reference_outcome

GOLDEN = Path(__file__).resolve().parent / "golden" / "runtime_stats_digest.json"


# ----------------------------------------------------------------------
# EventGroup cancellation semantics
# ----------------------------------------------------------------------

#: one program step: (action, delay-ish operand)
group_ops = st.lists(
    st.tuples(
        st.sampled_from(
            ["schedule", "schedule_grouped", "cancel_last", "drain_some", "cancel_group"]
        ),
        st.integers(min_value=0, max_value=12),
    ),
    min_size=1,
    max_size=60,
)


class TestGroupCancelProperties:
    @given(ops=group_ops)
    @settings(max_examples=60)
    def test_cancelled_groups_never_fire_and_counters_stay_exact(self, ops):
        sim = Simulator()
        group = sim.group()
        fired: list[str] = []
        live_loose: list = []
        live_grouped: list = []

        for action, operand in ops:
            if action == "schedule":
                live_loose.append(
                    sim.schedule(float(operand), lambda: fired.append("loose"))
                )
            elif action == "schedule_grouped":
                event = group.schedule(
                    float(operand), lambda: fired.append("grouped")
                )
                if group.cancelled:
                    assert event is None
                else:
                    live_grouped.append(event)
            elif action == "cancel_last":
                for pool in (live_grouped, live_loose):
                    if pool:
                        pool[-1].cancel()
                        pool[-1].cancel()  # idempotent: second is a no-op
                        break
            elif action == "drain_some":
                sim.run(max_events=operand)
            elif action == "cancel_group":
                group.cancel()
                assert group.pending == 0

            # The maintained counter always matches a ground-truth count
            # of pending entries in the heap.
            ground_truth = sum(
                1 for entry in sim._queue if entry[2]._state == 0
            )
            assert sim.pending == ground_truth

        grouped_fired_before_cancel = fired.count("grouped")
        cancelled = group.cancelled
        sim.run()
        if cancelled:
            # Nothing of the group fires after its cancellation.
            assert fired.count("grouped") == grouped_fired_before_cancel
        assert sim.pending == 0
        assert group.pending == 0

    @given(delays=st.lists(st.floats(min_value=0.0, max_value=9.0), min_size=1, max_size=30))
    @settings(max_examples=40)
    def test_group_cancel_reports_exactly_the_live_remainder(self, delays):
        sim = Simulator()
        group = sim.group()
        for delay in delays:
            group.schedule(delay, lambda: None)
        fired = sim.run(max_events=len(delays) // 2)
        direct = 0
        for event in list(group._events.values())[::3]:
            event.cancel()
            direct += 1
        assert group.cancel() == len(delays) - fired - direct
        assert group.schedule(1.0, lambda: None) is None


# ----------------------------------------------------------------------
# Route cache: observational equivalence under interleaved churn
# ----------------------------------------------------------------------

#: a program over the DHT: lookups/puts/gets interleaved with churn at
#: hypothesis-chosen points
dht_ops = st.lists(
    st.one_of(
        st.tuples(st.just("lookup"), st.integers(0, 39)),
        st.tuples(st.just("put"), st.integers(0, 11)),
        st.tuples(st.just("get"), st.integers(0, 11)),
        st.tuples(st.just("churn"), st.booleans()),
    ),
    min_size=4,
    max_size=40,
)


def _apply(network: DhtNetwork, op, keys) -> None:
    """Run one program step."""
    kind, operand = op
    if kind == "lookup":
        network.lookup(keys[operand % len(keys)], origin=network.random_node_id())
    elif kind == "put":
        key = keys[operand % 12]
        network.put_raw(key, f"v{operand}", payload_bytes=64)
        assert f"v{operand}" in network.get_local(network.owner_of(key), key)
    elif kind == "get":
        key = keys[operand % 12]
        try:
            values = network.get_raw(key)
        except KeyNotFoundError:
            values = []
        assert values == network.get_local(network.owner_of(key), key)
    else:
        # churn: one leave + one join, optionally without stabilizing (the
        # next lookup stabilizes lazily; the epoch bump must flush the cache)
        victim = network.random_node_id()
        network.remove_node(victim, graceful=operand)
        network.create_node()
        if operand:
            network.stabilize()


class TestRouteCacheEquivalence:
    @given(seed=st.integers(0, 10_000), ops=dht_ops)
    @settings(max_examples=40, deadline=None)
    def test_cache_on_equals_cache_off_under_interleaved_churn(self, seed, ops):
        """Cache on is ``DhtNetwork._route``, the one cached routing body
        under lookup, put and get; cache off is the reference walker, run
        on the same network right after each route returns."""
        network = DhtNetwork(rng=seed)
        network.populate(16)
        served = 0
        cached_route = network._route

        def checked_route(key, origin):
            nonlocal served
            path = cached_route(key, origin)
            served += 1
            assert path[0] == origin
            assert ("return", (path[-1], list(path), 0)) == (
                reference_outcome(network, key, origin)
            )
            return path

        # Shadows the method, so the routes inside put/get are checked too.
        network._route = checked_route
        keys = [(seed * 7919 + i * 104729) % (2**160) for i in range(40)]
        for op in ops:
            _apply(network, op, keys)
        assert network.route_cache_hits + network.route_cache_misses == served


# ----------------------------------------------------------------------
# Row representation: QueryStats stay byte-identical (golden pin)
# ----------------------------------------------------------------------


def stats_digest(seeds=(0, 3)) -> dict:
    """Canonical QueryStats + answers for the strategy matrix.

    Regenerated here and compared against the committed golden file: any
    change to bytes, messages, shipped entries, virtual-time latencies,
    or answer sets — e.g. from a row-representation or scheduling change —
    shows up as a diff.
    """
    from test_dataflow_equivalence import build_world, plan_for, queries_for, result_key

    from repro.pier.dataflow import DataflowConfig, DataflowExecutor
    from repro.pier.query import JoinStrategy

    payload: dict = {}
    for seed in seeds:
        rng, network, catalog = build_world(seed)
        unbatched = DataflowExecutor(
            network, catalog, config=DataflowConfig(batch_size=None)
        )
        batched = DataflowExecutor(
            network, catalog, config=DataflowConfig(batch_size=2), rng=seed
        )
        for terms in queries_for(rng):
            query_node = network.random_node_id()
            for strategy in JoinStrategy:
                plan = plan_for(catalog, strategy, terms, query_node)
                for tag, executor in (("unbatched", unbatched), ("pipelined", batched)):
                    rows, stats = executor.execute(plan)
                    record = {
                        "bytes": stats.bytes,
                        "messages": stats.messages,
                        "results": stats.results,
                        "entries": stats.posting_entries_shipped,
                        "per_stage": stats.per_stage_entries,
                        "filter_bytes": stats.filter_bytes,
                        "chain_hops": stats.chain_hops,
                        "critical_path_hops": stats.critical_path_hops,
                        "answers": [list(answer) for answer in result_key(rows)],
                    }
                    if executor is batched:
                        record["batches"] = stats.pipeline.batches_shipped
                        record["first_answer"] = stats.pipeline.first_answer_time
                        record["completion"] = stats.pipeline.completion_time
                    name = f"s{seed}|{'+'.join(terms)}|{strategy.name}|{tag}"
                    payload[name] = record
    return payload


class TestStatsDeterminism:
    def test_query_stats_match_golden_digest(self):
        expected = json.loads(GOLDEN.read_text())
        actual = json.loads(json.dumps(stats_digest(), sort_keys=True))
        assert actual == expected

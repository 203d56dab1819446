"""Property suites for the runtime overhaul.

Three invariants the perf work must never bend:

* **Group-cancel semantics** — whatever interleaving of loose and
  grouped scheduling, partial draining, and group cancellation happens,
  a cancelled group never fires another callback, a cancel reports
  exactly the events it still held, cancelling is idempotent, and the sharded inbox merge
  fires exactly the live events in ``(time, inbox first, seq)`` order.
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

from oracle import pending
from test_dht_routing_step import reference_outcome

GOLDEN = Path(__file__).resolve().parent / "golden" / "runtime_stats_digest.json"


# ----------------------------------------------------------------------
# EventGroup cancellation semantics
# ----------------------------------------------------------------------

#: one program step: (action, operand) — the operand is a delay for the
#: schedules, an event budget for ``drain_some``, and picks one of three
#: groups for ``schedule_grouped``/``cancel_group``
group_ops = st.lists(
    st.tuples(
        st.sampled_from(["schedule", "schedule_grouped", "drain_some", "cancel_group"]),
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
        groups = [sim.group() for _ in range(3)]
        fired: list[int | None] = []
        fired_at_cancel: dict[int, int] = {}

        for action, operand in ops:
            which = operand % 3
            group = groups[which]
            if action == "schedule":
                sim.schedule(float(operand), lambda: fired.append(None))
            elif action == "schedule_grouped":
                before = pending(group)
                group.schedule(float(operand), lambda which=which: fired.append(which))
                assert pending(group) == before + (not group.cancelled)
            elif action == "drain_some":
                sim.run(max_events=operand)
            elif action == "cancel_group":
                live = pending(group)
                assert group.cancel() == live
                assert group.cancel() == 0  # idempotent: second is a no-op
                assert pending(group) == 0
                fired_at_cancel.setdefault(which, fired.count(which))

            assert pending(sim) >= sum(pending(group) for group in groups)

        sim.run()
        for which, count in fired_at_cancel.items():
            # Nothing of a group fires after its cancellation.
            assert fired.count(which) == count
        assert pending(sim) == 0
        assert all(pending(group) == 0 for group in groups)

    @given(
        delays=st.lists(st.floats(min_value=0.0, max_value=9.0), min_size=1, max_size=30)
    )
    @settings(max_examples=40)
    def test_group_cancel_reports_exactly_the_live_remainder(self, delays):
        sim = Simulator()
        group, other = sim.group(), sim.group()
        for delay in delays:
            group.schedule(delay, lambda: None)
            other.schedule(delay, lambda: None)
        fired = sim.run(max_events=len(delays))
        live_in_other = pending(other)
        assert group.cancel() == 2 * len(delays) - fired - live_in_other
        group.schedule(1.0, lambda: None)  # refused: the group is cancelled
        assert pending(group) == 0
        assert pending(other) == live_in_other
        assert sim.run() == live_in_other

    @given(
        heap=st.lists(
            st.tuples(st.integers(0, 8), st.integers(0, 2)), min_size=0, max_size=40
        ),
        arrivals=st.lists(st.integers(0, 8), min_size=0, max_size=20),
        doomed=st.sets(st.integers(1, 2)),
        until=st.one_of(st.none(), st.integers(0, 8)),
    )
    @settings(max_examples=60)
    def test_run_with_inbox_is_the_sorted_merge_of_live_events(
        self, heap, arrivals, doomed, until
    ):
        """``run_with_inbox`` fires exactly the live heap events and the
        inbox arrivals up to ``until``, in ``(time, inbox first, seq)``
        order — the reference is one sort of both."""
        sim = Simulator()
        groups = {1: sim.group(), 2: sim.group()}
        fired = []
        expected = []
        for seq, (time, owner) in enumerate(heap):
            target = sim if owner == 0 else groups[owner]
            target.schedule(float(time), lambda seq=seq: fired.append(("heap", seq)))
            if owner not in doomed:
                expected.append((time, 1, seq, ("heap", seq)))
        for which in doomed:
            groups[which].cancel()
        inbox = [(float(time), index) for index, time in enumerate(sorted(arrivals))]
        for time, index in inbox:
            expected.append((time, 0, index, ("inbox", index)))
        due = sorted(entry for entry in expected if until is None or entry[0] <= until)

        processed, index = sim.run_with_inbox(
            inbox, 0, lambda index: fired.append(("inbox", index)), until
        )
        assert fired == [event for *_, event in due]
        assert processed == len(due)
        assert index == sum(1 for _, from_heap, _, _ in due if not from_heap)
        assert pending(sim) == sum(
            1 for _, from_heap, _, _ in expected if from_heap
        ) - sum(1 for _, from_heap, _, _ in due if from_heap)


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
        network.lookup(keys[operand % len(keys)])
    elif kind == "put":
        key = keys[operand % 12]
        network.put_many(((key, f"v{operand}", None, 64, "dht.put"),))
        assert f"v{operand}" in network.get_local(network.owner_of(key), key)
    elif kind == "get":
        key = keys[operand % 12]
        try:
            values = network.get_raw(key, "dht.get")
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
    from dataclasses import replace

    from test_dataflow_equivalence import build_world, plan_for, queries_for, result_key

    from repro.pier.dataflow import DataflowExecutor
    from repro.pier.query import JoinStrategy

    payload: dict = {}
    for seed in seeds:
        rng, network, catalog = build_world(seed)
        unbatched = DataflowExecutor(network, catalog)
        batched = DataflowExecutor(network, catalog, rng=seed)
        for terms in queries_for(rng):
            query_node = network.random_node_id()
            for strategy in JoinStrategy:
                plan = plan_for(catalog, strategy, terms, query_node)
                for tag, executor, batch_size in (
                    ("unbatched", unbatched, None),
                    ("pipelined", batched, 2),
                ):
                    rows, stats = executor.execute(replace(plan, batch_size=batch_size))
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

"""Unit tests for the partitioned hybrid hash join's spill machinery.

Covers the memory-adaptive core of :class:`SymmetricHashJoin`: largest-
partition eviction, the per-partition spilled index that keeps
never-spilled probes free of sink reads, stay-spilled routing, role
reversal, incremental restore when the budget frees up, the compact
``(key, count)`` spill representation, and — in two interpreters with
different string-hash salts — that eviction surfaces a partition's keys
in arrival order. Answers are held to ``tests/oracle.py``'s nested-loop
reference on key multisets, and the DHT sink's once-per-partition
surface to its unbuffered ``ReferenceSpillSink`` after every call.
"""

import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.dht.network import DhtNetwork
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.pier.dataflow import _DhtSpillSink
from repro.pier.operators import (
    NUM_SPILL_PARTITIONS,
    SpillSink,
    SymmetricHashJoin,
    spill_partition,
)
from repro.pier.query import spill_stats_from_join

from oracle import ReferenceSpillSink, reference_match_counts


def keys_in_partition(pid, num_partitions, count, start=0):
    """The first ``count`` int keys >= ``start`` hashing to ``pid``."""
    found, key = [], start
    while len(found) < count:
        if spill_partition(key, num_partitions) == pid:
            found.append(key)
        key += 1
    return found


def make_join(budget, partitions=4):
    return SymmetricHashJoin(
        column="k", memory_budget=budget, num_partitions=partitions
    )


class TestPartitionedEviction:
    def test_overflow_evicts_only_the_largest_partition(self):
        join = make_join(budget=8)
        big = keys_in_partition(0, 4, 6)
        small = keys_in_partition(1, 4, 3)
        join.insert_keys("left", big + small)
        # 9 rows against a budget of 8: exactly one eviction, and it
        # takes the 6-row partition, leaving the 3-row one resident.
        assert join.partition_evictions == 1
        assert join.spilled_partitions["left"] == {0}
        assert join.spilled_rows == 6
        assert join._in_memory["left"] == 3

    def test_budgeted_join_below_budget_never_tracks_or_spills(self):
        join = make_join(budget=100)
        join.insert_keys("left", keys_in_partition(0, 4, 10))
        assert join.spilled_rows == 0
        # Partition bookkeeping is lazy: it only switches on at the
        # first overflow, so pre-spill inserts stay near-free.
        assert join._tracking is False

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            make_join(budget=0)
        with pytest.raises(ValueError):
            SymmetricHashJoin(column="k", num_partitions=0)
        with pytest.raises(ValueError):
            make_join(budget=4).set_memory_budget(0)


class TestSpilledIndexGatesReads:
    def test_never_spilled_probes_cost_zero_sink_reads(self):
        """Regression: before the partitioned rework, the first spill
        made *every* subsequent probe call into the sink."""
        join = make_join(budget=8)
        join.insert_keys("left", keys_in_partition(0, 4, 6))
        resident = keys_in_partition(1, 4, 3)
        join.insert_keys("left", resident)
        assert join.spilled_rows > 0
        # Probe only keys of the resident partition: matches come out of
        # memory, the sink is never consulted.
        for key in resident:
            assert join.insert_right_key(key) == 1
        assert join.spill_reads == 0

    def test_spilled_partition_probe_reads_sink(self):
        join = make_join(budget=8)
        spilled_keys = keys_in_partition(0, 4, 6)
        join.insert_keys("left", spilled_keys)
        join.insert_keys("left", keys_in_partition(1, 4, 3))
        assert join.insert_right_key(spilled_keys[0]) == 1
        assert join.spill_reads == 1


class TestStaySpilled:
    def test_later_rows_for_spilled_partition_route_to_sink(self):
        join = make_join(budget=8)
        keys = keys_in_partition(0, 4, 6)
        join.insert_keys("left", keys)
        join.insert_keys("left", keys_in_partition(1, 4, 3))
        assert join.spilled_partitions["left"] == {0}
        resident_before = join._in_memory["left"]
        spilled_before = join.spilled_rows
        late = keys_in_partition(0, 4, 1, start=10_000)[0]
        join.insert_left_key(late)
        # The spilled partition stayed spilled: the late row went
        # straight to the sink instead of refilling memory.
        assert join._in_memory["left"] == resident_before
        assert join.spilled_rows == spilled_before + 1
        # ...and it is still joinable.
        assert join.insert_right_key(late) == 1

    def test_refilling_partition_is_evicted_exactly_once(self):
        """Sixteen keys of one partition against a budget of four: the
        partition spills once and the rest of it routes to the sink (an
        all-or-nothing flush would refill and reflush, again and again)."""
        join = make_join(budget=4)
        join.insert_keys("left", keys_in_partition(0, 4, 16))
        assert join.partition_evictions == 1


class TestRoleReversal:
    def test_victim_side_flip_is_counted(self):
        join = make_join(budget=6)
        join.insert_keys("left", keys_in_partition(0, 4, 5))
        join.insert_keys("right", keys_in_partition(1, 4, 3, start=1000))
        assert join.role_reversals == 0
        # The right side now outgrows the left mid-stream: the next
        # eviction flips the victim side.
        join.insert_keys("right", keys_in_partition(2, 4, 9, start=2000))
        assert join.role_reversals >= 1
        assert join.spilled_partitions["right"]


class TestRestore:
    def test_loosening_budget_restores_partitions(self):
        join = make_join(budget=8)
        keys = keys_in_partition(0, 4, 6)
        join.insert_keys("left", keys)
        join.insert_keys("left", keys_in_partition(1, 4, 3))
        assert join.spilled_partitions["left"] == {0}
        join.set_memory_budget(64)
        assert join.partition_restores == 1
        assert join.spilled_partitions["left"] == set()
        assert join.spill_sink.partition_rows("left", 0) == 0
        # Restored rows match from memory again, without sink reads.
        assert join.insert_right_key(keys[0]) == 1
        assert join.spill_reads == 0

    def test_lifting_budget_restores_everything(self):
        join = make_join(budget=4)
        join.insert_keys("left", keys_in_partition(0, 4, 4))
        join.insert_keys("right", keys_in_partition(1, 4, 4, start=500))
        assert join.spilled_rows > 0
        join.set_memory_budget(None)
        assert join.spilled_partitions == {"left": set(), "right": set()}
        assert not join.spill_sink.has_spilled("left")
        assert not join.spill_sink.has_spilled("right")
        assert join.memory_budget is None

    def test_restore_hysteresis_never_triggers_eviction(self):
        """A restore fits in half the slack, so restoring can never push
        the join back over budget (no evict/restore ping-pong)."""
        join = make_join(budget=8)
        join.insert_keys("left", keys_in_partition(0, 4, 6))
        join.insert_keys("left", keys_in_partition(1, 4, 3))
        evictions = join.partition_evictions
        join.set_memory_budget(9)  # slack 6: the 6-row partition stays out
        assert join.partition_restores == 0
        join.set_memory_budget(15)  # slack 12: now it fits in half
        assert join.partition_restores == 1
        assert join.partition_evictions == evictions

    def test_tightening_budget_on_unbudgeted_join_spills(self):
        join = SymmetricHashJoin(column="k")
        assert join.spill_sink is None
        join.insert_keys("left", keys_in_partition(0, NUM_SPILL_PARTITIONS, 6))
        join.set_memory_budget(4)
        assert join.spill_sink is not None
        assert join.spilled_rows > 0
        assert join._in_memory["left"] <= 4


class TestKeysModeCompactSpill:
    def test_eviction_spills_one_entry_per_distinct_key(self):
        """Regression: keys-mode spill used to materialise one
        ``{column: key}`` dict per *multiplicity*."""
        join = make_join(budget=8)
        hot, cold = keys_in_partition(0, 4, 2)
        for _ in range(7):
            join.insert_left_key(hot)
        join.insert_left_key(cold)
        for key in keys_in_partition(1, 4, 1, start=100):
            join.insert_left_key(key)
        assert join.spilled_partitions["left"] == {0}
        assert join.spilled_rows == 8  # accounting still counts rows
        # The sink holds the compact (key, count) form: two entries.
        counts = join.spill_sink.take_counts("left", 0)
        assert counts == {hot: 7, cold: 1}

    def test_spilled_counts_still_match(self):
        join = make_join(budget=8)
        hot = keys_in_partition(0, 4, 1)[0]
        for _ in range(7):
            join.insert_left_key(hot)
        for key in keys_in_partition(1, 4, 2, start=100):
            join.insert_left_key(key)
        assert join.spilled_partitions["left"] == {0}
        assert join.insert_right_key(hot) == 7
        assert join.spill_reads == 1

    def test_keys_mode_budgeted_matches_unbudgeted(self):
        keys = [k % 5 for k in range(40)]
        free = SymmetricHashJoin(column="k")
        tight = make_join(budget=3)
        for key in keys:
            assert tight.insert_left_key(key) == free.insert_left_key(key)
            assert tight.insert_right_key(key + 1) == free.insert_right_key(key + 1)
        assert tight.spilled_rows > 0


class TestIteratorEquivalence:
    def test_partitioned_budgeted_matches_unbudgeted(self):
        """Both inputs interleaved round-robin, one key per call: every
        arrival completes the matches the nested-loop reference gives
        it, under any budget."""
        moves = [
            (side, index % modulus)
            for index in range(30)
            for side, modulus in (("left", 7), ("right", 5))
        ]
        expected = reference_match_counts(moves)
        assert sum(expected) == 132  # sum over keys of left x right multiplicity
        for budget in (None, 1, 2, 5, 17):
            join = SymmetricHashJoin(
                "k",
                memory_budget=budget,
                spill_sink=SpillSink("k") if budget else None,
                num_partitions=4,
            )
            counts = [join.insert_keys(side, (key,))[0] for side, key in moves]
            assert counts == expected, budget
            assert (join.spilled_rows > 0) == (budget is not None)


class SinkRun:
    """The slice of a dataflow query run a DHT spill sink reads."""

    query_id = 1

    def __init__(self, network):
        self.executor = SimpleNamespace(
            network=network, cost_model=network.cost_model, temp_namespace=""
        )
        self.metrics = MetricsRegistry()
        self.tracer = Tracer()
        self.span = self.tracer.begin("query")
        self.temp_keys = []

    def register_temp_key(self, site, key):
        self.temp_keys.append((site, key))


def twin_joins(budget, fan_out):
    """The same budgeted join twice, on twin networks: over the buffered
    production sink and over the unbuffered reference."""
    twins = []
    for sink_class in (_DhtSpillSink, ReferenceSpillSink):
        network = DhtNetwork(rng=3)
        network.populate(6)
        run = SinkRun(network)
        sink = sink_class(run, min(network.nodes), 1, "fileID")
        join = SymmetricHashJoin(
            "fileID", memory_budget=budget, spill_sink=sink, num_partitions=fan_out
        )
        twins.append((network, run, join))
    return twins


def observed(network, run, join):
    """Everything the two sinks must agree on after a join call: every
    store's buckets with identities, values and order, the sink's
    sequence and index, spill statistics, counters and span events."""
    sink = join.spill_sink
    return {
        "stores": [
            (node_id, [(key, list(bucket.items())) for key, bucket in node.store._data.items()])
            for node_id, node in sorted(network.nodes.items())
        ],
        "seq": sink._seq,
        "ring_keys": sink._ring_keys,
        "temp_keys": run.temp_keys,
        "parked": sink._counts,
        "totals": sink._part_totals,
        "stats": spill_stats_from_join(join),
        "restored_rows": sink.restored_rows,
        "spilled": join.spilled_partitions,
        "in_memory": join._in_memory,
        "counters": {
            name: run.metrics.counter(f"operator.spill.{name}").value
            for name in ("rows", "bytes", "orphan_rows", "restored_rows")
        },
        "events": [span.attrs for span in run.tracer.spans if span.name == "join.spill"],
    }


def surfaced(network, join):
    """``(pid, [key, ...])`` of every left partition's bucket at the site."""
    sink = join.spill_sink
    store = network.nodes[sink.site].store
    return [
        (pid, store.get(key))
        for (side, pid), key in sorted(sink._ring_keys.items())
        if side == "left" and store.get(key)
    ]


file_keys = st.integers(0, 23).map(lambda n: f"file{n:02d}")
sink_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("insert"),
            st.sampled_from(["left", "right"]),
            st.lists(file_keys, max_size=14),
        ),
        st.tuples(st.just("budget"), st.one_of(st.none(), st.integers(1, 16))),
        st.tuples(st.just("depart"), st.booleans()),
    ),
    max_size=24,
)


def departure_ops(graceful):
    """Spill, lose the site, spill on (orphans), then lift the budget."""
    files = [f"file{n:02d}" for n in range(24)]
    return [
        ("insert", "left", files[:12]),
        ("depart", graceful),
        ("insert", "left", files[6:18]),
        ("insert", "right", files[::2]),
        ("budget", None),
    ]


class TestSurfaceDifferential:
    """The buffered sink writes each partition once per join call; the
    store must read exactly as if every eviction and routed run had
    written at once."""

    @settings(max_examples=150, deadline=None)
    @given(ops=sink_ops, budget=st.integers(1, 12), fan_out=st.sampled_from([1, 2, 4, 8]))
    # The right call evicts a left partition (pending), then the larger
    # right partition, whose slack restores the left one in the same call.
    @example(
        ops=[
            ("insert", "left", ["file00", "file00", "file04", "file04"]),
            ("insert", "right", ["file00"] * 5),
        ],
        budget=6,
        fan_out=2,
    )
    # The site leaves with spilled buckets — handed to its successor, or
    # lost — and the join keeps spilling (orphans) and restoring.
    @example(ops=departure_ops(graceful=True), budget=4, fan_out=4)
    @example(ops=departure_ops(graceful=False), budget=4, fan_out=4)
    def test_once_per_partition_surface_equals_the_unbuffered_one(
        self, ops, budget, fan_out
    ):
        """Random key runs, tightened, loosened and lifted budgets, and a
        site that leaves (gracefully: its buckets move to the successor;
        or not: later spills are orphans) — after every call the two
        twins agree on everything :func:`observed` reads."""
        twins = twin_joins(budget, fan_out)
        for op in ops:
            results = []
            for network, run, join in twins:
                if op[0] == "insert":
                    results.append(join.insert_keys(op[1], op[2]))
                elif op[0] == "budget":
                    join.set_memory_budget(op[1])
                elif join.spill_sink.site in network.nodes:
                    network.remove_node(join.spill_sink.site, graceful=op[1])
            assert results[:1] == results[1:]
            assert observed(*twins[0]) == observed(*twins[1]), op

    def test_a_partition_restored_within_the_call_that_spilled_it(self):
        """One right-side call evicts left partition 0 (its keys go
        pending), then evicts a bigger right partition and so has the
        slack to restore left partition 0: the pending keys are dropped
        and nothing of it is left in the store — as the unbuffered sink
        wrote and then removed them."""
        twins = twin_joins(budget=10, fan_out=8)
        left = [keys_in_partition(pid, 8, 1, start=100)[0] for pid in range(6)]
        right = keys_in_partition(7, 8, 6, start=500)
        for network, run, join in twins:
            join.insert_keys("left", left)
            join.insert_keys("right", right[:4])
            assert join.partition_evictions == 0
            join.insert_keys("right", right[4:])
            # left p0 out, then right p7 out, then left p0 back in
            assert (join.partition_evictions, join.partition_restores) == (2, 1)
            assert join.spilled_partitions == {"left": set(), "right": {7}}
            assert join.role_reversals == 1
            assert surfaced(network, join) == []
        assert observed(*twins[0]) == observed(*twins[1])

    def test_tightening_the_budget_surfaces_before_the_call_returns(self):
        """``set_memory_budget`` evicts without an insert: its own flush
        writes the evicted partitions, with no later call to do it."""
        twins = twin_joins(budget=64, fan_out=4)
        keys = keys_in_partition(0, 4, 3) + keys_in_partition(1, 4, 5)
        for network, run, join in twins:
            join.insert_keys("left", keys)
            join.set_memory_budget(1)
            assert surfaced(network, join) == [(0, keys[:3]), (1, keys[3:])]
        assert observed(*twins[0]) == observed(*twins[1])

    def test_a_join_call_writes_each_partition_once(self, monkeypatch):
        """Sixteen keys of one partition under budget 4, in one call: the
        fifth evicts the partition and the last eleven route into it —
        one store write for all of it, where the unbuffered sink makes
        two (the eviction, then the routed run)."""
        puts = []
        put_local_many = DhtNetwork.put_local_many

        def recording(network, node_id, key, entries):
            puts.append(key)
            return put_local_many(network, node_id, key, entries)

        monkeypatch.setattr(DhtNetwork, "put_local_many", recording)
        keys = keys_in_partition(0, 4, 16)
        for (network, run, join), writes in zip(twin_joins(budget=4, fan_out=4), (1, 2)):
            puts.clear()
            join.insert_keys("left", keys)
            assert join.partition_evictions == 1
            assert puts == [join.spill_sink.ring_key("left", 0)] * writes
            assert surfaced(network, join) == [(0, keys)]


#: One budgeted two-term query over str fileIDs, sampled until it
#: completes: the last ``spill-{side}-p{pid}`` buckets seen in the join
#: sites' stores, as ``[stage, side, pid, [[identity, fileID], ...]]``
#: (the stored value *is* the fileID — the sink surfaces bare join keys),
#: then the run's ``SpillStats`` and ``operator.spill.*`` counters.
SURFACE_SCRIPT = """
import dataclasses, json
from repro.obs.metrics import MetricsRegistry
from repro.pier.dataflow import DataflowConfig, DataflowExecutor, temp_ring_key
from test_pier_dataflow import build_world, plan_for

network, catalog = build_world(num_files=60)
plan = plan_for(network, catalog, ["nebula", "quasar"], batch_size=4)
metrics = MetricsRegistry()
flow = DataflowExecutor(
    network,
    catalog,
    config=DataflowConfig(batch_size=4, memory_budget=3, hop_jitter=0.0),
    rng=11,
    metrics=metrics,
)
query = flow.submit(plan)
surface = []

def snapshot():
    if query.done:
        return
    surface[:] = [
        [stage, side, pid, [[seq, key] for seq, key in bucket.items()]]
        for stage, planned in enumerate(plan.stages)
        for side in ("left", "right")
        for pid in range(8)
        if (
            bucket := network.nodes[planned.site].store._data.get(
                temp_ring_key(1, stage, f"spill-{side}-p{pid}")
            )
        )
    ]
    flow.sim.schedule(0.05, snapshot)

flow.sim.schedule(0.05, snapshot)
flow.sim.run()
assert query.done and query.error is None
counters = {
    name: metrics.counter(f"operator.spill.{name}").value
    for name in ("rows", "bytes", "orphan_rows", "restored_rows")
}
print(json.dumps([surface, dataclasses.asdict(query.stats.spill), counters]))
"""

#: What that script printed on the commit *before* the surface went from
#: one ``{"fileID": key}`` dict per key to the bare key (fileIDs cut to
#: their first eight hex digits): same identities, same keys, same order,
#: same entry count per bucket — checked against the old path, not
#: against the new one's own output.
PARENT_SURFACE = [
    [1, "left", 0, [[27, "afb9ee54"], [33, "5536f21e"], [42, "2d769160"]]],
    [1, "left", 2, [[28, "c7877dab"], [30, "89201e89"], [34, "247d7f40"], [36, "5a55d1bb"]]],
    [1, "left", 3, [[26, "3a7b7fff"], [37, "276e6d37"]]],
    [1, "left", 4, [[43, "3d67d3d3"]]],
    [1, "left", 5, [[29, "478c610a"], [35, "8095717c"], [38, "624ac17a"]]],
    [1, "left", 7, [[31, "0b3defa1"], [32, "c4b68424"], [39, "f3fbd226"], [40, "370b628e"], [41, "956002fb"]]],
    [1, "right", 0, [[0, "a309f75c"], [1, "72b280e3"], [4, "9448359a"], [9, "5536f21e"], [10, "1542658d"], [19, "92e95236"]]],
    [1, "right", 2, [[5, "89201e89"], [8, "70743dfd"], [12, "9b886d96"], [13, "5a55d1bb"], [18, "f8fffc2c"], [22, "5b236026"], [23, "a5d837d8"]]],
    [1, "right", 4, [[6, "cd61f85c"], [7, "1d789e9e"], [11, "0350b034"]]],
    [1, "right", 5, [[14, "478c610a"], [15, "aeafd084"], [20, "624ac17a"]]],
    [1, "right", 6, [[16, "a0165433"], [17, "59c6bd72"], [25, "5222800f"]]],
    [1, "right", 7, [[2, "bed9edb4"], [3, "12ffda2b"], [21, "3cd744b1"], [24, "370b628e"]]],
]
PARENT_SPILL_STATS = {
    "spilled_tuples": 44,
    "spill_reads": 17,
    "spilled_bytes": 22528,
    "reread_bytes": 3584,
    "partition_evictions": 12,
    "partition_restores": 0,
    "role_reversals": 1,
    "orphan_rows": 0,
}
PARENT_SPILL_COUNTERS = {
    "rows": 44, "bytes": 22528, "orphan_rows": 0, "restored_rows": 0,
}


class TestEvictionOrder:
    def test_spill_surface_is_independent_of_the_string_hash_salt(self):
        """Eviction walks a partition in arrival order, so the keys a
        budgeted join surfaces in its site's store — and the identities
        they are stored under — are the same in two interpreters whose
        ``str`` hashes differ, and the same the per-key-dict surface of
        the parent commit held."""
        root = Path(__file__).resolve().parent.parent
        outputs = []
        for salt in ("0", "1"):
            env = dict(
                os.environ,
                PYTHONHASHSEED=salt,
                PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "tests")]),
            )
            done = subprocess.run(
                [sys.executable, "-c", SURFACE_SCRIPT],
                env=env,
                capture_output=True,
                text=True,
                check=True,
            )
            outputs.append(json.loads(done.stdout))
        assert outputs[0] == outputs[1]
        surface, spill_stats, counters = outputs[0]
        assert [
            [stage, side, pid, [[seq, key[:8]] for seq, key in bucket]]
            for stage, side, pid, bucket in surface
        ] == PARENT_SURFACE
        assert spill_stats == PARENT_SPILL_STATS
        assert counters == PARENT_SPILL_COUNTERS

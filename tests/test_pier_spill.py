"""Unit tests for the partitioned hybrid hash join's spill machinery.

Covers the memory-adaptive core of :class:`SymmetricHashJoin`: largest-
partition eviction, the per-partition spilled index that keeps
never-spilled probes free of sink reads, stay-spilled routing, role
reversal, incremental restore when the budget frees up, the compact
``(key, count)`` spill representation, and — in two interpreters with
different string-hash salts — that eviction surfaces a partition's keys
in arrival order. Answers are held to ``tests/oracle.py``'s nested-loop
reference on key multisets.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.pier.operators import (
    NUM_SPILL_PARTITIONS,
    SpillSink,
    SymmetricHashJoin,
    spill_partition,
)

from oracle import reference_match_counts


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

"""Unit and differential tests for a join site's memory-budgeted build.

A join site builds once on the posting list it stores
(:class:`StoredHashJoin`). Under a row budget it evicts whole partitions
of that list — the largest first, ties to the lowest partition id —
writes nothing (the rows are still in the site's store), and a query's
probe (:class:`JoinProbe`) charges each call one read and one scan of a
partition's rows for every evicted partition the call's keys land in.
Covered here: the eviction rule and its edges, the per-call accounting,
a hypothesis differential against ``tests/oracle.py``'s written-out
``reference_stored_join`` and ``nested_loop_join`` over key multisets ×
budget × arbitrary batch cuts, and — in interpreters with
different string-hash salts — that a budgeted query's evictions and
reads do not move.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.pier.operators import JoinProbe, StoredHashJoin, spill_partition

from oracle import nested_loop_join, reference_stored_join

ROW_BYTES = 512


def keys_in_partition(pid, count, start=0):
    """The first ``count`` int keys >= ``start`` hashing to ``pid``."""
    found, key = [], start
    while len(found) < count:
        if spill_partition(key) == pid:
            found.append(key)
        key += 1
    return found


def make_join(stored, budget):
    """One query's probe of a build on ``stored``."""
    return JoinProbe(StoredHashJoin(stored, memory_budget=budget, row_bytes=ROW_BYTES))


class TestPartitionedEviction:
    def test_overflow_evicts_only_the_largest_partition(self):
        big = keys_in_partition(0, 6)
        small = keys_in_partition(1, 3)
        # 9 rows against a budget of 8: one eviction, and it takes the
        # 6-row partition, leaving the 3-row one resident.
        join = make_join(big + small, budget=8)
        assert join.build.evicted == {0: 6}
        assert (join.build.partition_evictions, join.build.resident_rows) == (1, 3)

    def test_eviction_goes_on_until_the_rest_fits(self):
        join = make_join(keys_in_partition(0, 6) + keys_in_partition(1, 3), budget=2)
        assert list(join.build.evicted.items()) == [(0, 6), (1, 3)]
        assert join.build.resident_rows == 0

    def test_ties_go_to_the_lowest_partition_id(self):
        stored = keys_in_partition(3, 4) + keys_in_partition(1, 4)
        assert make_join(stored, budget=5).build.evicted == {1: 4}

    def test_a_duplicated_stored_key_counts_once_per_row(self):
        hot, cold = keys_in_partition(0, 2)
        join = make_join([hot] * 7 + [cold] + keys_in_partition(1, 1), budget=8)
        assert join.build.evicted == {0: 8}

    def test_within_budget_or_unbudgeted_evicts_nothing(self):
        stored = keys_in_partition(0, 10)
        for join in (make_join(stored, budget=10), make_join(stored, budget=None)):
            assert (join.build.evicted, join.build.resident_rows) == ({}, 10)
            join.probe(stored)
            assert (join.reads, join.reread_bytes) == (0, 0)

    def test_budgeted_join_below_budget_never_tracks_or_spills(self, monkeypatch):
        """Partitioning is lazy: a list within its budget never has a
        key's partition computed, neither at the build nor at a probe, so
        a budget that is never reached costs nothing."""

        def untracked(join, keys):
            raise AssertionError("partitioned a list within its budget")

        monkeypatch.setattr(StoredHashJoin, "_partitions", untracked)
        stored = keys_in_partition(0, 10)
        join = make_join(stored, budget=100)
        assert join.probe(stored + [10_001]) == stored
        assert (join.build.partition_evictions, join.reads) == (0, 0)

    def test_a_list_in_one_partition_goes_out_whole(self):
        """With every key in one partition there is nothing to choose: a
        list over budget goes out whole, and every probe call that brings
        a key landing there scans all of it once."""
        stored = keys_in_partition(0, 5)
        absent = keys_in_partition(0, 1, start=10_000)[0]
        join = make_join(stored, budget=4)
        assert (join.build.evicted, join.build.resident_rows) == ({0: 5}, 0)
        assert join.probe([stored[3], absent]) == [stored[3]]
        assert join.probe([absent]) == []
        assert (join.reads, join.reread_bytes) == (2, 10 * ROW_BYTES)

    def test_an_empty_stored_list_evicts_and_matches_nothing(self):
        join = make_join([], budget=1)
        assert (join.build.evicted, join.build.resident_rows) == ({}, 0)
        assert join.probe([1, "file01"]) == []
        assert join.reads == 0

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            make_join([1], budget=0)


class OnePartitionEvicted:
    """A nine-row list under a budget of eight: partition 0's six rows
    are evicted, partition 1's three stay resident."""

    def setup_method(self):
        self.spilled = keys_in_partition(0, 6)
        self.resident = keys_in_partition(1, 3)
        self.join = make_join(self.spilled + self.resident, budget=8)


class TestSpilledIndexGatesReads(OnePartitionEvicted):
    """Only the evicted partitions a probe call lands in are read."""

    def test_never_spilled_probes_cost_zero_sink_reads(self):
        """Probes that only land in resident partitions match from memory
        and read nothing, however many partitions were evicted."""
        assert self.join.build.evicted == {0: 6}
        assert self.join.probe(self.resident) == self.resident
        assert (self.join.reads, self.join.reread_bytes) == (0, 0)

    def test_spilled_partition_probe_reads_sink(self):
        """Three keys of the evicted partition in one call: one read, one
        scan of its six stored rows."""
        assert self.join.probe(self.spilled[:3]) == self.spilled[:3]
        assert (self.join.reads, self.join.reread_bytes) == (1, 6 * ROW_BYTES)


class TestProbeAccounting(OnePartitionEvicted):
    def test_a_miss_in_an_evicted_partition_still_scans_it(self):
        """Nothing but a scan tells a key is not in an evicted partition."""
        absent = keys_in_partition(0, 1, start=10_000)
        assert self.join.probe(absent) == []
        assert self.join.reads == 1

    def test_reads_are_per_call(self):
        for key in self.spilled[:3]:
            self.join.probe([key])
        assert (self.join.reads, self.join.reread_bytes) == (3, 18 * ROW_BYTES)

    def test_an_empty_probe_reads_nothing(self):
        assert self.join.probe([]) == []
        assert (self.join.reads, self.join.reread_bytes) == (0, 0)


class TestStaySpilled:
    def test_refilling_partition_is_evicted_exactly_once(self):
        """Sixteen keys of one partition against a budget of four: the
        partition is evicted once, at the build, and however many probes
        land in it afterwards it is only ever re-read, never refilled and
        evicted again (an all-or-nothing flush would reflush it)."""
        keys = keys_in_partition(0, 16)
        join = make_join(keys, budget=4)
        for key in keys:
            assert join.probe([key]) == [key]
        assert (join.build.partition_evictions, join.build.resident_rows) == (1, 0)
        assert (join.reads, join.reread_bytes) == (16, 16 * 16 * ROW_BYTES)


class TestKeysModeCompactSpill:
    """An evicted partition is kept as its row count alone: its keys stay
    in the site's store, and the count prices the scan that finds them."""

    def test_spilled_counts_still_match(self):
        hot = keys_in_partition(0, 1)[0]
        join = make_join([hot] * 7 + keys_in_partition(1, 2, start=100), budget=8)
        assert join.build.evicted == {0: 7}
        # A site keeps an arrival once, however often its list holds it;
        # the scan still reads all seven rows.
        assert join.probe([hot]) == [hot]
        assert (join.reads, join.reread_bytes) == (1, 7 * ROW_BYTES)

    def test_keys_mode_budgeted_matches_unbudgeted(self):
        stored = [k % 5 for k in range(40)]
        free, tight = JoinProbe(StoredHashJoin(stored)), make_join(stored, budget=3)
        for key in range(40):
            assert tight.probe([key % 7]) == free.probe([key % 7])
        assert tight.build.partition_evictions > 0 and tight.reads > 0


class TestIteratorEquivalence:
    def test_partitioned_budgeted_matches_unbudgeted(self):
        """Thirty arrivals over seven keys, one per call, against a list of
        five keys six times over: every call keeps what the nested-loop
        join gives it, under any budget, and only a budget evicts."""
        stored = [index % 5 for index in range(30)]
        arriving = [index % 7 for index in range(30)]
        distinct = [{"k": key} for key in dict.fromkeys(stored)]
        expected = [
            [row["k"] for row in nested_loop_join([{"k": key}], distinct, "k")]
            for key in arriving
        ]
        assert sum(map(len, expected)) == 22  # arrivals with a key below 5
        for budget in (None, 1, 2, 5, 17):
            join = make_join(stored, budget)
            assert [join.probe([key]) for key in arriving] == expected, budget
            assert (join.build.partition_evictions > 0) == (budget is not None)


def cut(keys, cuts):
    """``keys`` split before every index in ``cuts`` (one batch if none)."""
    bounds = [0] + sorted(c for c in cuts if 0 < c < len(keys)) + [len(keys)]
    return [keys[start:end] for start, end in zip(bounds, bounds[1:])]


join_keys = st.one_of(
    st.integers(0, 39), st.integers(0, 39).map(lambda n: f"file{n:02d}")
)
key_multisets = st.lists(join_keys, max_size=80)


class TestReferenceDifferential:
    @settings(max_examples=200, deadline=None)
    @given(
        stored=key_multisets,
        arriving=key_multisets,
        budget=st.sampled_from([None, 1, 8, 32]),
        cuts=st.sets(st.integers(1, 79)),
    )
    # Two partitions of three rows each against a budget of three: the tie
    # goes to the lower id, and only that partition goes.
    @example(
        stored=keys_in_partition(5, 3) + keys_in_partition(2, 3),
        arriving=keys_in_partition(5, 1) + keys_in_partition(2, 1, start=10_000),
        budget=3,
        cuts=set(),
    )
    def test_matches_and_accounting_equal_the_references(
        self, stored, arriving, budget, cuts
    ):
        """Each batch keeps the rows the nested-loop join of the batch
        with the stored list's distinct keys gives, and evictions, reads
        and re-read bytes are the written-out reference's. Evictions are
        a function of the stored list alone, so no cut moves them; reads
        are charged per probe call by design, so a cut moves them — never
        below one call over the whole stream."""
        batches = cut(arriving, cuts)
        join = make_join(stored, budget)
        matched = [join.probe(batch) for batch in batches]
        distinct = [{"k": key} for key in dict.fromkeys(stored)]
        for batch, kept in zip(batches, matched):
            rows = nested_loop_join([{"k": key} for key in batch], distinct, "k")
            assert kept == [row["k"] for row in rows]
        expected, evicted, reads, reread_rows = reference_stored_join(
            stored, batches, budget
        )
        assert matched == expected
        assert list(join.build.evicted.items()) == list(evicted.items())
        assert (join.reads, join.reread_bytes) == (reads, reread_rows * ROW_BYTES)
        assert join.build.resident_rows == len(stored) - sum(evicted.values())
        if budget is not None:
            assert join.build.resident_rows <= budget
        whole = make_join(stored, budget)
        whole.probe(arriving)
        assert whole.build.evicted == join.build.evicted
        assert whole.reads <= join.reads


#: One budgeted two-term query over str fileIDs, batched and drained:
#: the partitions its join site evicted, its ``SpillStats`` and its
#: answer count.
EVICTION_SCRIPT = """
import dataclasses, json
from repro.pier import operators
from repro.pier.dataflow import DataflowExecutor
from oracle import steady_hops
from test_pier_dataflow import build_world, plan_for

evicted = []
init = operators.StoredHashJoin.__init__

def recording(join, *args, **kwargs):
    init(join, *args, **kwargs)
    evicted.append(list(join.evicted.items()))

operators.StoredHashJoin.__init__ = recording
network, catalog = build_world(num_files=60)
steady_hops(network)
plan = plan_for(network, catalog, ["nebula", "quasar"], batch_size=4)
flow = DataflowExecutor(network, catalog, memory_budget=3, rng=11)
rows, stats = flow.execute(plan)
print(json.dumps([evicted, dataclasses.asdict(stats.spill), len(rows)]))
"""


class TestEvictionOrder:
    def test_evictions_and_reads_are_independent_of_the_string_hash_salt(self):
        """Partitions hash fileIDs with CRC32, not the salted ``str``
        hash, so the partitions a budgeted query evicts, and the reads its
        probes pay, are the same in interpreters whose hashes differ."""
        root = Path(__file__).resolve().parent.parent
        outputs = []
        for salt in ("0", "1", "2"):
            env = dict(
                os.environ,
                PYTHONHASHSEED=salt,
                PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "tests")]),
            )
            done = subprocess.run(
                [sys.executable, "-c", EVICTION_SCRIPT],
                env=env,
                capture_output=True,
                text=True,
                check=True,
            )
            outputs.append(json.loads(done.stdout))
        assert outputs[0] == outputs[1] == outputs[2]
        evicted, spill, answers = outputs[0]
        assert answers > 0
        assert len(evicted) == 1 and evicted[0]
        assert spill["partition_evictions"] == len(evicted[0])
        assert spill["spill_reads"] > 0 and spill["reread_bytes"] > 0

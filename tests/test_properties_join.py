"""Property suite: a memory budget must never change a join's answers.

Pins the core guarantee of the partitioned hybrid hash join — spill,
stay-spilled routing, restore and role reversal are pure
memory-for-re-reads trades — across partition fan-outs, arbitrary
arrival interleavings, mid-stream re-budgeting, and whole plans on the
dataflow (budgeted vs unbudgeted), against the unbudgeted join and
against ``tests/oracle.py``'s nested-loop reference on key multisets,
plus the accounting invariants that tie ``QueryStats`` spill bytes to
row counts. The key path is set-at-a-time, so the suite also pins
**chunking invariance**: how a key sequence is cut into ``insert_keys``
calls changes no count, no spill statistic and no sink content.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dht.network import DhtNetwork
from repro.pier.catalog import Catalog
from repro.pier.dataflow import DataflowConfig, DataflowExecutor
from repro.pier.operators import SpillSink, SymmetricHashJoin
from repro.pier.planner import KeywordPlanner
from repro.pier.query import spill_stats_from_join
from repro.piersearch.publisher import Publisher

from oracle import oracle_items, reference_match_counts

WORDS = ["nebula", "quasar", "aurora", "meteor"]

#: (side, key) arrival interleavings over a small, collision-rich key
#: space — small keys maximise duplicate multiplicities and partition
#: collisions, which is where spill bookkeeping can go wrong
interleavings = st.lists(
    st.tuples(st.sampled_from(["left", "right"]), st.integers(0, 9)),
    min_size=1,
    max_size=60,
)

budgets = st.integers(min_value=1, max_value=12)
fan_outs = st.sampled_from([1, 2, 4, 8])

#: mid-stream budget changes: (apply at insert index, new budget where
#: None lifts the budget entirely)
rebudgets = st.lists(
    st.tuples(st.integers(0, 59), st.one_of(st.none(), st.integers(1, 12))),
    max_size=3,
)

ROW_BYTES = 512


def make_budgeted(budget, fan_out):
    return SymmetricHashJoin(
        column="k",
        memory_budget=budget,
        spill_sink=SpillSink("k", row_bytes=ROW_BYTES),
        num_partitions=fan_out,
    )


def assert_accounting_invariants(join):
    """Spill accounting is internally consistent in bytes and rows."""
    sink = join.spill_sink
    assert join.spilled_rows == sink.spilled_rows
    assert join.spilled_bytes == sink.spilled_rows * ROW_BYTES
    # ``reread_bytes`` charges per row *returned* (read amplification),
    # so it is a whole number of rows and implies at least one read.
    assert join.reread_bytes == sink.reread_bytes
    assert join.reread_bytes % ROW_BYTES == 0
    if join.reread_bytes:
        assert sink.reads > 0
    assert join.restored_rows == sink.restored_rows
    assert sink.orphan_rows == 0  # no churn at the operator level


class TestOperatorEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(moves=interleavings, budget=budgets, fan_out=fan_outs)
    def test_budgeted_matches_nested_loop_reference(self, moves, budget, fan_out):
        tight = make_budgeted(budget, fan_out)
        counts = [tight.insert_keys(side, (key,))[0] for side, key in moves]
        # Every insert completes the matches the reference gives it,
        # spilled or not.
        assert counts == reference_match_counts(moves)
        assert_accounting_invariants(tight)

    @settings(max_examples=60, deadline=None)
    @given(moves=interleavings, budget=budgets, fan_out=fan_outs)
    def test_keys_mode_budgeted_matches_unbudgeted(self, moves, budget, fan_out):
        free = SymmetricHashJoin(column="k")
        tight = make_budgeted(budget, fan_out)
        for side, key in moves:
            if side == "left":
                assert tight.insert_left_key(key) == free.insert_left_key(key)
            else:
                assert tight.insert_right_key(key) == free.insert_right_key(key)
        assert_accounting_invariants(tight)

    @settings(max_examples=60, deadline=None)
    @given(
        moves=interleavings,
        budget=budgets,
        fan_out=fan_outs,
        changes=rebudgets,
    )
    def test_rebudgeting_midstream_preserves_answers(
        self, moves, budget, fan_out, changes
    ):
        """Tightening, loosening or lifting the budget between arbitrary
        inserts (forcing evict/restore interleavings) never changes a
        single match."""
        schedule = dict(changes)
        tight = make_budgeted(budget, fan_out)
        counts = []
        for index, (side, key) in enumerate(moves):
            if index in schedule:
                tight.set_memory_budget(schedule[index])
            counts.extend(tight.insert_keys(side, (key,)))
        # Lifting the budget at the end restores everything: no spilled
        # partitions survive, and the tables answer from memory alone.
        tight.set_memory_budget(None)
        assert tight.spilled_partitions == {"left": set(), "right": set()}
        probe_key = moves[0][1]
        counts.append(tight.insert_right_key(probe_key))
        assert counts == reference_match_counts(moves + [("right", probe_key)])


def feed(join, moves, cuts=()):
    """Feed ``(side, key)`` arrivals through ``insert_keys``, one call per
    same-side run, with extra call boundaries before every index in
    ``cuts``. Returns the per-arrival match counts, flattened."""
    counts = []
    start = 0
    for index in range(1, len(moves) + 1):
        if (
            index == len(moves)
            or index in cuts
            or moves[index][0] != moves[start][0]
        ):
            keys = [key for _, key in moves[start:index]]
            counts.extend(join.insert_keys(moves[start][0], keys))
            start = index
    return counts


def spill_state(join):
    """Everything a chunking must not change: spill statistics, peaks,
    resident tables, spilled-partition sets and the sink's contents."""
    sink = join.spill_sink
    return {
        "stats": spill_stats_from_join(join),
        "restored_rows": join.restored_rows,
        "peaks": (join.peak_left_table, join.peak_right_table),
        "resident": join._key_tables,
        "in_memory": join._in_memory,
        "spilled_partitions": join.spilled_partitions,
        "sink_counts": sink._counts,
        "sink_totals": sink._part_totals,
    }


class TestChunkingInvariance:
    @settings(max_examples=120, deadline=None)
    @given(
        moves=st.lists(
            st.tuples(st.sampled_from(["left", "right"]), st.integers(0, 39)),
            min_size=1,
            max_size=80,
        ),
        spread=st.integers(min_value=1, max_value=40),
        budget=budgets,
        fan_out=fan_outs,
        cuts=st.sets(st.integers(1, 79)),
    )
    def test_any_split_of_a_key_sequence_spills_identically(
        self, moves, spread, budget, fan_out, cuts
    ):
        """One call per same-side run, one call per key, and any split in
        between are the same join: equal match counts, ``SpillStats``,
        peaks, sink contents and spilled partitions. ``spread`` folds the
        key space, so a small one is heavy skew (1 = a single hot key)."""
        moves = [(side, key % spread) for side, key in moves]
        per_key = make_budgeted(budget, fan_out)
        reference = feed(per_key, moves, cuts=range(len(moves)))
        for split in ((), cuts):
            join = make_budgeted(budget, fan_out)
            assert feed(join, moves, cuts=split) == reference
            assert spill_state(join) == spill_state(per_key)
            assert_accounting_invariants(join)
        # The budget never changes an answer, whatever the split.
        assert feed(SymmetricHashJoin(column="k"), moves) == reference

    @settings(max_examples=120, deadline=None)
    @given(
        moves=st.lists(
            st.tuples(st.sampled_from(["left", "right"]), st.integers(0, 39)),
            min_size=2,
            max_size=80,
        ),
        spread=st.integers(min_value=1, max_value=40),
        budget=budgets,
        fan_out=fan_outs,
        cuts=st.sets(st.integers(1, 79)),
        loosen_at=st.integers(1, 79),
    )
    def test_a_partition_re_evicted_after_a_restore_spills_identically(
        self, moves, spread, budget, fan_out, cuts, loosen_at
    ):
        """Loosen the budget mid-stream (spilled partitions restore: the
        sink gives their mappings back), tighten it again (they are
        evicted afresh: the sink adopts new mappings under the same
        partition ids), and carry on. Whatever the chunking, the sink ends
        up with the same contents — an adopted mapping is never one the
        join still writes to, and never a stale one."""
        moves = [(side, key % spread) for side, key in moves]
        loosen_at = min(loosen_at, len(moves) - 1)

        def run(join, cuts):
            counts = feed(join, moves[:loosen_at], cuts)
            join.set_memory_budget(64)
            join.set_memory_budget(budget)
            later = {cut - loosen_at for cut in cuts if cut > loosen_at}
            return counts + feed(join, moves[loosen_at:], later)

        per_key = make_budgeted(budget, fan_out)
        reference = run(per_key, range(len(moves)))
        assert reference == reference_match_counts(moves)
        for split in ((), cuts):
            join = make_budgeted(budget, fan_out)
            assert run(join, split) == reference
            assert spill_state(join) == spill_state(per_key)
            assert_accounting_invariants(join)

    def test_write_counts_hands_the_evicted_mapping_over(self):
        """``SpillSink.write_counts`` adopts the mapping it is given (no
        copy, no merge) and ``take_counts`` gives the same object back; a
        restore/re-evict round trip parks a fresh mapping under the same
        partition id."""
        sink = SpillSink("k", row_bytes=ROW_BYTES)
        evicted = {1: 2, 5: 1}
        sink.write_counts("left", 0, evicted, 3)
        assert sink._counts["left"][0] is evicted  # handed over, not copied
        assert (sink.partition_rows("left", 0), sink.spilled_rows) == (3, 3)
        assert sink.spilled_bytes == 3 * ROW_BYTES
        assert sink.take_counts("left", 0) is evicted
        assert (sink.partition_rows("left", 0), sink.restored_rows) == (0, 3)

        join = make_budgeted(4, 1)
        join.insert_keys("left", [1, 2, 3, 4, 5])
        first = join.spill_sink._counts["left"][0]
        assert first == {1: 1, 2: 1, 3: 1, 4: 1, 5: 1}
        join.set_memory_budget(64)
        assert (join.partition_restores, join.spill_sink._counts["left"]) == (1, {})
        join.insert_keys("left", [6])
        join.set_memory_budget(4)
        again = join.spill_sink._counts["left"][0]
        assert again is not first and list(again) == [1, 2, 3, 4, 5, 6]
        assert (join.partition_evictions, join.spilled_rows) == (2, 11)

    @pytest.mark.parametrize("cuts", [(), range(160)], ids=["bulk", "per-key"])
    def test_pinned_numbers_of_the_per_key_path(self, cuts):
        """Regression pin: 128 distinct keys built under budget 32 over 8
        partitions, then a 32-key probe (16 hits, 16 misses). The expected
        numbers were recorded from the tuple-at-a-time path this PR's
        parent commit still had, before that path was deleted."""
        keys = [f"file{i:04d}" for i in range(128)]
        probe = keys[::8] + [f"miss{i:04d}" for i in range(16)]
        join = make_budgeted(32, 8)
        moves = [("right", key) for key in keys] + [("left", key) for key in probe]
        counts = feed(join, moves, cuts=cuts)
        assert counts == [0] * 128 + [1] * 16 + [0] * 16
        sink = join.spill_sink
        assert (sink.spilled_rows, sink.spilled_bytes) == (132, 67584)
        assert (sink.reads, sink.reread_bytes, sink.restored_rows) == (28, 7168, 0)
        assert (join.partition_evictions, join.partition_restores) == (11, 0)
        assert join.role_reversals == 1
        assert (join.peak_left_table, join.peak_right_table) == (18, 33)
        assert join.spilled_partitions == {
            "left": {1, 2, 3, 5},
            "right": {0, 1, 2, 3, 4, 5, 6},
        }
        parked = {
            side: [sink.partition_rows(side, pid) for pid in range(8)]
            for side in ("left", "right")
        }
        assert parked == {
            "left": [0, 5, 4, 5, 0, 5, 0, 0],
            "right": [15, 15, 17, 17, 17, 17, 15, 0],
        }
        assert join._in_memory == {"left": 13, "right": 15}


def build_world(seed, num_files=30, nodes=20):
    network = DhtNetwork(rng=seed)
    network.populate(nodes)
    catalog = Catalog(network)
    publisher = Publisher(network, catalog)
    rng = random.Random(seed + 1)
    for index in range(num_files):
        name = f"{rng.choice(WORDS)} {rng.choice(WORDS)} track{index:03d}.mp3"
        publisher.publish_file(name, 1000 + index, f"10.0.0.{index}", 6346)
    return network, catalog


class TestRuntimeEquivalence:
    """Budgeted execution matches the oracle answer-for-answer — and,
    batch-for-batch, spilling charges no wire bytes over the unbudgeted
    run (spill copies are site-local storage accounting)."""

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        budget=st.sampled_from([1, 2, 3, 5, 8]),
    )
    def test_budget_changes_no_answer_and_no_wire_byte(self, seed, budget):
        network, catalog = build_world(seed)
        plan = KeywordPlanner(catalog).plan(
            ["nebula", "quasar"], network.random_node_id()
        )
        plan.batch_size = None
        unbudgeted = DataflowExecutor(
            network, catalog, config=DataflowConfig(batch_size=None), rng=seed
        )
        _, stats_free = unbudgeted.execute(plan)
        budgeted = DataflowExecutor(
            network,
            catalog,
            config=DataflowConfig(batch_size=None, memory_budget=budget),
            rng=seed,
        )
        rows_flow, stats_flow = budgeted.execute(plan)
        key = lambda rs: sorted(sorted(r.items()) for r in rs)
        assert key(rows_flow) == key(oracle_items(catalog, plan.keywords))
        # QueryStats byte invariant: a memory budget adds spill/re-read
        # *accounting*, never wire bytes.
        assert stats_flow.bytes == stats_free.bytes
        if stats_flow.pipeline.spilled_tuples:
            spill = stats_flow.spill
            assert spill is not None
            row_bytes = budgeted.cost_model.spill_tuple_bytes()
            assert spill.spilled_bytes == spill.spilled_tuples * row_bytes
            # Re-read bytes charge per row *returned* (read
            # amplification), not per read call, so they are a whole
            # number of rows and imply at least one sink read.
            assert spill.reread_bytes % row_bytes == 0
            if spill.reread_bytes:
                assert spill.spill_reads > 0

"""Property suite: a memory budget must never change a join's answers.

Pins the core guarantee of a join site's budgeted build
(:class:`StoredHashJoin`) — evicting partitions of the stored list trades
memory for re-reads and nothing else — across budgets,
collision-rich key multisets and arbitrary arrival sequences, against the
unbudgeted build and ``tests/oracle.py``'s nested-loop reference, plus
the accounting invariants that tie re-read bytes to whole stored rows.
It also pins **chunking invariance**: how an arrival sequence is cut
into probe calls moves no match and no eviction, and moves reads only
the one way (a finer cut never reads less). The written-out accounting
differential lives in ``tests/test_pier_spill.py``. This suite lifts the
guarantee to whole plans on the dataflow: a budgeted run answers exactly
as ``tests/oracle.py``'s plan-free reference and ships exactly the
unbudgeted run's wire bytes.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dht.network import DhtNetwork
from repro.pier.catalog import Catalog
from repro.pier.dataflow import DataflowExecutor
from repro.pier.operators import JoinProbe, StoredHashJoin
from repro.pier.planner import KeywordPlanner
from repro.pier.query import JoinStrategy
from repro.piersearch.publisher import Publisher

from oracle import nested_loop_join, oracle_items, reference_stored_join

WORDS = ["nebula", "quasar", "aurora", "meteor"]

#: key multisets over a small, collision-rich key space — small keys
#: maximise duplicate multiplicities and partition collisions, which is
#: where eviction bookkeeping can go wrong
key_lists = st.lists(st.integers(0, 9), max_size=60)

budgets = st.integers(min_value=1, max_value=12)

ROW_BYTES = 512


def make_budgeted(stored, budget):
    """One query's probe of a budgeted build on ``stored``."""
    return JoinProbe(StoredHashJoin(stored, memory_budget=budget, row_bytes=ROW_BYTES))


def assert_accounting_invariants(join, stored, budget):
    """Eviction and re-read accounting is consistent in rows and bytes."""
    assert join.build.resident_rows + sum(join.build.evicted.values()) == len(stored)
    assert join.build.resident_rows <= budget
    assert all(rows > 0 for rows in join.build.evicted.values())
    # A read scans one whole evicted partition: re-read bytes are a whole
    # number of stored rows, at least one per read.
    assert join.reread_bytes % ROW_BYTES == 0
    assert join.reread_bytes >= join.reads * ROW_BYTES
    assert (join.reads > 0) <= (join.build.partition_evictions > 0)


def probe_in_cuts(join, keys, cuts):
    """Probe ``keys`` in one call per run between the indices in
    ``cuts``; the matches, flattened."""
    bounds = [0] + sorted(c for c in cuts if 0 < c < len(keys)) + [len(keys)]
    matched = []
    for start, end in zip(bounds, bounds[1:]):
        matched.extend(join.probe(keys[start:end]))
    return matched


class TestOperatorEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(stored=key_lists, arriving=key_lists, budget=budgets)
    def test_budgeted_matches_nested_loop_reference(
        self, stored, arriving, budget
    ):
        """Each arrival, probed alone, keeps exactly the rows the
        nested-loop join of it with the stored list's distinct keys
        gives, evicted partition or not."""
        tight = make_budgeted(stored, budget)
        distinct = [{"k": key} for key in dict.fromkeys(stored)]
        for key in arriving:
            rows = nested_loop_join([{"k": key}], distinct, "k")
            assert tight.probe([key]) == [row["k"] for row in rows]
        assert_accounting_invariants(tight, stored, budget)

    @settings(max_examples=60, deadline=None)
    @given(stored=key_lists, arriving=key_lists, budget=budgets)
    def test_keys_mode_budgeted_matches_unbudgeted(
        self, stored, arriving, budget
    ):
        free = JoinProbe(StoredHashJoin(stored))
        tight = make_budgeted(stored, budget)
        assert tight.probe(arriving) == free.probe(arriving)
        for key in arriving:
            assert tight.probe([key]) == free.probe([key])
        assert (free.reads, free.build.partition_evictions) == (0, 0)
        assert (tight.build.partition_evictions > 0) == (len(stored) > budget)
        assert_accounting_invariants(tight, stored, budget)


class TestChunkingInvariance:
    @settings(max_examples=120, deadline=None)
    @given(
        stored=st.lists(st.integers(0, 39), max_size=80),
        arriving=st.lists(st.integers(0, 39), min_size=1, max_size=80),
        spread=st.integers(min_value=1, max_value=40),
        budget=budgets,
        cuts=st.sets(st.integers(1, 79)),
    )
    def test_any_split_of_a_key_sequence_spills_identically(
        self, stored, arriving, spread, budget, cuts
    ):
        """One call for the whole sequence, one call per key, and any split
        in between are the same join: equal matches, evictions and
        resident rows. Reads are charged per call, so a finer cut reads
        at least as much as the coarser one it refines — the whole
        sequence least, one key per call most. ``spread`` folds the key
        space, so a small one is heavy skew (1 = a single hot key)."""
        stored = [key % spread for key in stored]
        arriving = [key % spread for key in arriving]
        per_key = make_budgeted(stored, budget)
        reference = probe_in_cuts(per_key, arriving, range(len(arriving)))
        bulk = make_budgeted(stored, budget)
        split = make_budgeted(stored, budget)
        assert probe_in_cuts(bulk, arriving, ()) == reference
        assert probe_in_cuts(split, arriving, cuts) == reference
        for join in (bulk, split):
            assert list(join.build.evicted.items()) == list(per_key.build.evicted.items())
            assert join.build.resident_rows == per_key.build.resident_rows
            assert_accounting_invariants(join, stored, budget)
        assert bulk.reads <= split.reads <= per_key.reads
        assert bulk.reread_bytes <= split.reread_bytes <= per_key.reread_bytes
        # The budget never changes an answer, whatever the split.
        assert probe_in_cuts(JoinProbe(StoredHashJoin(stored)), arriving, cuts) == reference

    @pytest.mark.parametrize("per_call", [128, 1], ids=["bulk", "per-key"])
    def test_pinned_numbers_of_the_per_key_path(self, per_call):
        """Regression pin: 128 distinct keys built under budget 32 over 8
        partitions, then a 32-key probe (16 hits, 16 misses) in one call
        or one call per key. Six partitions go, largest first and ties to
        the lowest id, leaving two of 15 rows; the numbers also equal
        ``reference_stored_join``'s."""
        keys = [f"file{i:04d}" for i in range(128)]
        probe = keys[::8] + [f"miss{i:04d}" for i in range(16)]
        join = make_budgeted(keys, 32)
        batches = [probe[i : i + per_call] for i in range(0, len(probe), per_call)]
        assert [key for batch in batches for key in join.probe(batch)] == keys[::8]
        evicted = [(2, 17), (3, 17), (4, 17), (5, 17), (0, 15), (1, 15)]
        assert list(join.build.evicted.items()) == evicted
        assert (join.build.partition_evictions, join.build.resident_rows) == (6, 30)
        reads, reread_rows = {128: (6, 98), 1: (24, 394)}[per_call]
        assert (join.reads, join.reread_bytes) == (reads, reread_rows * ROW_BYTES)
        assert reference_stored_join(keys, batches, 32)[1:] == (
            dict(evicted),
            reads,
            reread_rows,
        )


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
    run (re-reading evicted rows is site-local accounting)."""

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        budget=st.sampled_from([1, 2, 3, 5, 8]),
    )
    def test_budget_changes_no_answer_and_no_wire_byte(self, seed, budget):
        network, catalog = build_world(seed)
        plan = KeywordPlanner(catalog).plan(
            ["nebula", "quasar"],
            network.random_node_id(),
            strategy=JoinStrategy.DISTRIBUTED_JOIN,
        )
        plan.batch_size = None
        unbudgeted = DataflowExecutor(network, catalog, rng=seed)
        _, stats_free = unbudgeted.execute(plan)
        budgeted = DataflowExecutor(network, catalog, memory_budget=budget, rng=seed)
        rows_flow, stats_flow = budgeted.execute(plan)
        key = lambda rs: sorted(sorted(r.items()) for r in rs)
        assert key(rows_flow) == key(oracle_items(catalog, plan.keywords))
        # QueryStats byte invariant: a memory budget adds re-read
        # *accounting*, never wire bytes.
        assert stats_flow.bytes == stats_free.bytes
        assert stats_free.spill is None
        spill = stats_flow.spill
        # A read scans a whole evicted partition, so re-read bytes are a
        # whole number of stored rows, at least one per read.
        row_bytes = budgeted.cost_model.spill_tuple_bytes()
        assert spill.reread_bytes % row_bytes == 0
        assert spill.reread_bytes >= spill.spill_reads * row_bytes
        assert (spill.spill_reads > 0) <= (spill.partition_evictions > 0)
        # The join site evicts exactly when the list it stores is over.
        assert (spill.partition_evictions > 0) == (stats_flow.per_stage_entries[-1] > budget)

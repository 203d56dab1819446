"""The reducers every reported number passes through, on synthetic input."""

import math

import pytest

from bench.reducers import (
    LAYERS,
    QueryRecord,
    attribute_layers,
    count_failed_queries,
    layer_of,
    percentile,
    sim_digest,
    summarize,
)

# ----------------------------------------------------------------------
# Percentile rule and summaries
# ----------------------------------------------------------------------


def test_percentile_is_nearest_rank_and_always_a_sample():
    values = list(range(1, 101))
    assert percentile(values, 0.50) == 50
    assert percentile(values, 0.95) == 95
    assert percentile(values, 1.0) == 100
    # 20 samples: rank ceil(0.95 * 20) = 19, never an interpolated value
    assert percentile([float(v) for v in range(20)], 0.95) == 18.0
    assert percentile([7.5], 0.95) == 7.5
    assert percentile([3, 1, 2], 0.5) == 2  # order of the input is irrelevant


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile([1.0], 0.0)
    with pytest.raises(ValueError):
        percentile([1.0], 1.5)


def test_summary_reports_quartiles_min_and_count():
    summary = summarize([4.0, 1.0, 3.0, 2.0, 5.0])
    assert summary.median == 3.0
    assert summary.minimum == 1.0
    assert summary.count == 5
    assert summary.q1 < summary.median < summary.q3
    assert summary.iqr_share == pytest.approx((summary.q3 - summary.q1) / 3.0)
    single = summarize([2.5])
    assert (single.median, single.q1, single.q3, single.count) == (2.5, 2.5, 2.5, 1)


# ----------------------------------------------------------------------
# Digest
# ----------------------------------------------------------------------


def test_digest_is_stable_for_equal_rows():
    rows = [(0.25, ("a", "b"), 3, True, math.inf), (1.5, ("c",), 0, False, 2.0)]
    assert sim_digest(rows) == sim_digest([tuple(row) for row in rows])
    assert sim_digest(iter(rows)) == sim_digest(rows)


def test_digest_moves_with_one_ulp_one_count_or_row_order():
    base = [(0.3, 4, False), (1.0, 5, True)]
    assert sim_digest(base) != sim_digest([(0.1 + 0.2, 4, False), (1.0, 5, True)])
    assert sim_digest(base) != sim_digest([(0.3, 5, False), (1.0, 5, True)])
    assert sim_digest(base) != sim_digest(list(reversed(base)))
    # a flag is not the integer it compares equal to
    assert sim_digest([(1,)]) != sim_digest([(True,)])
    # nested rows keep their boundaries
    assert sim_digest([((1, 2), 3)]) != sim_digest([(1, (2, 3))])


# ----------------------------------------------------------------------
# Failure counting
# ----------------------------------------------------------------------


def test_failed_queries_are_unresolved_or_silently_lost():
    answered = QueryRecord(done=True, target_published=True, total_results=2, degraded=False)
    unresolved = QueryRecord(done=False, target_published=True, total_results=0, degraded=False)
    silent = QueryRecord(done=True, target_published=True, total_results=0, degraded=False)
    flagged = QueryRecord(done=True, target_published=True, total_results=0, degraded=True)
    absent = QueryRecord(done=True, target_published=False, total_results=0, degraded=False)
    assert count_failed_queries([answered, flagged, absent]) == 0
    assert count_failed_queries([answered, unresolved, silent, flagged, absent]) == 2
    assert count_failed_queries([]) == 0


# ----------------------------------------------------------------------
# Layer attribution
# ----------------------------------------------------------------------

PIER = ("/x/src/repro/pier/dataflow.py", 10, "process_batch")
DHT = ("/x/src/repro/dht/network.py", 20, "lookup")
BUILTIN_LEN = ("~", 0, "<built-in method builtins.len>")
STDLIB = ("/usr/lib/python3.11/random.py", 30, "uniform")
BUILTIN_RANDOM = ("~", 0, "<method 'random' of '_random.Random' objects>")
CALLBACK = ("/x/bench/workloads.py", 40, "<lambda>")
SIM = ("/x/src/repro/sim/engine.py", 50, "run")
HARNESS = ("/x/bench/harness.py", 60, "run_repeat")


def _entry(nc, tt, callers=None):
    # pstats rows are (cc, nc, tt, ct, callers); ct is not read
    return (nc, nc, tt, tt, callers or {})


def _stats():
    return {
        PIER: _entry(100, 1.0, {SIM: (100, 100, 1.0, 1.0)}),
        DHT: _entry(50, 2.0, {PIER: (50, 50, 2.0, 2.0)}),
        # a built-in with two callers: split by its self time under each
        BUILTIN_LEN: _entry(
            500, 0.5, {PIER: (300, 300, 0.3, 0.3), DHT: (200, 200, 0.2, 0.2)}
        ),
        # stdlib called from dht, itself calling a built-in: both land on dht
        STDLIB: _entry(40, 0.4, {DHT: (40, 40, 0.4, 0.4)}),
        BUILTIN_RANDOM: _entry(40, 0.1, {STDLIB: (40, 40, 0.1, 0.1)}),
        # a benchmark callback scheduled on the kernel is the kernel's time
        CALLBACK: _entry(10, 0.2, {SIM: (10, 10, 0.2, 0.2)}),
        SIM: _entry(1, 0.3, {HARNESS: (1, 1, 0.3, 0.3)}),
        # nothing above the harness: its own self time is nobody's
        HARNESS: _entry(1, 0.05),
    }


def test_self_time_is_charged_where_a_call_crosses_into_a_layer():
    profile = attribute_layers(_stats())
    assert profile.total_seconds == pytest.approx(4.55)
    assert profile.seconds["pier"] == pytest.approx(1.0 + 0.3)
    assert profile.seconds["dht"] == pytest.approx(2.0 + 0.2 + 0.4 + 0.1)
    assert profile.seconds["sim"] == pytest.approx(0.3 + 0.2)
    assert profile.unattributed_seconds == pytest.approx(0.05)
    assert profile.calls == {"pier": 100, "dht": 50, "sim": 1}


def test_shares_sum_to_one_with_the_harness_and_exactly_without():
    profile = attribute_layers(_stats())
    harness = profile.unattributed_seconds / profile.total_seconds
    assert sum(profile.share(layer) for layer in LAYERS) + harness == pytest.approx(1.0)
    assert profile.share_sum == pytest.approx(1.0 - harness)
    stats = _stats()
    del stats[HARNESS]
    stats[SIM] = _entry(1, 0.3)
    assert attribute_layers(stats).share_sum == pytest.approx(1.0)
    assert attribute_layers({}).share_sum == 0.0


def test_recursive_non_layer_callers_terminate():
    helper = ("/usr/lib/python3.11/copy.py", 1, "deepcopy")
    stats = {
        PIER: _entry(1, 1.0),
        # deepcopy calls itself and is called from pier
        helper: _entry(
            9, 0.9, {helper: (8, 8, 0.6, 0.6), PIER: (1, 1, 0.3, 0.3)}
        ),
    }
    profile = attribute_layers(stats)
    assert profile.seconds["pier"] == pytest.approx(1.9)
    assert profile.unattributed_seconds == pytest.approx(0.0)


def test_layer_of_reads_the_package_under_repro():
    assert layer_of("/root/repo/src/repro/pier/dataflow.py") == "pier"
    assert layer_of("/checkout/src/repro/sim/shard.py") == "sim"
    assert layer_of("/root/repo/src/repro/__init__.py") is None
    assert layer_of("/root/repo/bench/workloads.py") is None
    assert layer_of("~") is None

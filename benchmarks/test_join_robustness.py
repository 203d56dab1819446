"""Join-robustness suite: tight memory costs reads, never answers.

``ext-join`` sweeps a join site's budgeted build (partitions of the
stored list evicted largest first, probes paying a read and a scan per
evicted partition they land in) over skew × row budget. Everything it
reports is a count the code fixes, so everything here is exact: ``run``
asserts every budgeted answer set equals the unlimited-memory reference
and runs the strategy × runtime equivalence matrix; the spill rows
(probe reads and re-read bytes per query, partition evictions) are
pinned at ``SMALL_SCALE``; and the optimizer's memory-pressure term must
shift a strategy pick. Host time on this path is measured end to end by
``bench/``'s ``conj_optimizer`` workload (``host_us_per_op``).

Everything here is slow-marked via the benchmarks conftest.
"""

import pytest

from repro.experiments.common import SMALL_SCALE
from repro.experiments.ext_join import TIGHT_BUDGET, run, sweep_by_point

#: (policy, budget) -> (reads per query, re-read bytes per query,
#: evictions) per alpha, at SMALL_SCALE; budget 0 is the unlimited point
PINNED_SPILL = {
    0.8: {
        ("unlimited", 0): (0, 0, 0),
        ("partitioned", 512): (0, 0, 0),
        ("partitioned", 128): (0, 0, 0),
        ("partitioned", 64): (5, 47189, 45),
        ("partitioned", 32): (9, 67754, 99),
    },
    1.1: {
        ("unlimited", 0): (0, 0, 0),
        ("partitioned", 512): (0, 0, 0),
        ("partitioned", 128): (2, 34389, 30),
        ("partitioned", 64): (7, 87722, 87),
        ("partitioned", 32): (11, 113152, 129),
    },
}


@pytest.fixture(scope="module")
def sweep():
    return run(SMALL_SCALE)


def _spill_counts(result, alpha):
    return {
        point: (
            fields["reads_per_query"],
            fields["reread_bytes_per_query"],
            fields["evictions"],
        )
        for point, fields in sweep_by_point(result, alpha).items()
    }


@pytest.mark.parametrize("alpha", sorted(PINNED_SPILL))
def test_spill_rows_are_pinned(sweep, alpha):
    """Every budget's spill counts, exactly; the two tightest budgets
    evict and re-read, and tightening never reads less."""
    counts = _spill_counts(sweep, alpha)
    assert counts == PINNED_SPILL[alpha]
    ladder = [counts[point] for point in PINNED_SPILL[alpha]]
    assert all(a <= b for wide, tight in zip(ladder, ladder[1:]) for a, b in zip(wide, tight))
    assert all(min(counts[("partitioned", budget)]) > 0 for budget in (64, TIGHT_BUDGET))


def test_measured_sweep_no_cliff(sweep):
    """Beyond the answer checks ``run`` makes, the tightest budget evicts
    and re-reads, and the memory-pressure term shifts a strategy pick."""
    cliff = sweep_by_point(sweep, 1.1)[("partitioned", TIGHT_BUDGET)]
    assert cliff["evictions"] > 0 and cliff["reads_per_query"] > 0
    shifts = [row for row in sweep.rows if row[0] == "optimizer" and row[4] != row[5]]
    assert shifts, "no optimizer strategy shift under tight budget"


def test_spill_metrics_reproduce_across_runs(sweep):
    """Spill accounting is deterministic: a second fresh sweep gives the
    same rows, every section."""
    assert run(SMALL_SCALE).rows == sweep.rows

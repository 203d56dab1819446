"""Join-robustness regression suite: tight memory must not cliff.

``BENCH_join.json`` (repository root) is frozen history: the skew ×
budget sweep of the partitioned symmetric hash join (spilling both sides
into temp tuples, the join a site's stored-list build replaced) against
the all-or-nothing spill before it (policy ``"all"``), recorded while
each still existed and never re-measured, next to the bounds CI enforces
on it: at the skewed floor alpha, the partitioned join's worst
*operating-budget* point keeps at least half of paired unlimited-memory
throughput, each budget step degrades smoothly, and at the far-undersized
cliff budget the all-or-nothing eviction churn dwarfs the partitioned
join's. Its columns are the old join's (spilled rows, restores, role
reversals), so the artifact is read with its own layout.

Wall-clock ratios are measured against an unlimited run interleaved in
the same timing window (best-of-N both sides), which cancels
machine-level drift but not a shared host's noise. So the throughput
floor, the step-retention bound and the cliff contrast gate the
committed artifact only, and a fresh sweep is gated on what is exact:
its answers (``run`` asserts them), the optimizer's strategy shift, and
the spill metrics (probe reads, re-read bytes, evictions), which are
fully deterministic, so two fresh sweeps agree to the digit. The live
host-time gate for this path is ``conj_optimizer``'s ``host_us_per_op``
in ``bench/``.

Everything here is slow-marked via the benchmarks conftest.
"""

import json
from pathlib import Path

from repro.experiments.common import SMALL_SCALE
from repro.experiments.ext_join import (
    BUDGETS,
    CLIFF_BUDGET,
    FLOOR_ALPHA,
    MIN_STEP_RETENTION,
    NO_CLIFF_FLOOR,
    run,
    sweep_by_point,
)

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_join.json"

#: operating budgets the absolute throughput floor applies to,
#: widest first (the cliff budget is gated on deterministic metrics)
OPERATING_BUDGETS = tuple(b for b in BUDGETS if b is not None)


def _points_from_artifact(payload, alpha):
    """The frozen artifact's throughput points, in its own column layout."""
    points = {}
    for row in payload["rows"]:
        if row[0] == "throughput" and row[1] == alpha:
            points[(row[2], row[3])] = {
                "qps": row[4],
                "ratio": row[5],
                "spilled_per_query": row[6],
                "reads_per_query": row[7],
                "evictions": row[8],
            }
    return points


def _assert_throughput_holds(points, label):
    """The wall-clock gates: throughput floor + smooth degradation."""
    # Absolute floor: every operating budget, not just the worst one,
    # keeps at least the no-cliff fraction of unlimited throughput.
    for budget in OPERATING_BUDGETS:
        ratio = points[("partitioned", budget)]["ratio"]
        assert ratio >= NO_CLIFF_FLOOR, (
            f"{label}: partitioned budget={budget} at "
            f"{ratio:.3f}x unlimited, floor {NO_CLIFF_FLOOR}"
        )
    # Smooth degradation: tightening the budget one step (down to and
    # including the cliff budget) never costs more than the retention
    # bound — the signature of a cliff is one step falling off it.
    ladder = list(OPERATING_BUDGETS) + [CLIFF_BUDGET]
    for wide, tight in zip(ladder, ladder[1:]):
        wide_ratio = points[("partitioned", wide)]["ratio"]
        tight_ratio = points[("partitioned", tight)]["ratio"]
        assert tight_ratio >= MIN_STEP_RETENTION * wide_ratio, (
            f"{label}: budget {wide}->{tight} fell "
            f"{wide_ratio:.3f}->{tight_ratio:.3f}, retention bound "
            f"{MIN_STEP_RETENTION}"
        )


def _assert_cliff_contrast(points):
    """The artifact's two policies, at the far-undersized cliff budget.

    The recorded all-or-nothing policy refilled and reflushed whole build
    sides (eviction churn) and paid re-reads on every probe, where the
    partitioned join evicts each partition once and keeps never-spilled
    probes free.
    """
    part = points[("partitioned", CLIFF_BUDGET)]
    legacy = points[("all", CLIFF_BUDGET)]
    assert legacy["evictions"] >= 3 * part["evictions"], (
        f"expected all-or-nothing eviction churn ({legacy['evictions']}) "
        f"to dwarf partitioned ({part['evictions']}) at budget {CLIFF_BUDGET}"
    )
    assert legacy["reads_per_query"] > part["reads_per_query"]
    assert legacy["spilled_per_query"] >= part["spilled_per_query"]


def test_bench_join_artifact_no_cliff():
    """The committed artifact must satisfy every recorded bound."""
    payload = json.loads(BENCH_PATH.read_text())
    bounds = payload["bounds"]
    assert bounds["floor_alpha"] == FLOOR_ALPHA
    assert bounds["no_cliff_floor"] == NO_CLIFF_FLOOR
    assert bounds["min_step_retention"] == MIN_STEP_RETENTION
    points = _points_from_artifact(payload, FLOOR_ALPHA)
    _assert_throughput_holds(points, "artifact")
    _assert_cliff_contrast(points)
    # The memory-pressure term must have shifted at least one
    # scenario's strategy pick at the tight budget.
    shifts = [row for row in payload["rows"] if row[0] == "optimizer" and row[6]]
    assert shifts, "no optimizer strategy shift recorded under tight budget"
    # And the full strategy x runtime equivalence matrix ran.
    assert any(row[0] == "equivalence" for row in payload["rows"])


def test_measured_sweep_no_cliff():
    """A fresh sweep must clear every gate that does not read a clock.

    ``run`` itself asserts every budgeted answer set equals the
    unlimited-memory reference and runs the strategy x runtime
    equivalence matrix; on top of that the optimizer's strategy shift is
    exact, and the tightest budget evicts and re-reads. The sweep's
    fresh host-time ratios are not gated (see the module docstring), so
    one timing round is enough.
    """
    result = run(SMALL_SCALE, alphas=(FLOOR_ALPHA,), rounds=1)
    cliff = sweep_by_point(result, FLOOR_ALPHA)[("partitioned", CLIFF_BUDGET)]
    assert cliff["evictions"] > 0 and cliff["reads_per_query"] > 0
    shifts = [row for row in result.rows if row[0] == "optimizer" and row[6]]
    assert shifts, "no optimizer strategy shift under tight budget"


def test_spill_metrics_reproduce_across_runs():
    """Spill accounting is deterministic: two fresh sweeps' per-point
    probe reads, re-read bytes and evictions agree exactly."""
    first, second = (run(SMALL_SCALE, rounds=1) for _ in range(2))
    deterministic = ("reads_per_query", "reread_bytes_per_query", "evictions")
    for alpha in (0.8, 1.1):
        measured, again = sweep_by_point(first, alpha), sweep_by_point(second, alpha)
        assert measured.keys() == again.keys()
        for point, fields in measured.items():
            for name in deterministic:
                assert fields[name] == again[point][name], (alpha, point, name)

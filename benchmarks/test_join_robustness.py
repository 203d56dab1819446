"""Join-robustness regression suite: tight memory must not cliff.

``BENCH_join.json`` (repository root) records the skew × budget sweep of
the memory-adaptive partitioned hybrid hash join against the
all-or-nothing spill it replaced (policy ``"all"``: frozen rows, recorded
while that policy still existed and never re-measured), next to the
bounds CI enforces: at the skewed floor alpha, the partitioned join's
worst *operating-budget* point must keep at least half of paired
unlimited-memory throughput, each budget step must degrade smoothly, and
at the far-undersized cliff budget the recorded all-or-nothing eviction
churn must dwarf the partitioned join's.

Wall-clock ratios are measured against an unlimited run interleaved in
the same timing window (best-of-N both sides), which cancels
machine-level drift but not a shared host's noise: the budget-64 point
reads 0.495-0.572 of unlimited across fresh runs, straddling the 0.5
floor. So the throughput floor, the step-retention bound and the cliff
contrast gate the committed artifact only, and a fresh sweep is gated on
what is exact — the spill metrics (spilled rows, probe re-reads,
evictions, role reversals) are fully deterministic, so the
reproducibility pin asserts on the partitioned points to the digit. The live host-time
gate for this path is ``conj_optimizer``'s ``host_us_per_op`` in
``bench/``.

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
    points = {}
    for row in payload["rows"]:
        if row[0] == "throughput" and row[1] == alpha:
            points[(row[2], row[3])] = {
                "qps": row[4],
                "ratio": row[5],
                "spilled_per_query": row[6],
                "reads_per_query": row[7],
                "evictions": row[8],
                "restores": row[9],
                "role_reversals": row[10],
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
    equivalence matrix; on top of that role reversal and the
    optimizer's strategy shift are exact. The sweep's fresh host-time
    ratios are not gated (see the module docstring), so one timing
    round is enough.
    """
    result = run(SMALL_SCALE, alphas=(FLOOR_ALPHA,), rounds=1)
    points = sweep_by_point(result, FLOOR_ALPHA)
    # Skew makes the build sides asymmetric enough that the partitioned
    # join flips its eviction victim side at least once.
    assert points[("partitioned", CLIFF_BUDGET)]["role_reversals"] > 0
    shifts = [row for row in result.rows if row[0] == "optimizer" and row[6]]
    assert shifts, "no optimizer strategy shift under tight budget"


def test_spill_metrics_reproduce_artifact():
    """Spill accounting is deterministic: a fresh sweep's per-point
    spill metrics must match the committed artifact exactly (the
    artifact records the same scale and seeds). The artifact's frozen
    ``"all"`` rows have no fresh counterpart and are skipped."""
    payload = json.loads(BENCH_PATH.read_text())
    assert payload["scale"] == SMALL_SCALE.name
    result = run(SMALL_SCALE, rounds=1)
    deterministic = (
        "spilled_per_query",
        "reads_per_query",
        "evictions",
        "restores",
        "role_reversals",
    )
    for alpha in (0.8, 1.1):
        recorded = {
            point: fields
            for point, fields in _points_from_artifact(payload, alpha).items()
            if point[0] != "all"
        }
        measured = sweep_by_point(result, alpha)
        assert measured.keys() == recorded.keys()
        for point, fields in measured.items():
            for name in deterministic:
                assert fields[name] == recorded[point][name], (
                    f"alpha={alpha} {point}: {name} measured "
                    f"{fields[name]} != recorded {recorded[point][name]}"
                )

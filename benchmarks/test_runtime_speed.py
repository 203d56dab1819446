"""Runtime-speed regression suite: the hot paths must stay fast.

``BENCH_runtime.json`` (repository root) records the kernel and dataflow
rates measured after the simulation-kernel / route-cache / row-path
overhaul, the pre-overhaul baseline, and the CI floors. These tests
re-measure the cheap rates and fail if they drop below the recorded
floors — the floors sit far under the reference-machine rates (to absorb
slower CI hardware) but above anything the pre-overhaul code could reach,
so a regression to Python-level hot-path behaviour trips them.

Everything here is slow-marked via the benchmarks conftest, so the
default fast suite is unaffected; CI runs the two smoke tests explicitly.
"""

import json
from pathlib import Path

from repro.experiments.ext_runtime import (
    BASELINE,
    FLOORS,
    dataflow_scale_workload,
    kernel_workload,
)

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_runtime.json"


def recorded_floors() -> dict:
    """The committed floors; falls back to the in-code table if the
    artifact has not been regenerated yet."""
    if BENCH_PATH.exists():
        return json.loads(BENCH_PATH.read_text())["floors"]
    return FLOORS


def test_kernel_events_per_sec_floor():
    """The sim kernel must clear the recorded events/sec floor (CI smoke)."""
    floor = recorded_floors()["kernel_events_per_sec"]
    best = 0.0
    for _ in range(3):
        scheduled, elapsed = kernel_workload(100_000)
        best = max(best, scheduled / elapsed)
        if best >= floor:
            break  # no need to keep burning CI time once cleared
    assert best >= floor, f"kernel at {best:,.0f} events/sec, floor {floor:,.0f}"


def test_dataflow_smoke_queries_per_sec_floor():
    """A small dataflow-scale slice must clear its throughput floor (CI smoke)."""
    floor = recorded_floors()["dataflow_smoke_queries_per_sec"]
    best = 0.0
    for _ in range(2):
        sample = dataflow_scale_workload(num_queries=250, churn=False)
        best = max(best, sample["queries_per_sec"])
        if best >= floor:
            break
    assert best >= floor, f"dataflow at {best:.0f} queries/sec, floor {floor:.0f}"


def test_bench_runtime_artifact_meets_targets():
    """The committed artifact must record the overhaul's speedup targets:
    >=3x kernel events/sec and >=1.5x end-to-end on dataflow-scale."""
    payload = json.loads(BENCH_PATH.read_text())
    rows = {row[0]: row for row in payload["rows"]}
    assert payload["baseline"] == BASELINE
    assert rows["kernel_events_per_sec"][3] >= 3.0
    assert rows["dataflow_queries_per_sec"][3] >= 1.5
    for metric, row in rows.items():
        assert row[2] > 0, f"{metric} records a non-positive rate"


def test_kernel_microbench(benchmark):
    """Timed kernel microbench (plain assertion under --benchmark-disable)."""
    scheduled, elapsed = benchmark(kernel_workload, 50_000)
    assert scheduled == 50_000
    assert elapsed > 0.0


def test_dataflow_scale_workload_is_live(benchmark):
    """The ext-runtime scenario completes every query with the route cache
    doing real work (hits dominate misses: walks, plan legs and Item
    fetches repeat their routes)."""
    sample = benchmark(dataflow_scale_workload, 500, False)
    assert sample["queries"] == 500
    assert sample["route_cache_hits"] > sample["route_cache_misses"]

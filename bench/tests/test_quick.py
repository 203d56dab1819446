"""Every workload end to end at ``--quick`` size: checks green, digest
stable for a seed and sensitive to it."""

import json
import subprocess
import sys

import pytest

from bench import ROOT
from bench.harness import load_spec, run_workload
from bench.workloads import WORKLOADS


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_quick_run_is_correct_and_deterministic(name):
    first = run_workload(name, seed=3, seconds=1, trace=False, quick=True)
    again = run_workload(name, seed=3, seconds=1, trace=False, quick=True)
    other = run_workload(name, seed=4, seconds=1, trace=False, quick=True)
    assert first.correct and first.failed == 0 and first.attempted > 0
    assert all(first.checks.values()), first.checks
    assert first.digest == again.digest
    assert first.digest != other.digest
    assert first.metrics["sim_kb_per_op"] == again.metrics["sim_kb_per_op"]
    for metric in load_spec()["end_to_end"]:
        assert first.metrics[metric["name"]] > 0, metric["name"]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_leaves_the_digest_alone_and_shares_sum_to_one(name):
    plain = run_workload(name, seed=3, seconds=1, trace=False, quick=True)
    traced = run_workload(name, seed=3, seconds=1, trace=True, quick=True)
    assert traced.correct and traced.checks["digest_stable"]
    assert traced.digest == plain.digest  # zero drift under profile and obs
    assert traced.metrics["trace.share_sum"] == pytest.approx(1.0, abs=0.05)
    assert traced.metrics["trace.profile_overhead"] > 0
    assert traced.metrics["e2e.failed_fraction"] == 0


def test_all_runs_each_workload_in_a_process_of_its_own(tmp_path):
    out = tmp_path / "all.json"
    done = subprocess.run(
        [sys.executable, "-m", "bench", "--quick", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    results = json.loads(out.read_text())
    assert [r["workload"] for r in results] == list(WORKLOADS)
    assert list(tmp_path.iterdir()) == [out]  # the per-workload parts are gone
    # In one process the high-water mark could only rise from one workload
    # to the next.
    peaks = [r["metrics"]["peak_rss_mb"] for r in results]
    assert peaks != sorted(peaks), peaks

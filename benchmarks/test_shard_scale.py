"""Sharded-kernel regression suite: capacity floors and digest parity.

``BENCH_shard.json`` (repository root) records the million-peer region
workload: per-shard busy-time event rates, the aggregate capacity of the
4-shard kernel relative to the 1-shard baseline, the sequential
round-robin wall ratio (sharding must not be a wall-clock loss), the
process backend's wall speedup (enforced only on >=4-core machines),
compact-ring DHT bytes per peer at 1M, and the cross-backend
determinism verdict. These tests validate the committed artifact and
re-measure a small smoke slice against the recorded floors.

Everything here is slow-marked via the benchmarks conftest; CI runs the
smoke and artifact tests explicitly (see .github/workflows/ci.yml).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.ext_shard import (
    FLOORS,
    SMOKE_SCENARIO,
    merged_digest,
    run_scenario,
)

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_shard.json"


def recorded_floors() -> dict:
    """The committed floors; falls back to the in-code table if the
    artifact has not been regenerated yet."""
    if BENCH_PATH.exists():
        return json.loads(BENCH_PATH.read_text())["floors"]
    return FLOORS


def test_sharded_smoke_aggregate_rate_floor():
    """The 4-shard smoke run must clear the aggregate events/sec floor
    (CI smoke): the sum of per-shard busy-time drain rates."""
    floor = recorded_floors()["smoke_aggregate_events_per_sec"]
    best = 0.0
    for _ in range(3):
        report = run_scenario(SMOKE_SCENARIO, num_shards=4)
        best = max(best, report.aggregate_events_per_second)
        if best >= floor:
            break  # no need to keep burning CI time once cleared
    assert best >= floor, f"aggregate at {best:,.0f} events/sec, floor {floor:,.0f}"


def test_sharded_smoke_is_deterministic():
    """1-shard and 4-shard smoke runs must produce identical merged
    digests: same chains, same path checksums, same virtual end times."""
    baseline = run_scenario(SMOKE_SCENARIO, num_shards=1)
    sharded = run_scenario(SMOKE_SCENARIO, num_shards=4)
    assert merged_digest(baseline) == merged_digest(sharded)
    assert baseline.processed == sharded.processed == SMOKE_SCENARIO.total_events


def test_process_backend_matches_round_robin_smoke():
    """The fork-based process backend must reproduce the round-robin
    digests bit-identically (same merge order, same RNG spawns)."""
    sequential = run_scenario(SMOKE_SCENARIO, num_shards=2)
    forked = run_scenario(SMOKE_SCENARIO, num_shards=2, backend="process")
    assert merged_digest(sequential) == merged_digest(forked)
    assert sequential.cross_messages == forked.cross_messages


def test_round_robin_not_slower_than_baseline_smoke():
    """Sequential 4-shard round-robin must match or beat the 1-shard
    baseline on wall clock: the inbox bulk path makes cross-shard
    delivery cheaper than heap scheduling, so region sharding is free
    even without parallelism. Best-of-3 to ride out scheduler noise."""
    best = 0.0
    for _ in range(3):
        baseline = run_scenario(SMOKE_SCENARIO, num_shards=1)
        sharded = run_scenario(SMOKE_SCENARIO, num_shards=4)
        assert baseline.wall_events_per_second > 0
        ratio = sharded.wall_events_per_second / baseline.wall_events_per_second
        best = max(best, ratio)
        if best >= 1.0:
            break
    assert best >= 1.0, f"round-robin wall rate at {best:.2f}x the baseline"


def test_bench_shard_artifact_meets_targets():
    """The committed artifact must record the acceptance targets:
    one million simulated peers, >=3x aggregate capacity at 4 shards,
    round-robin wall rate at least the baseline's, compact DHT routing
    state of at most 1 KB per peer, a passing cross-backend determinism
    check, and per-shard rates."""
    payload = json.loads(BENCH_PATH.read_text())
    floors = payload["floors"]
    assert payload["scenario"]["num_peers"] >= 1_000_000
    assert payload["determinism_ok"] is True
    assert payload["aggregate_speedup"] >= floors["record_aggregate_speedup"]
    assert payload["num_shards"] == 4
    assert (
        payload["round_robin_wall_ratio"] >= floors["record_round_robin_wall_ratio"]
    ), "recorded round-robin wall rate fell below the 1-shard baseline"
    capacity = payload["dht_capacity"]
    assert capacity["num_peers"] >= 1_000_000
    assert capacity["bytes_per_peer"] <= floors["record_bytes_per_peer_max"], (
        f"compact ring costs {capacity['bytes_per_peer']:.0f} B/peer, "
        f"ceiling {floors['record_bytes_per_peer_max']:.0f}"
    )
    per_shard = payload["per_shard"]
    assert len(per_shard) == 4
    for shard in per_shard:
        assert shard["events_per_sec"] > 0, f"shard {shard['shard']} records no rate"
    assert sum(s["events"] for s in per_shard) == payload["scenario"]["total_events"]


def test_bench_shard_artifact_process_speedup_when_multicore():
    """The recorded process-backend wall speedup must clear its floor —
    but only when the *recording* machine had enough cores to express
    parallelism (a single-core recording stores the measurement
    ungated, and this check degrades to requiring its presence)."""
    payload = json.loads(BENCH_PATH.read_text())
    floors = payload["floors"]
    process = payload["process"]
    assert process is not None, "artifact must record a process-backend sample"
    assert process["wall_events_per_sec"] > 0
    min_cores = floors["process_speedup_min_cores"]
    if payload["cpu_count"] is not None and payload["cpu_count"] >= min_cores:
        assert process["wall_speedup_vs_baseline"] >= floors[
            "record_process_wall_speedup"
        ], (
            f"process backend at {process['wall_speedup_vs_baseline']:.2f}x on a "
            f"{payload['cpu_count']}-core recorder, floor "
            f"{floors['record_process_wall_speedup']:.1f}x"
        )


#: peak-RSS ceiling for the 300k-peer smoke: an idle peer is its id in the
#: sorted ring plus a join-order cell, ~65 B/peer (~19 MB of ring state at
#: 300k with no node built; the smoke peaks at ~44 MB with its chains)
#: plus interpreter baseline; 1 GiB is an order-of-magnitude backstop that
#: still fails fast if eager routing or unslotted nodes sneak back in
#: (which cost several GiB at this scale).
RSS_CEILING_BYTES = 1 << 30

_RSS_SMOKE_SCRIPT = """
import resource, sys
from repro.dht.network import DhtNetwork
from repro.dht.ring import bytes_per_peer
from repro.experiments.ext_shard import ShardScenario, run_scenario

network = DhtNetwork(rng=3)
network.populate(300_000)
per_peer = bytes_per_peer(network)
scenario = ShardScenario(num_peers=300_000, num_chains=800, hops_per_chain=150)
report = run_scenario(scenario, num_shards=4)
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
print(f"{peak} {per_peer} {report.processed}")
"""


@pytest.mark.slow
def test_300k_peer_smoke_stays_under_rss_ceiling():
    """Hard memory gate: building a 300k-peer DHT *and* running
    a 300k-peer sharded workload must keep peak RSS under 1 GiB.

    Runs in a fresh interpreter so ``ru_maxrss`` measures exactly this
    workload (the counter is a process-lifetime high-water mark and
    would otherwise inherit whatever earlier tests peaked at).
    """
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-c", _RSS_SMOKE_SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        timeout=600,
    )
    assert result.returncode == 0, f"smoke crashed:\n{result.stderr}"
    peak_bytes, per_peer, processed = result.stdout.split()
    assert int(processed) == 800 * 151
    assert float(per_peer) <= FLOORS["record_bytes_per_peer_max"]
    assert int(peak_bytes) <= RSS_CEILING_BYTES, (
        f"peak RSS {int(peak_bytes) / (1 << 20):.0f} MiB exceeds the "
        f"{RSS_CEILING_BYTES / (1 << 20):.0f} MiB ceiling"
    )


def test_process_backend_wall_speedup_live_when_multicore():
    """On a >=4-core machine the process backend must actually beat the
    sequential baseline on wall clock (skipped on smaller hosts, where
    fork workers time-share cores and the floor is meaningless)."""
    cores = os.cpu_count() or 1
    min_cores = recorded_floors()["process_speedup_min_cores"]
    if cores < min_cores:
        pytest.skip(
            f"{cores} core(s), fewer than {min_cores}: fork workers time-share "
            "cores, so a parallel wall speedup is unobservable"
        )
    best = 0.0
    for _ in range(3):
        baseline = run_scenario(SMOKE_SCENARIO, num_shards=1)
        forked = run_scenario(SMOKE_SCENARIO, num_shards=4, backend="process")
        assert merged_digest(baseline) == merged_digest(forked)
        ratio = forked.wall_events_per_second / baseline.wall_events_per_second
        best = max(best, ratio)
        if best >= 1.2:
            break
    assert best >= 1.2, f"process backend at {best:.2f}x baseline on {cores} cores"

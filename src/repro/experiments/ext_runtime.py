"""Extension: wall-clock speed of the simulation kernel and dataflow.

Every figure, sweep, and scale benchmark in this repository is bottlenecked
by the same three Python hot paths — the discrete-event kernel, DHT route
resolution, and the dataflow's per-row tuple handling. This experiment
measures the two rates that summarise them:

* **kernel events/sec** on a mixed schedule/fire/cancel microbench
  (:func:`kernel_workload`) — bulk scheduling, follow-ups from inside
  callbacks, group-scheduled work with mass cancellation, and periodic
  ``pending`` reads, i.e. exactly what the deployment simulation does to
  the engine;
* **end-to-end queries/sec** on the 5k-query dataflow-scale scenario
  (:func:`dataflow_scale_workload`) — the same pipelined-races-under-churn
  workload as ``benchmarks/test_dataflow_scale.py``.

``python -m repro.experiments.ext_runtime`` records both into
``BENCH_runtime.json`` at the repository root, next to the pre-overhaul
baseline rates (measured on the same reference machine at the commit
before the kernel/route-cache/row-path overhaul) and the CI regression
floors that ``benchmarks/test_runtime_speed.py`` enforces.
"""

from __future__ import annotations

import json
import random
import time
from pathlib import Path

from repro.experiments.common import ExperimentResult, PaperScale, PAPER_SCALE
from repro.sim.engine import Simulator

#: pre-overhaul rates, measured at the seed commit on the reference
#: machine (best of 5): the dataclass-Event heap, uncached hop-by-hop
#: routing, and dict-per-row dataflow. The speedup columns in
#: BENCH_runtime.json are relative to these.
BASELINE = {
    "kernel_events_per_sec": 69_462.0,
    "dataflow_queries_per_sec": 896.5,
    "dataflow_wall_seconds": 5.58,
    #: deterministic event count of the 5k-query scenario — together with
    #: the wall time above it yields the baseline events/sec rate, which
    #: is how smaller runs of the scenario are compared fairly
    "dataflow_sim_events_5k": 108_469.0,
}

#: CI regression floors (see benchmarks/test_runtime_speed.py). Far below
#: the reference-machine rates to absorb slower CI hardware, but above
#: anything the pre-overhaul code could reach: the old kernel's *best*
#: was ~69k events/sec on the reference machine.
FLOORS = {
    "kernel_events_per_sec": 80_000.0,
    "dataflow_smoke_queries_per_sec": 300.0,
}


def _noop() -> None:
    pass


def kernel_workload(num_events: int = 200_000, seed: int = 7) -> tuple[int, float]:
    """Run the kernel microbench; returns (events scheduled, wall seconds).

    The workload mirrors the deployment simulation's usage profile: 1/4
    of events are scheduled through cancellable groups, eight of the 32
    groups are mass-cancelled (the engine cancels by group only, as a
    failed query's teardown does), and ``pending`` is polled every 1024
    schedules (the in-flight gauge the scale benchmarks read). Delays are
    precomputed so the timed region is engine work, not RNG work.
    """
    rng = random.Random(seed)
    delays = [rng.random() * 10.0 for _ in range(num_events)]
    sim = Simulator()
    groups = [sim.group() for _ in range(32)]
    start = time.perf_counter()
    for index in range(num_events):
        delay = delays[index]
        if index & 3 == 0:
            # Quotient-indexed so all 32 groups fill (index & 31 would
            # leave every group with non-zero low bits empty).
            groups[(index >> 2) & 31].schedule(delay, _noop)
        else:
            sim.schedule(delay, _noop)
        if index & 1023 == 0:
            assert sim.pending >= 0
    for group in groups[:8]:
        group.cancel()
    sim.run(until=5.0)
    assert sim.pending >= 0
    sim.run()
    elapsed = time.perf_counter() - start
    return num_events, elapsed


def build_dataflow_scale(
    num_queries: int = 5000, churn: bool = True, tracer=None, metrics=None
):
    """Construct the dataflow-scale scenario: thousands of pipelined
    queries racing Gnutella under churn, all scheduled on one shared
    virtual clock and ready to drain.

    The single source of truth for the scenario —
    ``benchmarks/test_dataflow_scale.py`` runs this exact construction
    (same seeds, corpus, churn schedule, and query mix), which is what
    keeps its throughput pins and the recorded baseline in
    ``BENCH_runtime.json`` comparable. Returns ``(sim, engine, dht,
    churn_process)`` with nothing run yet; ``sim.run()`` drains it.

    ``tracer``/``metrics`` wire the observability layer through the whole
    stack (``ext_obs`` measures its overhead on exactly this scenario); a
    passed tracer is bound to the scenario's simulator.
    """
    import math

    from repro.common.rng import make_rng
    from repro.dht.churn import ChurnProcess
    from repro.dht.network import DhtNetwork
    from repro.hybrid.engine import RaceConfig
    from repro.hybrid.world import build_world

    num_nodes, num_files, submit_window = 64, 200, 48.0
    dht = DhtNetwork(rng=17)
    dht.populate(num_nodes)
    world = build_world(
        dht,
        range(8),
        race_config=RaceConfig(retry_backoff=1.0, batch_size=2),
        rng=7,
        tracer=tracer,
        metrics=metrics,
    )
    sim, engine, hybrids, nodes = world.sim, world.engine, world.hybrids, world.nodes
    for index in range(num_files):
        world.publisher.publish_file(
            filename=f"rare nebula group{index % 25:02d} track{index:04d}.mp3",
            filesize=4096 + index,
            ip_address=f"10.1.{index // 250}.{index % 250}",
            port=6346,
            origin=nodes[index % num_nodes].node_id,
        )
    process = None
    if churn:
        # Departures land while thousands of dataflows are in flight;
        # every other schedule leaves tables unstabilized so walks and
        # batch sends hit stale fingers.
        process = ChurnProcess(dht, rng=29, failure_fraction=0.4)
        process.schedule(sim, interval=6.0, steps=10, stabilize=True)
        process.schedule(sim, interval=9.0, steps=6, stabilize=False)
    rng = make_rng(23)
    window = submit_window * (num_queries / 5000)
    for index in range(num_queries):
        hybrid = hybrids[index % len(hybrids)]
        if index % 4 == 0:
            terms = ["popular", "hit"]
            depths = [1.0, 2.0, 2.0]
        else:
            group = rng.randrange(25)
            terms = [f"group{group:02d}", "nebula"]
            depths = [math.inf]
        sim.schedule_at(
            index * (window / num_queries),
            lambda hybrid=hybrid, terms=terms, depths=depths: (
                hybrid.handle_leaf_query_simulated(engine, terms, depths, stop_ttl=3)
            ),
        )
    return sim, engine, dht, process


def dataflow_scale_workload(
    num_queries: int = 5000, churn: bool = True
) -> dict[str, float]:
    """Build and drain the dataflow-scale scenario, timed.

    Wall-clock covers construction + publishing + the simulation drain,
    matching how the pre-overhaul baseline was measured.
    """
    start = time.perf_counter()
    sim, engine, dht, _ = build_dataflow_scale(num_queries, churn)
    sim.run()
    elapsed = time.perf_counter() - start
    assert engine.completed == num_queries and engine.inflight == 0
    return {
        "queries": float(num_queries),
        "wall_seconds": elapsed,
        "queries_per_sec": num_queries / elapsed,
        "sim_events": float(sim.processed),
        "sim_events_per_sec": sim.processed / elapsed,
        "route_cache_hits": float(dht.route_cache_hits),
        "route_cache_misses": float(dht.route_cache_misses),
    }


def run(
    scale: PaperScale = PAPER_SCALE,
    repeats: int = 3,
    kernel_events: int = 200_000,
    num_queries: int | None = None,
) -> ExperimentResult:
    """Measure both rates (best of ``repeats``) against the baseline."""
    queries = num_queries or (5000 if scale.name == "paper" else 1000)
    kernel_best = 0.0
    for _ in range(repeats):
        scheduled, elapsed = kernel_workload(kernel_events)
        kernel_best = max(kernel_best, scheduled / elapsed)
    dataflow_best: dict[str, float] | None = None
    for _ in range(repeats):
        sample = dataflow_scale_workload(queries)
        if dataflow_best is None or sample["queries_per_sec"] > dataflow_best["queries_per_sec"]:
            dataflow_best = sample
    # The baseline events/sec rate comes from the recorded 5k-query
    # measurement; scenarios of any size are compared against it, which
    # at 5k queries reduces to the directly measured wall times.
    baseline_eps = (
        BASELINE["dataflow_sim_events_5k"] / BASELINE["dataflow_wall_seconds"]
    )
    baseline_wall = dataflow_best["sim_events"] / baseline_eps
    baseline_qps = dataflow_best["queries"] / baseline_wall
    rows = [
        (
            "kernel_events_per_sec",
            BASELINE["kernel_events_per_sec"],
            kernel_best,
            kernel_best / BASELINE["kernel_events_per_sec"],
        ),
        (
            "dataflow_queries_per_sec",
            baseline_qps,
            dataflow_best["queries_per_sec"],
            dataflow_best["queries_per_sec"] / baseline_qps,
        ),
        (
            "dataflow_sim_events_per_sec",
            baseline_eps,
            dataflow_best["sim_events_per_sec"],
            dataflow_best["sim_events_per_sec"] / baseline_eps,
        ),
    ]
    return ExperimentResult(
        experiment_id="ext-runtime",
        title="Runtime speed: kernel and dataflow hot paths vs pre-overhaul baseline",
        columns=["metric", "baseline", "current", "speedup"],
        rows=rows,
        notes=(
            f"kernel microbench: {kernel_events} mixed schedule/cancel events; "
            f"dataflow: {int(dataflow_best['queries'])} pipelined queries under "
            f"churn (route cache {dataflow_best['route_cache_hits']:.0f} hits / "
            f"{dataflow_best['route_cache_misses']:.0f} misses); baseline from the "
            "pre-overhaul commit on the same machine, scaled to this scenario "
            "size via its recorded events/sec rate (exact at 5k queries)"
        ),
    )


def record(
    path: str | Path = "BENCH_runtime.json",
    repeats: int = 3,
    num_queries: int = 5000,
) -> Path:
    """Measure and persist the bench artifact (with baselines and floors)."""
    result = run(PAPER_SCALE, repeats=repeats, num_queries=num_queries)
    payload = {
        "experiment": result.experiment_id,
        "title": result.title,
        "columns": result.columns,
        "rows": [list(row) for row in result.rows],
        "baseline": BASELINE,
        "floors": FLOORS,
        "notes": result.notes,
    }
    target = Path(path)
    target.write_text(json.dumps(payload, indent=2) + "\n")
    return target


if __name__ == "__main__":
    recorded = record()
    print(recorded.read_text())

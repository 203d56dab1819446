"""Extension: what observation costs — tracing/metrics overhead.

The observability layer (:mod:`repro.obs`) promises to be free when
disabled and cheap when enabled. This experiment prices both claims on
the dataflow-scale scenario (the same 5k-pipelined-queries-under-churn
construction as ``ext_runtime`` and ``benchmarks/test_dataflow_scale.py``):

* run the scenario **untraced** (tracer and metrics both ``None`` — the
  production configuration the ``BENCH_runtime.json`` floors guard);
* run it **traced** in the scale configuration — the full metrics
  registry plus head-sampled tracing (``Tracer(sample_every=8)``: every
  8th race keeps its complete span tree, the standard way production
  tracers bound their cost) — and compare wall clock against the bound
  CI enforces (<10%);
* also run **full-fidelity** tracing (every race traced, the
  configuration the golden-tree and equivalence tests use) and record
  its cost for transparency;
* assert **zero drift**: every traced run must produce race outcomes
  identical to the untraced one — observation must never change what it
  observes.

``python -m repro.experiments.ext_obs`` records the measurements into
``BENCH_obs.json`` at the repository root together with the CI bound
``benchmarks/test_obs_overhead.py`` enforces on the scale configuration.
"""

from __future__ import annotations

import gc
import json
import math
import time
from pathlib import Path

from repro.experiments.common import ExperimentResult, PaperScale, PAPER_SCALE
from repro.experiments.ext_runtime import build_dataflow_scale
from repro.obs.collect import collect_all
from repro.obs.metrics import MetricsRegistry, validate_prometheus
from repro.obs.trace import Tracer, validate_chrome_trace

#: CI bound on the traced/untraced wall-clock ratio for the scale
#: tracing configuration (see benchmarks/test_obs_overhead.py)
MAX_OVERHEAD_FRACTION = 0.10

#: head-sampling rate of the scale configuration: every Nth race keeps
#: its complete span tree
SCALE_SAMPLE_EVERY = 8


def _outcome_digest(engine) -> list[tuple]:
    """Order-stable identity of every race outcome (drift detector)."""
    digest = []
    for race in engine.races:
        outcome = race.outcome
        digest.append(
            (
                outcome.terms,
                outcome.gnutella_results,
                round(outcome.gnutella_latency, 9)
                if not math.isinf(outcome.gnutella_latency)
                else "inf",
                outcome.used_pier,
                outcome.pier_results,
                round(outcome.pier_latency, 9),
                round(outcome.pier_completion_latency, 9),
                outcome.pier_bytes,
                outcome.cache_hit,
                race.pier_failed,
                race.route_retries,
            )
        )
    return digest


def _timed_run(num_queries: int, tracer=None, metrics=None):
    """Build + drain the scenario once; returns (wall, digest, sim, dht).

    Collects first, so neither half of a pair inherits the other's
    garbage: in a large heap one full collection costs ~20 % of a run.
    """
    gc.collect()
    start = time.perf_counter()
    sim, engine, dht, _ = build_dataflow_scale(
        num_queries, tracer=tracer, metrics=metrics
    )
    sim.run()
    wall = time.perf_counter() - start
    return wall, _outcome_digest(engine), sim, dht


def traced_vs_untraced(
    num_queries: int = 5000, sample_every: int = SCALE_SAMPLE_EVERY
) -> dict:
    """One paired measurement: untraced, then traced at ``sample_every``.

    Pairing the runs back to back keeps the ratio meaningful on noisy
    machines — both halves see the same machine state.
    """
    untraced_wall, untraced_digest, _, _ = _timed_run(num_queries)

    tracer = Tracer(sample_every=sample_every)
    metrics = MetricsRegistry()
    traced_wall, traced_digest, sim, dht = _timed_run(
        num_queries, tracer=tracer, metrics=metrics
    )
    if traced_digest != untraced_digest:
        raise AssertionError(
            "observation drift: traced run changed race outcomes"
        )

    # Scrape-time collectors and the exporters run outside the timed
    # region (a scrape is not per-event work), but their output must be
    # structurally valid — this is the traced smoke CI validates.
    collect_all(metrics, network=dht, sim=sim)
    tracer.finish_open()
    prometheus = metrics.to_prometheus()
    validate_prometheus(prometheus)
    chrome = tracer.to_chrome_trace()
    validate_chrome_trace(chrome)

    return {
        "queries": float(num_queries),
        "sample_every": float(sample_every),
        "untraced_wall_seconds": untraced_wall,
        "traced_wall_seconds": traced_wall,
        "untraced_queries_per_sec": num_queries / untraced_wall,
        "traced_queries_per_sec": num_queries / traced_wall,
        "overhead_fraction": traced_wall / untraced_wall - 1.0,
        "spans": float(len(tracer)),
        "metric_series": float(
            len(metrics.counters) + len(metrics.gauges) + len(metrics.histograms)
        ),
        "prometheus_lines": float(len(prometheus.splitlines())),
        "trace_events": float(len(chrome["traceEvents"])),
    }


def run(
    scale: PaperScale = PAPER_SCALE,
    repeats: int = 3,
    num_queries: int | None = None,
) -> ExperimentResult:
    """Best-of-``repeats`` paired overhead measurement (min ratio: least
    machine noise), for both the scale and full-fidelity configurations."""
    queries = num_queries or (5000 if scale.name == "paper" else 1000)
    sampled: dict | None = None
    full: dict | None = None
    for _ in range(repeats):
        sample = traced_vs_untraced(queries)
        if sampled is None or sample["overhead_fraction"] < sampled["overhead_fraction"]:
            sampled = sample
        sample = traced_vs_untraced(queries, sample_every=1)
        if full is None or sample["overhead_fraction"] < full["overhead_fraction"]:
            full = sample
    rows = [
        ("untraced_queries_per_sec", sampled["untraced_queries_per_sec"]),
        ("traced_queries_per_sec", sampled["traced_queries_per_sec"]),
        ("overhead_fraction", sampled["overhead_fraction"]),
        ("overhead_bound", MAX_OVERHEAD_FRACTION),
        ("sample_every", float(SCALE_SAMPLE_EVERY)),
        ("spans_recorded", sampled["spans"]),
        ("metric_series", sampled["metric_series"]),
        ("trace_events", sampled["trace_events"]),
        ("overhead_fraction_full", full["overhead_fraction"]),
        ("spans_recorded_full", full["spans"]),
    ]
    return ExperimentResult(
        experiment_id="ext-obs",
        title="Observability overhead: dataflow-scale scenario, tracing on vs off",
        columns=["metric", "value"],
        rows=rows,
        notes=(
            f"{int(sampled['queries'])} pipelined queries under churn, paired "
            f"runs, best of {repeats}; the bounded scale configuration head-"
            f"samples 1-in-{SCALE_SAMPLE_EVERY} races (complete span tree per "
            "kept race) with the full metrics registry always on; the _full "
            "rows trace every race (the golden-tree/equivalence test "
            "configuration); all traced runs produced race outcomes identical "
            "to untraced (drift assertion); exporters validated against the "
            "Prometheus text grammar and the Chrome trace_event schema"
        ),
    )


def record(
    path: str | Path = "BENCH_obs.json",
    repeats: int = 3,
    num_queries: int = 5000,
) -> Path:
    """Measure and persist the bench artifact with the CI overhead bound."""
    result = run(PAPER_SCALE, repeats=repeats, num_queries=num_queries)
    payload = {
        "experiment": result.experiment_id,
        "title": result.title,
        "columns": result.columns,
        "rows": [list(row) for row in result.rows],
        "bounds": {"max_overhead_fraction": MAX_OVERHEAD_FRACTION},
        "notes": result.notes,
    }
    target = Path(path)
    target.write_text(json.dumps(payload, indent=2) + "\n")
    return target


if __name__ == "__main__":
    recorded = record()
    print(recorded.read_text())

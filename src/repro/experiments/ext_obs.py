"""What observation costs: tracing/metrics overhead, and the scenario
it is priced on.

The observability layer (:mod:`repro.obs`) promises to be free when
disabled and cheap when enabled. :func:`traced_vs_untraced` prices the
second claim on the dataflow-scale scenario (:func:`build_dataflow_scale`,
the same construction ``benchmarks/test_dataflow_scale.py`` runs):

* run the scenario **untraced** (tracer and metrics both ``None``);
* run it **traced** in the scale configuration — a counter registry
  plus head-sampled tracing (``Tracer(sample_every=8)``: every
  8th race keeps its complete span tree, the standard way production
  tracers bound their cost) — and compare host CPU time against the
  bound ``benchmarks/test_obs_overhead.py`` enforces (<10%);
* assert **zero drift**: the traced run must produce race outcomes
  identical to the untraced one — observation must never change what it
  observes.

Host time is measured as ``bench/`` measures it, in process CPU seconds;
``python3 -m bench --trace 1`` reports the traced cost end to end as
``obs.trace_overhead``.
"""

from __future__ import annotations

import gc
import math
import time

from repro.common.rng import make_rng
from repro.dht.churn import ChurnProcess
from repro.dht.network import DhtNetwork
from repro.hybrid.engine import RaceConfig
from repro.hybrid.world import build_world
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer, validate_chrome_trace

#: bound on the traced/untraced host-time ratio for the scale
#: tracing configuration (see benchmarks/test_obs_overhead.py)
MAX_OVERHEAD_FRACTION = 0.10

#: head-sampling rate of the scale configuration: every Nth race keeps
#: its complete span tree
SCALE_SAMPLE_EVERY = 8


def build_dataflow_scale(num_queries: int, churn: bool, tracer=None, metrics=None):
    """Construct the dataflow-scale scenario: thousands of pipelined
    queries racing Gnutella under churn, all scheduled on one shared
    virtual clock and ready to drain.

    The single source of truth for the scenario —
    ``benchmarks/test_dataflow_scale.py`` runs this exact construction
    (same seeds, corpus, churn schedule, and query mix), and so does
    :func:`traced_vs_untraced`. Returns ``(sim, engine, dht,
    churn_process)`` with nothing run yet; ``sim.run()`` drains it.

    ``tracer``/``metrics`` wire the observability layer through the whole
    stack; a passed tracer is bound to the scenario's simulator.
    """
    num_nodes, num_files, submit_window = 64, 200, 47.0
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
    """Build + drain the scenario once; returns (CPU seconds, digest).

    Collects first, so neither half of a pair inherits the other's
    garbage: in a large heap one full collection costs ~20 % of a run.
    """
    gc.collect()
    start = time.process_time()
    sim, engine, _, _ = build_dataflow_scale(
        num_queries, True, tracer=tracer, metrics=metrics
    )
    sim.run()
    seconds = time.process_time() - start
    return seconds, _outcome_digest(engine)


def traced_vs_untraced(num_queries: int) -> dict:
    """One paired measurement over ``num_queries`` churned queries:
    untraced, then traced at ``SCALE_SAMPLE_EVERY``; returns the overhead
    fraction, the span count and the counter series count.

    Pairing the runs back to back keeps the ratio meaningful on noisy
    machines — both halves see the same machine state.
    """
    untraced_seconds, untraced_digest = _timed_run(num_queries)

    tracer = Tracer(sample_every=SCALE_SAMPLE_EVERY)
    metrics = MetricsRegistry()
    traced_seconds, traced_digest = _timed_run(
        num_queries, tracer=tracer, metrics=metrics
    )
    if traced_digest != untraced_digest:
        raise AssertionError(
            "observation drift: traced run changed race outcomes"
        )

    # The export runs outside the timed region (it is not per-event
    # work), but its output must be structurally valid.
    tracer.finish_open()
    validate_chrome_trace(tracer.to_chrome_trace())

    return {
        "overhead_fraction": traced_seconds / untraced_seconds - 1.0,
        "spans": len(tracer),
        "metric_series": len(metrics.counters),
    }

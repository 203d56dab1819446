"""Observability-cost regression suite: watching must stay cheap.

Tracing on (head-sampled span trees, 1-in-8 races kept in full, plus
the unified metrics registry) must stay within 10% of tracing off on the
dataflow-scale scenario. These tests re-measure that ratio on a small
slice, pin the counts a traced pair records, and run the traced smoke
that validates both exporters against their formats. ``python3 -m bench
--trace 1`` reports the traced cost end to end as ``obs.trace_overhead``.

Everything here is slow-marked via the benchmarks conftest; CI runs the
tests explicitly in its observability step.
"""

from repro.experiments.ext_obs import (
    MAX_OVERHEAD_FRACTION,
    build_dataflow_scale,
    traced_vs_untraced,
)
from repro.obs.collect import collect_all
from repro.obs.metrics import MetricsRegistry, validate_prometheus
from repro.obs.trace import Tracer, validate_chrome_trace


def test_measured_overhead_within_bound():
    """Re-measured overhead on a small slice must clear the bound (CI smoke).

    Measures the scale configuration (head-sampled tracing plus the full
    metrics registry). The measurement also asserts zero drift: the
    traced run must produce identical race outcomes to the untraced one.
    """
    best = min(
        traced_vs_untraced(500)["overhead_fraction"] for _ in range(3)
    )
    assert best < MAX_OVERHEAD_FRACTION, (
        f"tracing-on overhead at {best:.1%}, bound {MAX_OVERHEAD_FRACTION:.0%}"
    )


def test_traced_pair_counts_are_exact():
    """A traced pair's span and metric-series counts are a function of
    the scenario alone, so they are pinned; the pair itself asserts zero
    drift and valid exports."""
    pair = traced_vs_untraced(200)
    # 54 series while every plan shipped an answer leg: the semi-join's
    # fetch at its last join site left no ``pier.answer`` batch or tuple
    # series in this scenario. 52 while churn drew from the network's RNG,
    # which the engine also draws from: since churn draws from its own
    # stream, no re-query here comes back empty, so neither the empty
    # ``pier.answer`` message (bytes and messages) nor a zero-answer
    # ``hybrid.degraded`` reason (suspect-range, membership-change) is
    # ever recorded.
    assert (pair["spans"], pair["metric_series"]) == (75, 48)


def test_traced_smoke_exports_validate():
    """A traced run of the scenario must export valid Prometheus text and
    Chrome trace_event JSON, with a span tree rooted at every race."""
    tracer = Tracer()
    metrics = MetricsRegistry()
    sim, engine, dht, _ = build_dataflow_scale(200, True, tracer=tracer, metrics=metrics)
    sim.run()
    assert engine.completed == 200
    collect_all(metrics, network=dht, sim=sim)
    tracer.finish_open()
    validate_prometheus(metrics.to_prometheus())
    validate_chrome_trace(tracer.to_chrome_trace())
    races = [span for span in tracer.roots if span.name == "hybrid.race"]
    assert len(races) == 200
    assert all(span.finished for span in races)

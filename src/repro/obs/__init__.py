"""Observability layer: virtual-time tracing and metrics.

Two cooperating pieces, both strictly opt-in so the hot paths stay
no-op cheap when observability is off:

* :mod:`repro.obs.trace` — a virtual-time tracer recording a span tree
  per query (race -> flood rounds / DHT hop chains / dataflow stages ->
  exchange batches / join spills), exportable as Chrome ``trace_event``
  JSON and flat JSONL.
* :mod:`repro.obs.metrics` — a labelled :class:`MetricsRegistry` with
  Prometheus text-format and JSON snapshot exporters.

:mod:`repro.obs.collect` holds the pull-based collectors that snapshot
existing subsystem stats (DHT bandwidth meter, route cache, simulator)
into a registry at scrape time, Prometheus-style, instead of
adding per-message bookkeeping to the hot paths.

Where wall time goes is ``cProfile``'s job, not this layer's:
``python -m cProfile -s tottime -m repro.experiments.runner …`` for an
experiment, or ``python3 -m bench --trace 1`` for the benchmark's
per-layer shares.
"""

from repro.obs.collect import (
    collect_all,
    collect_network,
    collect_simulator,
)
from repro.obs.metrics import MetricsRegistry, validate_prometheus
from repro.obs.trace import Span, Tracer, validate_chrome_trace

__all__ = [
    "MetricsRegistry",
    "Span",
    "Tracer",
    "collect_all",
    "collect_network",
    "collect_simulator",
    "validate_chrome_trace",
    "validate_prometheus",
]

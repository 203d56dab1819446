"""Observability layer: virtual-time tracing, metrics, and profiling.

Three cooperating pieces, all strictly opt-in so the hot paths stay
no-op cheap when observability is off:

* :mod:`repro.obs.trace` — a virtual-time tracer recording a span tree
  per query (race -> flood rounds / DHT hop chains / dataflow stages ->
  exchange batches / join spills), exportable as Chrome ``trace_event``
  JSON and flat JSONL.
* :mod:`repro.obs.metrics` — a labelled :class:`MetricsRegistry` with
  Prometheus text-format and JSON snapshot exporters.
* :mod:`repro.obs.profile` — 1-in-N sampled wall-clock profiling of
  event-loop callbacks, with a top-K hot-span report.

:mod:`repro.obs.collect` holds the pull-based collectors that snapshot
existing subsystem stats (DHT bandwidth meter, route cache, result
cache) into a registry at scrape time, Prometheus-style, instead of
adding per-message bookkeeping to the hot paths.
"""

from repro.obs.collect import (
    collect_all,
    collect_cache,
    collect_network,
    collect_simulator,
)
from repro.obs.metrics import MetricsRegistry, validate_prometheus
from repro.obs.profile import Profiler, profiled
from repro.obs.trace import Span, Tracer, validate_chrome_trace

__all__ = [
    "MetricsRegistry",
    "Profiler",
    "Span",
    "Tracer",
    "collect_all",
    "collect_cache",
    "collect_network",
    "collect_simulator",
    "profiled",
    "validate_chrome_trace",
    "validate_prometheus",
]

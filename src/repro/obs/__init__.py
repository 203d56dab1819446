"""Observability layer: virtual-time tracing and counters.

Two cooperating pieces, both strictly opt-in so the hot paths stay
no-op cheap when observability is off:

* :mod:`repro.obs.trace` — a virtual-time tracer recording a span tree
  per query (race -> flood rounds / DHT hop chains / dataflow stages ->
  exchange batches / join spills), with head sampling and a Chrome
  ``trace_event`` JSON export.
* :mod:`repro.obs.metrics` — a :class:`MetricsRegistry` of labelled
  counters, which ``bench`` reads for its ``pier.*`` rows and
  ``dht.dead_ends``.

Where wall time goes is ``cProfile``'s job, not this layer's:
``python -m cProfile -s tottime -m repro.experiments.runner …`` for an
experiment, or ``python3 -m bench --trace 1`` for the benchmark's
per-layer shares.
"""

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Span, Tracer, validate_chrome_trace

__all__ = [
    "MetricsRegistry",
    "Span",
    "Tracer",
    "validate_chrome_trace",
]

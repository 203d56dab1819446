"""Discrete-event simulation kernel.

The PlanetLab deployment in the paper is replaced by a deterministic
discrete-event simulator: :class:`~repro.sim.engine.Simulator` provides a
virtual clock and event queue, whose events are cancelled only in bulk,
through an :class:`~repro.sim.engine.EventGroup` (one query's in-flight
dataflow), :mod:`repro.sim.latency` draws per-hop
wide-area delays, and :mod:`repro.sim.stats` holds the counter the metrics
registry (:mod:`repro.obs.metrics`) groups and the nearest-rank quantile.
"""

from repro.sim.engine import EventGroup, Simulator
from repro.sim.latency import UniformLatencyModel
from repro.sim.stats import Counter

__all__ = [
    "EventGroup",
    "Simulator",
    "UniformLatencyModel",
    "Counter",
]

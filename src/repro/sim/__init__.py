"""Discrete-event simulation kernel.

The PlanetLab deployment in the paper is replaced by a deterministic
discrete-event simulator: :class:`~repro.sim.engine.Simulator` provides a
virtual clock and event queue, :mod:`repro.sim.latency` draws per-hop
wide-area delays, and :mod:`repro.sim.stats` holds the counter, gauge and
histogram primitives the metrics registry (:mod:`repro.obs.metrics`) groups.
"""

from repro.sim.engine import Event, EventGroup, Simulator
from repro.sim.latency import UniformLatencyModel
from repro.sim.shard import (
    ShardContext,
    ShardProgram,
    ShardRunReport,
    run_sharded,
    shard_of_key,
)
from repro.sim.stats import Counter, Gauge, Histogram

__all__ = [
    "Event",
    "EventGroup",
    "Simulator",
    "ShardContext",
    "ShardProgram",
    "ShardRunReport",
    "run_sharded",
    "shard_of_key",
    "UniformLatencyModel",
    "Counter",
    "Gauge",
    "Histogram",
]

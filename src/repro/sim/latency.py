"""Wide-area hop latency.

The paper's deployment spans PlanetLab nodes on two continents, so a DHT
hop pays anything from an intra-continent to a trans-Atlantic one-way
delay (tens of ms to ~100 ms). The churn experiment
(:mod:`repro.experiments.ext_churn`) draws each hop of a lookup from this
model; flood latency has its own model in :mod:`repro.gnutella.latency`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass
class UniformLatencyModel:
    """One-way latency between two nodes, uniform in [low, high] seconds."""

    low: float = 0.02
    high: float = 0.12

    def delay(self, source: int, destination: int, rng: random.Random) -> float:
        return rng.uniform(self.low, self.high)

"""Unit tests for the wide-area hop latency model."""

import random

from repro.sim.latency import UniformLatencyModel


class TestUniformLatencyModel:
    def test_within_bounds(self):
        model = UniformLatencyModel(0.02, 0.12)
        rng = random.Random(1)
        for _ in range(200):
            delay = model.delay(1, 2, rng)
            assert 0.02 <= delay <= 0.12

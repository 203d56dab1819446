"""Counters, gauges, and histograms for experiment reporting.

These are the primitive metric types; :mod:`repro.obs.metrics` groups
them in the labelled registry with the Prometheus/JSON exporters.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterable
from dataclasses import dataclass


def nearest_rank(values: Iterable[float], q: float) -> float:
    """The nearest-rank ``q``-quantile of non-empty ``values``: the
    ``ceil(q * n)``-th smallest, clamped to the sample, with no
    interpolation."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


@dataclass
class Counter:
    """A named monotonically increasing counter."""

    name: str
    value: int = 0

    def add(self, amount: int = 1) -> None:
        self.value += amount


@dataclass
class Gauge:
    """A named value that can go up and down (queue depths, cache sizes)."""

    name: str
    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def add(self, amount: float = 1.0) -> None:
        self.value += amount


class Histogram:
    """Streaming histogram with exact or bounded-reservoir retention.

    By default every raw sample is kept, which gives exact quantiles and
    is the right trade for experiment-sized runs (<= a few hundred
    thousand samples). Pass ``reservoir_size`` to cap retention: samples
    beyond the cap are admitted by Vitter's Algorithm R with a private
    RNG seeded 0, so million-event runs hold memory constant and two runs
    with the same sample stream keep byte-identical reservoirs.
    ``count``/``mean``/``minimum``/``maximum``/``total`` stay exact in
    both modes; only the quantiles become approximate once the reservoir
    overflows.
    """

    def __init__(self, name: str, reservoir_size: int | None = None):
        if reservoir_size is not None and reservoir_size <= 0:
            raise ValueError(f"reservoir_size must be positive, got {reservoir_size}")
        self.name = name
        self.samples: list[float] = []
        self.reservoir_size = reservoir_size
        self._rng = random.Random(0) if reservoir_size is not None else None
        self._count = 0
        self._total = 0.0
        self._min = math.inf
        self._max = -math.inf

    def observe(self, value: float) -> None:
        self._count += 1
        self._total += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        size = self.reservoir_size
        # The reservoir holds min(count - 1, size) samples before this one.
        if size is None or self._count <= size:
            self.samples.append(value)
        else:
            # Algorithm R: keep each of the first n samples with prob size/n.
            # random() * count instead of randrange(count): same uniform
            # slot draw, but ~4x cheaper on the per-sample hot path (the
            # float bias is immeasurable at reservoir-scale counts).
            slot = int(self._rng.random() * self._count)
            if slot < size:
                self.samples[slot] = value

    def extend(self, values: list[float]) -> None:
        for value in values:
            self.observe(value)

    def __len__(self) -> int:
        return self._count

    @property
    def count(self) -> int:
        """Total samples observed (exact, even when the reservoir is full)."""
        return self._count

    @property
    def total(self) -> float:
        """Exact sum of every observed sample."""
        return self._total

    @property
    def mean(self) -> float:
        if not self._count:
            return math.nan
        return self._total / self._count

    @property
    def minimum(self) -> float:
        return self._min if self._count else math.nan

    @property
    def maximum(self) -> float:
        return self._max if self._count else math.nan

    def quantile(self, q: float) -> float:
        """q-quantile (nearest-rank) of the retained samples.

        Exact in full-retention mode; an unbiased estimate in reservoir
        mode once more than ``reservoir_size`` samples have been seen.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0,1], got {q}")
        if not self.samples:
            return math.nan
        return nearest_rank(self.samples, q)

"""The counter and the quantile rule experiment reporting uses.

:class:`Counter` is the one metric type; :mod:`repro.obs.metrics`
groups counters in the labelled registry.
"""

from __future__ import annotations

import math
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

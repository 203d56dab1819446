"""Long-tailed distribution samplers.

The paper's central empirical observation is that file replication in
Gnutella follows a long-tailed (Zipf-like) distribution: a moderate number
of popular files with many replicas, and a long tail of rare files with one
or two replicas. These helpers generate such distributions deterministically
so traces can be regenerated bit-for-bit.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random

from repro.common.rng import make_rng


def zipf_weights(n: int, alpha: float = 1.0) -> list[float]:
    """Unnormalised Zipf weights ``1/rank**alpha`` for ranks 1..n."""
    if n <= 0:
        raise ValueError(f"need n >= 1, got {n}")
    if alpha < 0:
        raise ValueError(f"need alpha >= 0, got {alpha}")
    return [1.0 / (rank**alpha) for rank in range(1, n + 1)]


class ZipfSampler:
    """Sample ranks 1..n from a Zipf(alpha) distribution in O(log n).

    Uses a precomputed cumulative table plus binary search, which is fast
    enough for the trace sizes used here (hundreds of thousands of draws).
    """

    def __init__(
        self, n: int, alpha: float = 1.0, rng: random.Random | int | None = None
    ):
        self.n = n
        self.alpha = alpha
        # Routed through make_rng (seeded-RNG audit): omitting rng must
        # still yield bit-for-bit reproducible traces.
        self._rng = make_rng(rng)
        weights = zipf_weights(n, alpha)
        self._cumulative = list(itertools.accumulate(weights))
        self._total = self._cumulative[-1]

    def sample(self) -> int:
        """Draw a rank in [1, n]; rank 1 is the most popular."""
        point = self._rng.random() * self._total
        return bisect.bisect_left(self._cumulative, point) + 1

    def sample_many(self, count: int) -> list[int]:
        """Draw ``count`` independent ranks."""
        return [self.sample() for _ in range(count)]


def calibrate_power_law_alpha(singleton_fraction: float, max_value: int) -> float:
    """Exponent alpha such that P(X=1) = singleton_fraction for a discrete
    power law P(x) proportional to x**-alpha truncated at ``max_value``.

    ``P(1) = 1 / sum_{r=1}^{max} r^-alpha`` is increasing in alpha, so a
    bisection solves it.
    """
    if not 0.0 < singleton_fraction < 1.0:
        raise ValueError(f"singleton_fraction must be in (0,1), got {singleton_fraction}")
    if max_value < 2:
        raise ValueError(f"max_value must be >= 2, got {max_value}")
    target = 1.0 / singleton_fraction

    def normaliser(alpha: float) -> float:
        return sum(r**-alpha for r in range(1, max_value + 1))

    low, high = 0.0, 10.0
    while high - low > 1e-6:
        mid = (low + high) / 2
        if normaliser(mid) > target:
            low = mid  # tail still too heavy; increase alpha
        else:
            high = mid
    return (low + high) / 2


#: the share of distinct items with exactly one replica in the paper's
#: trace (replica threshold 1 publishes 23% of items, Figure 10)
SINGLETON_FRACTION = 0.23


def long_tail_replica_counts(
    num_items: int,
    alpha: float | None = None,
    max_replicas: int = 1000,
    rng: random.Random | int | None = None,
) -> list[int]:
    """Replica count per distinct item, matching the paper's trace shape.

    Counts are i.i.d. draws from a discrete power law ``P(R=r) ~ r**-alpha``
    truncated at ``max_replicas``. When ``alpha`` is omitted it is
    calibrated so that items with exactly one replica are
    :data:`SINGLETON_FRACTION` of distinct items — the paper reports that
    publishing at replica threshold 1 publishes 23% of items (Figure 10).

    Returns a list of length ``num_items`` sorted descending (popular
    items first).
    """
    if num_items <= 0:
        raise ValueError(f"need num_items >= 1, got {num_items}")
    rng = make_rng(rng)
    if alpha is None:
        alpha = calibrate_power_law_alpha(SINGLETON_FRACTION, max_replicas)
    values = list(range(1, max_replicas + 1))
    weights = [r**-alpha for r in values]
    counts = rng.choices(values, weights=weights, k=num_items)
    counts.sort(reverse=True)
    return counts


def sample_power_law_int(
    rng: random.Random, minimum: int, maximum: int, alpha: float = 2.0
) -> int:
    """Draw an integer from a bounded continuous power law (density x^-alpha)."""
    if minimum < 1 or maximum < minimum:
        raise ValueError(f"bad bounds [{minimum}, {maximum}]")
    if maximum == minimum:
        return minimum
    u = rng.random()
    if alpha == 1.0:
        value = minimum * math.exp(u * math.log(maximum / minimum))
    else:
        a = 1.0 - alpha
        lo = minimum**a
        hi = maximum**a
        value = (lo + u * (hi - lo)) ** (1.0 / a)
    return max(minimum, min(maximum, int(round(value))))

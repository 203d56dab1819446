"""Pure reducers: samples -> summaries, outcomes -> digests, profiles -> layers.

Nothing here imports ``repro`` or touches a clock, so every rule the
benchmark's numbers depend on (the percentile rule, the digest encoding,
what counts as a failed op, how profiler time is charged to a layer) is
unit-tested in ``bench/tests`` on synthetic input.
"""

from __future__ import annotations

import hashlib
import math
import statistics
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

#: the packages under ``src/repro`` the per-layer metrics are reported for
LAYERS = (
    "sim", "net", "dht", "pier", "piersearch", "gnutella",
    "hybrid", "cache", "obs", "scenario", "workload", "common",
)


# ----------------------------------------------------------------------
# Sample summaries
# ----------------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least ``q`` of
    the samples at or below it. No interpolation, so the result is always
    one of the samples and is bit-stable for a fixed input."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"q must be in (0, 1], got {q}")
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


@dataclass(frozen=True)
class Summary:
    """Median with the spread printed beside it."""

    median: float
    q1: float
    q3: float
    minimum: float
    count: int

    @property
    def iqr_share(self) -> float:
        """Inter-quartile distance as a share of the median."""
        return (self.q3 - self.q1) / self.median if self.median else 0.0


def summarize(samples: Sequence[float]) -> Summary:
    """Median, quartiles (``statistics.quantiles``, n=4), min and count."""
    if not samples:
        raise ValueError("summary of an empty sample")
    if len(samples) == 1:
        only = samples[0]
        return Summary(only, only, only, only, 1)
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return Summary(statistics.median(samples), q1, q3, min(samples), len(samples))


# ----------------------------------------------------------------------
# Outcome digest
# ----------------------------------------------------------------------


def _encode(value: Any) -> str:
    if isinstance(value, bool):
        return "T" if value else "F"
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (tuple, list)):
        return "(" + ",".join(_encode(item) for item in value) + ")"
    return repr(value)


def sim_digest(rows: Iterable[Sequence[Any]]) -> str:
    """SHA-256 over every per-op outcome row, floats as ``float.hex``.

    Two repeats of one seed must agree on this bit for bit; any change to
    a simulated latency, byte count or result count moves it.
    """
    digest = hashlib.sha256()
    for row in rows:
        digest.update(_encode(tuple(row)).encode())
        digest.update(b"\n")
    return digest.hexdigest()


# ----------------------------------------------------------------------
# Failure counting
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class QueryRecord:
    """What the failure rule needs to know about one resolved leaf query."""

    done: bool
    #: the query's target file was published into the index
    target_published: bool
    total_results: int
    degraded: bool


def count_failed_queries(records: Iterable[QueryRecord]) -> int:
    """Ops that never resolved, or were silently lost.

    Silent loss is a query whose target was published, that returned
    nothing, and that the engine did not flag ``degraded``: the answer
    looks like absence but is loss. A flagged empty answer is an honest
    (degraded) outcome, not a failure.
    """
    failed = 0
    for record in records:
        if not record.done:
            failed += 1
        elif (
            record.target_published
            and record.total_results == 0
            and not record.degraded
        ):
            failed += 1
    return failed


# ----------------------------------------------------------------------
# Host self-time by layer
# ----------------------------------------------------------------------


def layer_of(filename: str) -> str | None:
    """The ``repro.<layer>`` package a source file belongs to, if any."""
    marker = "/repro/"
    at = filename.replace("\\", "/").rfind(marker)
    if at < 0:
        return None
    rest = filename[at + len(marker):]
    head, _, tail = rest.partition("/")
    # a module directly under repro/ (no package) belongs to no layer
    return head if tail else None


@dataclass
class LayerProfile:
    """Profiler self time and call counts, charged to layers."""

    total_seconds: float = 0.0
    seconds: dict[str, float] = field(default_factory=dict)
    calls: dict[str, int] = field(default_factory=dict)
    #: self time with no ``repro`` frame above it (the harness itself)
    unattributed_seconds: float = 0.0

    def share(self, layer: str) -> float:
        if self.total_seconds <= 0:
            return 0.0
        return self.seconds.get(layer, 0.0) / self.total_seconds

    @property
    def share_sum(self) -> float:
        """Sum of every ``repro`` package's share (1 minus the harness)."""
        if self.total_seconds <= 0:
            return 0.0
        return sum(self.seconds.values()) / self.total_seconds


def attribute_layers(stats: dict) -> LayerProfile:
    """Charge every function's self time to a ``repro`` layer.

    ``stats`` is ``pstats.Stats(...).stats``: ``func -> (cc, nc, tt, ct,
    callers)`` with ``func = (filename, line, name)`` and ``callers`` the
    same tuple per calling function (there ``tt`` is the callee's self
    time spent under that caller). A function defined in ``repro.<layer>``
    keeps its own self time. Anything else — a C built-in, the standard
    library, a benchmark callback — is charged to whoever called it, in
    proportion to the callers table, and transitively until a ``repro``
    frame is reached: a span opens exactly where a call crosses a layer
    boundary. Time with no ``repro`` frame above it is the harness's.
    """
    profile = LayerProfile()

    def charge(func, amount: float, trail: frozenset) -> None:
        layer = layer_of(func[0])
        if layer is not None:
            profile.seconds[layer] = profile.seconds.get(layer, 0.0) + amount
            return
        callers = stats[func][4] if func in stats else {}
        callers = {c: v for c, v in callers.items() if c not in trail}
        if not callers:
            profile.unattributed_seconds += amount
            return
        weights = {c: v[2] for c, v in callers.items()}
        if sum(weights.values()) <= 0:
            weights = {c: float(v[1]) for c, v in callers.items()}
        scale = sum(weights.values())
        if scale <= 0:
            profile.unattributed_seconds += amount
            return
        inner = trail | {func}
        for caller, weight in weights.items():
            if weight > 0:
                charge(caller, amount * weight / scale, inner)

    for func, (_cc, nc, tt, _ct, _callers) in stats.items():
        profile.total_seconds += tt
        layer = layer_of(func[0])
        if layer is not None:
            profile.calls[layer] = profile.calls.get(layer, 0) + nc
        if tt > 0:
            charge(func, tt, frozenset())
    return profile

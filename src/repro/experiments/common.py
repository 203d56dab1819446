"""Shared experiment configuration and cached fixtures.

``PAPER_SCALE`` is the down-scaled configuration whose summary statistics
were calibrated against the paper's trace:
2,000 degree-6 ultrapeers + 8,000 leaves stand in for the ~100,000-node
network, with a content library whose replica distribution pins the
paper's reported 23% singleton fraction. ``SMALL_SCALE`` is a faster
configuration for tests and micro-benchmarks.

Builders are cached per scale so experiments and benchmarks that share a
network do not rebuild it.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.gnutella.measurement import MeasurementCampaign, replay_campaign
from repro.gnutella.network import GnutellaNetwork
from repro.gnutella.topology import TopologyConfig
from repro.workload.library import ContentLibrary
from repro.workload.queries import QueryWorkload, generate_workload


@dataclass(frozen=True)
class PaperScale:
    """All scale knobs for one experiment configuration."""

    name: str = "paper"
    # content library (alpha None = calibrate to the singleton fraction)
    num_items: int = 3000
    alpha: float | None = None
    max_replicas: int = 500
    vocabulary_size: int = 2000
    # topology (down-scaled; degree-6 profile keeps horizon/diameter
    # ratios comparable to the real network at 1/50 scale)
    num_ultrapeers: int = 2000
    num_leaves: int = 8000
    # query workload (queries of up to two terms)
    num_queries: int = 350
    # measurement campaign (30 dynamic-querying clients, 150 results wanted)
    max_ttl: int = 4
    seed: int = 42


PAPER_SCALE = PaperScale()

SMALL_SCALE = PaperScale(
    name="small",
    num_items=600,
    max_replicas=120,
    vocabulary_size=600,
    num_ultrapeers=400,
    num_leaves=1600,
    num_queries=120,
    max_ttl=3,
)

_library_cache: dict[str, ContentLibrary] = {}
_network_cache: dict[str, GnutellaNetwork] = {}
_workload_cache: dict[str, QueryWorkload] = {}
_campaign_cache: dict[str, MeasurementCampaign] = {}


def get_library(scale: PaperScale = PAPER_SCALE) -> ContentLibrary:
    if scale.name not in _library_cache:
        _library_cache[scale.name] = ContentLibrary.generate(
            num_items=scale.num_items,
            vocabulary_size=scale.vocabulary_size,
            alpha=scale.alpha,
            max_replicas=scale.max_replicas,
            rng=scale.seed,
        )
    return _library_cache[scale.name]


def get_network(scale: PaperScale = PAPER_SCALE) -> GnutellaNetwork:
    if scale.name not in _network_cache:
        config = TopologyConfig(
            num_ultrapeers=scale.num_ultrapeers,
            num_leaves=scale.num_leaves,
            new_client_fraction=0.0,
            seed=scale.seed + 1,
        )
        _network_cache[scale.name] = GnutellaNetwork.build(
            get_library(scale), config, rng=scale.seed + 2
        )
    return _network_cache[scale.name]


def get_workload(scale: PaperScale = PAPER_SCALE) -> QueryWorkload:
    if scale.name not in _workload_cache:
        _workload_cache[scale.name] = generate_workload(
            get_library(scale),
            scale.num_queries,
            rare_boost=0.44,
            popularity_exponent=0.75,
            max_terms=2,
            rng=scale.seed + 3,
        )
    return _workload_cache[scale.name]


def get_campaign(scale: PaperScale = PAPER_SCALE) -> MeasurementCampaign:
    if scale.name not in _campaign_cache:
        _campaign_cache[scale.name] = replay_campaign(
            get_network(scale),
            get_workload(scale),
            max_ttl=scale.max_ttl,
        )
    return _campaign_cache[scale.name]


@dataclass
class ExperimentResult:
    """A reproduced table/figure, ready to print."""

    experiment_id: str
    title: str
    columns: list[str]
    rows: list[tuple] = field(default_factory=list)
    notes: str = ""

    def format_table(self) -> str:
        """Render as a fixed-width text table."""
        header = [self.columns]
        body = [[_fmt(cell) for cell in row] for row in self.rows]
        widths = [
            max(len(str(row[i])) for row in header + body)
            for i in range(len(self.columns))
        ]
        lines = [f"== {self.experiment_id}: {self.title} =="]
        lines.append("  ".join(str(c).ljust(w) for c, w in zip(self.columns, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for row in body:
            lines.append("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
        if self.notes:
            lines.append(f"note: {self.notes}")
        return "\n".join(lines)

    def column(self, name: str) -> list:
        """Values of one named column across all rows."""
        index = self.columns.index(name)
        return [row[index] for row in self.rows]


def _fmt(cell) -> str:
    if isinstance(cell, float):
        return f"{cell:.3f}" if abs(cell) < 100 else f"{cell:.1f}"
    return str(cell)


def quantile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0..1) of a sample, by linear interpolation.

    Not :func:`repro.sim.stats.nearest_rank`: fig07 and fig12 print the
    percentiles of small samples between ranks, which a nearest-rank pick
    would move to a neighbouring sample.
    """
    if not values:
        raise ValueError("quantile of an empty sample")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0,1], got {q}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    return ordered[low] * (1 - fraction) + ordered[high] * fraction

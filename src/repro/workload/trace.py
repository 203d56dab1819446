"""Trace records and persistence.

Experiments produce traces — per-query observations and the replica
distribution snapshot — that downstream analyses (the analytical model,
the rare-item schemes) consume. ``save_trace``/``load_trace`` round-trip
a :class:`TraceBundle` through JSON so expensive simulation runs can be
replayed without re-simulating.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path


@dataclass(frozen=True)
class QueryObservation:
    """Everything recorded when one query was replayed."""

    query_id: int
    terms: tuple[str, ...]
    #: results seen by the single issuing node
    results_single: int
    #: results seen by the union-of-k measurement (lower bound on truth)
    results_union: int
    #: distinct filenames in the single-node result set
    distinct_single: int
    #: distinct filenames in the union result set
    distinct_union: int
    #: mean replicas over distinct filenames in the union result set
    average_replication: float
    #: seconds until the first result reached the issuing node (inf = none)
    first_result_latency: float


@dataclass
class TraceBundle:
    """A complete captured trace: replica snapshot plus query observations."""

    #: filename -> number of replicas in the network at capture time
    replica_distribution: dict[str, int] = field(default_factory=dict)
    observations: list[QueryObservation] = field(default_factory=list)
    #: free-form capture metadata (network size, seed, horizon, ...)
    metadata: dict[str, float | int | str] = field(default_factory=dict)

    @property
    def num_queries(self) -> int:
        return len(self.observations)


def save_trace(bundle: TraceBundle, path: str | Path) -> None:
    """Serialise ``bundle`` to JSON at ``path``."""
    payload = {
        "replica_distribution": bundle.replica_distribution,
        "observations": [asdict(obs) for obs in bundle.observations],
        "metadata": bundle.metadata,
    }
    Path(path).write_text(json.dumps(payload))


def load_trace(path: str | Path) -> TraceBundle:
    """Load a bundle previously written by :func:`save_trace`."""
    payload = json.loads(Path(path).read_text())
    observations = [
        QueryObservation(
            query_id=entry["query_id"],
            terms=tuple(entry["terms"]),
            results_single=entry["results_single"],
            results_union=entry["results_union"],
            distinct_single=entry["distinct_single"],
            distinct_union=entry["distinct_union"],
            average_replication=entry["average_replication"],
            first_result_latency=entry["first_result_latency"],
        )
        for entry in payload["observations"]
    ]
    return TraceBundle(
        replica_distribution=dict(payload["replica_distribution"]),
        observations=observations,
        metadata=dict(payload.get("metadata", {})),
    )

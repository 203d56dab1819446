"""Trace-driven recall/overhead analysis (Section 6.2).

Applies the analytical model to a captured trace: given each query's
matched items and the network-wide replica distribution, computes the
average QR and QDR of the hybrid system for a given published set, and
the publishing overhead as a fraction of items. These are the
computations behind Figures 9-12 (with the Perfect published set) and
Figures 13-15 (with scheme-selected published sets).
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import mean

from repro.model.analytical import SystemParameters, pf_gnutella


@dataclass(frozen=True)
class QueryMatches:
    """One query's matched distinct filenames (with replica counts)."""

    query_id: int
    #: filename -> number of replicas in the network
    matches: dict[str, int]

    @property
    def total_replicas(self) -> int:
        return sum(self.matches.values())


def publishing_fraction(replication: dict[str, int], published: set[str]) -> float:
    """Fraction of distinct items published (Figure 10's y-axis)."""
    if not replication:
        return 0.0
    return len(published & set(replication)) / len(replication)


def average_qr(
    queries: list[QueryMatches],
    published: set[str],
    horizon_fraction: float,
) -> float:
    """Average Query Recall of the hybrid system (Figures 11, 13, 15).

    Per query, Gnutella's flood finds each matching replica independently
    with probability ``h`` (the horizon fraction), and the DHT returns
    every replica of the published matched items. The result set is the
    union of both systems' answers, which matches the paper's Figure 11
    values: at replica threshold 0 the recall equals the horizon fraction,
    and publishing singletons jumps it to ~47% at a 5% horizon because
    small-result queries' replica mass is dominated by rare items.
    Expected recall is ``h + (1-h) * published_replicas / total``.

    Queries with no matches are skipped, as in the paper (their recall is
    undefined).
    """
    if not 0.0 <= horizon_fraction <= 1.0:
        raise ValueError(f"horizon_fraction must be in [0,1], got {horizon_fraction}")
    recalls: list[float] = []
    for query in queries:
        total = query.total_replicas
        if total == 0:
            continue
        published_replicas = sum(
            replicas
            for filename, replicas in query.matches.items()
            if filename in published
        )
        recall = horizon_fraction + (1.0 - horizon_fraction) * published_replicas / total
        recalls.append(min(1.0, recall))
    return mean(recalls) if recalls else 0.0


def average_qdr(
    queries: list[QueryMatches],
    published: set[str],
    params: SystemParameters,
) -> float:
    """Average Query Distinct Recall (Figures 12, 14).

    Per the paper, "average QDR is exactly PF_hybrid as computed by
    Equation (1)": a published distinct item is always found (PF_dht = 1),
    an unpublished one is found with probability PF_gnutella(R_i).
    """
    recalls: list[float] = []
    for query in queries:
        if not query.matches:
            continue
        found = 0.0
        for filename, replicas in query.matches.items():
            if filename in published:
                found += 1.0
            else:
                found += pf_gnutella(replicas, params)
        recalls.append(found / len(query.matches))
    return mean(recalls) if recalls else 0.0


class TraceModel:
    """Binds a trace (replica distribution + query matches) to the model."""

    def __init__(
        self,
        replication: dict[str, int],
        queries: list[QueryMatches],
        params: SystemParameters,
    ):
        self.replication = replication
        self.queries = queries
        self.params = params

    @classmethod
    def from_campaign(cls, campaign, replication: dict[str, int], params: SystemParameters):
        """Build from a :class:`~repro.gnutella.measurement.MeasurementCampaign`."""
        queries = [
            QueryMatches(
                query_id=replay.query.query_id,
                matches={
                    name: replication.get(name, 1) for name in replay.matched_filenames
                },
            )
            for replay in campaign.replays
        ]
        return cls(replication=replication, queries=queries, params=params)

    def perfect_published(self, replica_threshold: int) -> set[str]:
        """The Perfect scheme: publish every item with R <= threshold."""
        return {
            name
            for name, replicas in self.replication.items()
            if replicas <= replica_threshold
        }

    def sweep_thresholds(
        self, thresholds: list[int], horizon_fractions: list[float]
    ) -> dict[float, list[tuple[int, float, float, float]]]:
        """Figures 9-12 in one sweep.

        Returns horizon_fraction -> list of
        ``(threshold, publishing_fraction, average_qr, average_qdr)``.
        """
        out: dict[float, list[tuple[int, float, float, float]]] = {}
        for horizon in horizon_fractions:
            params = SystemParameters(
                n=self.params.n, n_horizon=int(round(horizon * self.params.n))
            )
            rows: list[tuple[int, float, float, float]] = []
            for threshold in thresholds:
                published = self.perfect_published(threshold)
                rows.append(
                    (
                        threshold,
                        publishing_fraction(self.replication, published),
                        average_qr(self.queries, published, horizon),
                        average_qdr(self.queries, published, params),
                    )
                )
            out[horizon] = rows
        return out

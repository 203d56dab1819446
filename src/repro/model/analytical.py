"""Equations (1)-(5) of Section 6.1.

The model considers a hybrid system of ``N`` nodes where a query first
floods ``N_horizon`` random nodes via Gnutella, and is re-issued into the
DHT when Gnutella returns nothing. The dataclasses mirror the paper's
Table 1 (system parameters) and Table 2 (variables).
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class SystemParameters:
    """Table 1: system parameters of the hybrid model.

    Attributes:
        n: number of nodes in the system (``N``).
        n_horizon: distinct nodes contacted when a query floods
            (``N_horizon``, includes the query node itself).
    """

    n: int
    n_horizon: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"need n >= 1, got {self.n}")
        if not 0 <= self.n_horizon <= self.n:
            raise ValueError(
                f"n_horizon must be in [0, n={self.n}], got {self.n_horizon}"
            )

    @property
    def horizon_fraction(self) -> float:
        return self.n_horizon / self.n

    @property
    def search_cost_dht(self) -> float:
        """CS_dht: cost of a DHT query, log N messages (InvertedCache)."""
        return math.log2(self.n) if self.n > 1 else 1.0


def pf_gnutella(replicas: int, params: SystemParameters) -> float:
    """Equation (2): probability a query flood finds item i.

    ``1 - prod_{j=0}^{Nh-1} (1 - R_i / (N - j))`` — the complement of
    missing the item at every one of the ``N_horizon`` distinct visited
    nodes, sampling without replacement.
    """
    if replicas < 0:
        raise ValueError(f"replicas must be >= 0, got {replicas}")
    if replicas == 0:
        return 0.0
    if replicas >= params.n:
        return 1.0
    miss = 1.0
    for j in range(params.n_horizon):
        remaining = params.n - j
        if replicas >= remaining:
            return 1.0
        miss *= 1.0 - replicas / remaining
    return 1.0 - miss


def pf_hybrid(replicas: int, pf_dht: float, params: SystemParameters) -> float:
    """Equation (1): PF_hybrid = PF_g + (1 - PF_g) * PF_dht."""
    if not 0.0 <= pf_dht <= 1.0:
        raise ValueError(f"pf_dht must be a probability, got {pf_dht}")
    found_gnutella = pf_gnutella(replicas, params)
    return found_gnutella + (1.0 - found_gnutella) * pf_dht


def pf_threshold(replica_threshold: int, params: SystemParameters) -> float:
    """Figure 9's quantity: lower bound on PF_hybrid over all items.

    Items with ``R_i <= threshold`` are published (PF_hybrid = 1); the
    worst unpublished item has ``R = threshold + 1`` and is found only via
    flooding, so the bound is PF_gnutella at ``threshold + 1`` replicas.
    """
    if replica_threshold < 0:
        raise ValueError(f"threshold must be >= 0, got {replica_threshold}")
    return pf_gnutella(replica_threshold + 1, params)


@dataclass(frozen=True)
class HybridCosts:
    """Table 2 cost variables for one item (per time unit)."""

    search_cost: float  # CS_i,hybrid
    overall_cost: float  # CO_i,hybrid


def hybrid_search_cost(
    replicas: int,
    query_frequency: float,
    pf_dht: float,
    params: SystemParameters,
) -> float:
    """Equation (3): CS = Q_i * ((Nh - 1) + PNF_g * CS_dht).

    The DHT re-query only happens for items actually published there; an
    unpublished, unfound item wastes only the flood.
    """
    pnf = 1.0 - pf_gnutella(replicas, params)
    dht_cost = pf_dht * params.search_cost_dht
    return query_frequency * ((params.n_horizon - 1) + pnf * dht_cost)


def hybrid_overall_cost(
    replicas: int,
    query_frequency: float,
    pf_dht: float,
    publish_cost: float,
    lifetime: float,
    params: SystemParameters,
) -> HybridCosts:
    """Equation (4): CO = CS + PF_dht * CP_dht / T_i."""
    if lifetime <= 0:
        raise ValueError(f"lifetime must be > 0, got {lifetime}")
    search = hybrid_search_cost(replicas, query_frequency, pf_dht, params)
    overall = search + pf_dht * publish_cost / lifetime
    return HybridCosts(search_cost=search, overall_cost=overall)


def total_publishing_cost(
    items: list[tuple[float, float]],
) -> float:
    """Equation (5): CP_all = sum_i PF_dht_i * CP_dht_i.

    ``items`` is a list of (pf_dht, publish_cost) pairs.
    """
    return sum(pf_dht * cost for pf_dht, cost in items)

"""Topology crawler and flooding-overhead analysis (Sections 4.1 and 4.3).

The paper crawled ~100,000 Gnutella nodes in 45 minutes by recursively
asking nodes for their neighbour lists from 30 PlanetLab ultrapeers in
parallel. ``crawl`` reproduces that process against a simulated topology
in which every contacted ultrapeer answers. ``flood_overhead_curve``
post-processes the crawled graph exactly as Section 4.3 does to produce
Figure 8: the number of ultrapeers visited versus query messages sent, as
the search horizon deepens.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.gnutella.flooding import flood
from repro.gnutella.topology import Topology


@dataclass
class CrawlResult:
    """What a crawl discovered."""

    discovered_ultrapeers: set[int] = field(default_factory=set)
    discovered_leaves: set[int] = field(default_factory=set)
    #: ultrapeer -> neighbour list as reported to the crawler
    neighbor_lists: dict[int, list[int]] = field(default_factory=dict)
    api_calls: int = 0


def crawl(topology: Topology, seeds: list[int]) -> CrawlResult:
    """Parallel BFS crawl from ``seeds`` using the neighbour-list API."""
    result = CrawlResult()
    frontier = [seed for seed in seeds if topology.is_ultrapeer(seed)]
    result.discovered_ultrapeers.update(frontier)
    contacted: set[int] = set()
    while frontier:
        next_frontier: list[int] = []
        for ultrapeer in frontier:
            if ultrapeer in contacted:
                continue
            contacted.add(ultrapeer)
            result.api_calls += 1
            neighbors = topology.neighbors[ultrapeer]
            result.neighbor_lists[ultrapeer] = list(neighbors)
            result.discovered_leaves.update(topology.ultrapeer_leaves.get(ultrapeer, ()))
            for neighbor in neighbors:
                if neighbor not in result.discovered_ultrapeers:
                    result.discovered_ultrapeers.add(neighbor)
                    next_frontier.append(neighbor)
        frontier = next_frontier
    return result


def flood_overhead_curve(
    topology: Topology,
    origins: list[int],
    max_ttl: int = 10,
) -> list[tuple[float, float]]:
    """Average (messages, ultrapeers visited) per search horizon depth.

    For each origin, floods a match-nothing query at increasing TTL and
    records cumulative messages vs cumulative ultrapeers reached; curves
    are averaged across origins. This is the Figure 8 computation: based
    on the crawled topology, with duplicate messages counted but
    duplicate deliveries suppressed.
    """
    if not origins:
        raise ValueError("need at least one origin")
    empty_indexes: dict = {}
    curves: list[list[tuple[int, int]]] = []
    for origin in origins:
        result = flood(topology, empty_indexes, origin, ["\x00nonexistent\x00"], max_ttl)
        curve = list(zip(result.messages_by_hop, result.visited_by_hop))
        curves.append(curve)
    depth = max(len(curve) for curve in curves)
    averaged: list[tuple[float, float]] = []
    for hop in range(depth):
        points = [curve[min(hop, len(curve) - 1)] for curve in curves]
        mean_messages = sum(point[0] for point in points) / len(points)
        mean_visited = sum(point[1] for point in points) / len(points)
        averaged.append((mean_messages, mean_visited))
    return averaged

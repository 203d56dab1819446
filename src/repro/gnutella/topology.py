"""Gnutella ultrapeer/leaf topology generation.

The crawl in Section 4.1 found that ultrapeers come in two degree
profiles, matching LimeWire's development history: newer ultrapeers keep
32 ultrapeer neighbours and support 30 leaves; older ones keep 6
ultrapeer neighbours and support 75 leaves. Each leaf connects to one
ultrapeer and publishes its file list there.

``build_topology`` generates a random graph honouring those profiles via
stub matching (a configuration-model construction), then patches
connectivity so floods can reach the whole ultrapeer overlay.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.common.rng import make_rng

# Degree profiles from Section 4.1.
NEW_PROFILE = {"neighbors": 32, "leaf_capacity": 30}
OLD_PROFILE = {"neighbors": 6, "leaf_capacity": 75}


@dataclass(frozen=True)
class TopologyConfig:
    """Parameters of a generated Gnutella topology."""

    num_ultrapeers: int = 500
    num_leaves: int = 5000
    #: fraction of ultrapeers running the newer LimeWire profile
    new_client_fraction: float = 0.7
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_ultrapeers < 2:
            raise ValueError("need at least 2 ultrapeers")
        if not 0.0 <= self.new_client_fraction <= 1.0:
            raise ValueError("new_client_fraction must be in [0, 1]")


@dataclass
class Topology:
    """A concrete ultrapeer/leaf graph."""

    ultrapeers: list[int]
    leaves: list[int]
    #: ultrapeer -> its ultrapeer neighbours
    neighbors: dict[int, list[int]]
    #: leaf -> the ultrapeer it is attached to
    leaf_parent: dict[int, int]
    #: ultrapeer -> its leaves
    ultrapeer_leaves: dict[int, list[int]] = field(default_factory=dict)

    @property
    def num_nodes(self) -> int:
        return len(self.ultrapeers) + len(self.leaves)

    def all_nodes(self) -> list[int]:
        return self.ultrapeers + self.leaves

    def is_ultrapeer(self, node: int) -> bool:
        return node in self.neighbors

    def degree(self, ultrapeer: int) -> int:
        return len(self.neighbors[ultrapeer])

    def ultrapeer_of(self, node: int) -> int:
        """The ultrapeer that handles queries for ``node``.

        For an ultrapeer that is the node itself; for a leaf, its parent
        (queries from a leaf are sent to its ultrapeer).
        """
        if node in self.neighbors:
            return node
        try:
            return self.leaf_parent[node]
        except KeyError:
            raise KeyError(f"node {node} is not in the topology") from None

    def connected_ultrapeer_count(self) -> int:
        """Size of the connected component containing the first ultrapeer."""
        if not self.ultrapeers:
            return 0
        start = self.ultrapeers[0]
        seen = {start}
        frontier = [start]
        while frontier:
            next_frontier: list[int] = []
            for node in frontier:
                for neighbor in self.neighbors[node]:
                    if neighbor not in seen:
                        seen.add(neighbor)
                        next_frontier.append(neighbor)
            frontier = next_frontier
        return len(seen)


def build_topology(config: TopologyConfig) -> Topology:
    """Generate a topology honouring the LimeWire degree profiles."""
    rng = make_rng(config.seed)
    ultrapeers = list(range(config.num_ultrapeers))
    leaves = list(
        range(config.num_ultrapeers, config.num_ultrapeers + config.num_leaves)
    )

    profiles = _assign_profiles(ultrapeers, config.new_client_fraction, rng)
    neighbors = _match_stubs(ultrapeers, profiles, rng)
    _ensure_connected(ultrapeers, neighbors, rng)
    leaf_parent, ultrapeer_leaves = _attach_leaves(ultrapeers, leaves, profiles, rng)
    return Topology(
        ultrapeers=ultrapeers,
        leaves=leaves,
        neighbors=neighbors,
        leaf_parent=leaf_parent,
        ultrapeer_leaves=ultrapeer_leaves,
    )


def _assign_profiles(
    ultrapeers: list[int], new_fraction: float, rng: random.Random
) -> dict[int, dict]:
    profiles: dict[int, dict] = {}
    for ultrapeer in ultrapeers:
        profile = NEW_PROFILE if rng.random() < new_fraction else OLD_PROFILE
        profiles[ultrapeer] = profile
    return profiles


def _match_stubs(
    ultrapeers: list[int], profiles: dict[int, dict], rng: random.Random
) -> dict[int, list[int]]:
    """Configuration-model edge construction with target degrees."""
    max_degree = len(ultrapeers) - 1
    stubs: list[int] = []
    for ultrapeer in ultrapeers:
        degree = min(profiles[ultrapeer]["neighbors"], max_degree)
        stubs.extend([ultrapeer] * degree)
    rng.shuffle(stubs)
    neighbors: dict[int, set[int]] = {ultrapeer: set() for ultrapeer in ultrapeers}
    # Pair consecutive stubs; skip self-loops and parallel edges.
    for index in range(0, len(stubs) - 1, 2):
        a, b = stubs[index], stubs[index + 1]
        if a == b or b in neighbors[a]:
            continue
        neighbors[a].add(b)
        neighbors[b].add(a)
    return {ultrapeer: sorted(peers) for ultrapeer, peers in neighbors.items()}


def _ensure_connected(
    ultrapeers: list[int], neighbors: dict[int, list[int]], rng: random.Random
) -> None:
    """Link stray components to the main one (in place)."""
    remaining = set(ultrapeers)
    components: list[list[int]] = []
    while remaining:
        start = next(iter(remaining))
        component = [start]
        seen = {start}
        frontier = [start]
        while frontier:
            next_frontier: list[int] = []
            for node in frontier:
                for neighbor in neighbors[node]:
                    if neighbor not in seen:
                        seen.add(neighbor)
                        component.append(neighbor)
                        next_frontier.append(neighbor)
            frontier = next_frontier
        components.append(component)
        remaining -= seen
    if len(components) <= 1:
        return
    components.sort(key=len, reverse=True)
    main = components[0]
    for component in components[1:]:
        a = rng.choice(component)
        b = rng.choice(main)
        neighbors[a] = sorted(set(neighbors[a]) | {b})
        neighbors[b] = sorted(set(neighbors[b]) | {a})


def _attach_leaves(
    ultrapeers: list[int],
    leaves: list[int],
    profiles: dict[int, dict],
    rng: random.Random,
) -> tuple[dict[int, int], dict[int, list[int]]]:
    """Give each leaf, in order, a random ultrapeer with a free leaf slot."""
    capacity = {up: profiles[up]["leaf_capacity"] for up in ultrapeers}
    available = [up for up in ultrapeers if capacity[up] > 0]
    leaf_parent: dict[int, int] = {}
    ultrapeer_leaves: dict[int, list[int]] = {up: [] for up in ultrapeers}
    for leaf in leaves:
        if available:
            parent = rng.choice(available)
            capacity[parent] -= 1
            if capacity[parent] == 0:
                available.remove(parent)
        else:
            # Network full: over-subscribe a random ultrapeer, as real
            # clients do when no slots are advertised.
            parent = rng.choice(ultrapeers)
        leaf_parent[leaf] = parent
        ultrapeer_leaves[parent].append(leaf)
    return leaf_parent, ultrapeer_leaves

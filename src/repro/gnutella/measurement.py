"""Union-of-k measurement campaign (Section 4.2).

The paper replays each of 700 distinct queries from 30 PlanetLab
ultrapeers and takes the union of the results as a lower bound on the
network's true content ("Union-of-30"). This module reproduces that
campaign against a simulated network.

A dynamic query is answered in closed form, by replica depth. The result
set a vantage obtains in a round with TTL ``t`` is the matching replicas
hosted at ultrapeers within ``t`` hops, so the campaign computes each
vantage's BFS depths once and, per query, each matching replica's depth
(:meth:`GnutellaNetwork.replica_depths`); the stopping TTL
(:func:`dynamic_stop_ttl`) and the first-result latency
(:meth:`GnutellaLatencyModel.arrival_for_depth`) follow from the depths.
``tests/oracle.py`` holds a reference dynamic query that floods round by
round, and the tests hold the closed form equal to it.

Matching lives below this module, shared with the Section 7 deployment:
:class:`ContentMatcher` reads the network's one ``FilenameMatcher`` and
depths come from :meth:`GnutellaNetwork.replica_depths`.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from dataclasses import dataclass, field

from repro.gnutella.network import GnutellaNetwork
from repro.workload.library import SharedFile
from repro.workload.queries import Query, QueryWorkload

#: the paper's campaign: 30 vantages, each a dynamic-querying client that
#: wants 150 results, unioned over the first k of them for each k here
NUM_VANTAGES = 30
DESIRED_RESULTS = 150
UNION_KS = (5, 15, 25, 30)


class ContentMatcher:
    """A placement's matching filenames and replicas for a query.

    Reads the network's shared ``FilenameMatcher`` (same substring
    semantics as :meth:`GnutellaNetwork.all_results_for`, covered by
    tests). An empty query matches every filename.
    """

    def __init__(self, network: GnutellaNetwork):
        if network.placement is None:
            raise ValueError("network has no content placement")
        self.placement = network.placement
        self._matcher = network.matcher

    def matching_filenames(self, terms: list[str]) -> list[str]:
        placed = self.placement.replicas_by_filename
        return [name for name in self._matcher.match(terms) if name in placed]

    def replicas(self, filenames: list[str]) -> list[SharedFile]:
        """Every replica of ``filenames``, filename by filename."""
        placed = self.placement.replicas_by_filename
        return [replica for filename in filenames for replica in placed[filename]]

    def matching_replicas(self, terms: list[str]) -> list[SharedFile]:
        return self.replicas(self.matching_filenames(terms))


@dataclass
class QueryReplay:
    """Results of replaying one query from every vantage."""

    query: Query
    #: result count seen by each vantage individually
    vantage_results: list[int]
    #: k -> union result count over the first k vantages
    union_results_by_k: dict[int, int]
    #: k -> union distinct-filename count over the first k vantages
    union_distinct_by_k: dict[int, int]
    single_results: int
    single_distinct: int
    #: mean replicas per distinct filename in the full-union result set
    average_replication: float
    #: modelled first-result latency at the designated vantage (inf = none)
    first_result_latency: float
    matched_filenames: list[str] = field(default_factory=list)


@dataclass
class MeasurementCampaign:
    """A full replay campaign and its derived statistics."""

    replays: list[QueryReplay]
    vantages: list[int]
    #: dynamic-query client parameters used during the replay
    desired_results: int
    max_ttl: int

    def fraction_with_at_most(self, threshold: int, union_k: int | None = None) -> float:
        """Fraction of queries returning <= ``threshold`` results."""
        if not self.replays:
            return 0.0
        count = sum(
            1
            for replay in self.replays
            if (replay.union_results_by_k[union_k] if union_k else replay.single_results)
            <= threshold
        )
        return count / len(self.replays)

    def fraction_distinct_at_most(self, threshold: int, union_k: int | None = None) -> float:
        """Fraction of queries returning <= ``threshold`` distinct results."""
        if not self.replays:
            return 0.0
        count = sum(
            1
            for replay in self.replays
            if (replay.union_distinct_by_k[union_k] if union_k else replay.single_distinct)
            <= threshold
        )
        return count / len(self.replays)


def replay_campaign(
    network: GnutellaNetwork,
    workload: QueryWorkload,
    max_ttl: int = 4,
) -> MeasurementCampaign:
    """Replay ``workload`` from :data:`NUM_VANTAGES` ultrapeers and union
    results.

    Each vantage behaves like a dynamic-querying LimeWire client: it
    deepens its flood TTL by TTL until it has accumulated
    :data:`DESIRED_RESULTS` results or reaches ``max_ttl``, and its result
    set is everything found up to the stopping TTL.
    """
    vantages = network.random_ultrapeers(NUM_VANTAGES)
    union_ks = tuple(k for k in UNION_KS if k <= len(vantages)) or (len(vantages),)

    depths = [bfs_depths(network, vantage) for vantage in vantages]
    matcher = ContentMatcher(network)

    replays: list[QueryReplay] = []
    for position, query in enumerate(workload):
        replays.append(
            _replay_one(
                network,
                matcher,
                query,
                depths,
                union_ks,
                max_ttl,
                designated=position % len(vantages),
            )
        )
    return MeasurementCampaign(
        replays=replays,
        vantages=vantages,
        desired_results=DESIRED_RESULTS,
        max_ttl=max_ttl,
    )


def bfs_depths(network: GnutellaNetwork, origin: int) -> dict[int, int]:
    """Hop depth of every ultrapeer from ``origin`` over the overlay."""
    topology = network.topology
    start = topology.ultrapeer_of(origin)
    depth = {start: 0}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        for neighbor in topology.neighbors[node]:
            if neighbor not in depth:
                depth[neighbor] = depth[node] + 1
                queue.append(neighbor)
    return depth


def _replay_one(
    network: GnutellaNetwork,
    matcher: ContentMatcher,
    query: Query,
    depths: list[dict[int, int]],
    union_ks: tuple[int, ...],
    max_ttl: int,
    designated: int,
) -> QueryReplay:
    names = matcher.matching_filenames(list(query.terms))
    # One row per matching replica: its filename, and from each vantage
    # its depth (min depth over the ultrapeers indexing it).
    row_names = [replica.filename for replica in matcher.replicas(names)]
    depths_by_vantage = [network.replica_depths(names, each) for each in depths]

    vantage_sets: list[set[int]] = []
    for vantage_depths in depths_by_vantage:
        stop_ttl = dynamic_stop_ttl(vantage_depths, DESIRED_RESULTS, max_ttl)
        vantage_sets.append(
            {row for row, depth in enumerate(vantage_depths) if depth <= stop_ttl}
        )

    union_results_by_k: dict[int, int] = {}
    union_distinct_by_k: dict[int, int] = {}
    running: set[int] = set()
    for count, reached in enumerate(vantage_sets, start=1):
        running |= reached
        if count in union_ks:
            union_results_by_k[count] = len(running)
            union_distinct_by_k[count] = len({row_names[row] for row in running})

    single_set = vantage_sets[designated]
    single_distinct = len({row_names[row] for row in single_set})

    # Average replication over distinct filenames in the full-union set
    # (``running`` by now), approximated from the union as the paper does.
    union_distinct = len({row_names[row] for row in running})
    average_replication = len(running) / union_distinct if running else 0.0

    first_depth = min(depths_by_vantage[designated], default=math.inf)
    latency = network.latency_model.arrival_for_depth(first_depth, max_ttl)

    return QueryReplay(
        query=query,
        vantage_results=[len(reached) for reached in vantage_sets],
        union_results_by_k=union_results_by_k,
        union_distinct_by_k=union_distinct_by_k,
        single_results=len(single_set),
        single_distinct=single_distinct,
        average_replication=average_replication,
        first_result_latency=latency,
        matched_filenames=sorted(set(row_names)),
    )


def dynamic_stop_ttl(depths: list[float], desired_results: int, max_ttl: int) -> int:
    """TTL at which a dynamic-querying client stops deepening.

    The client floods TTL 1, 2, ... and stops as soon as the cumulative
    result count (the replicas at depth ``<= ttl``) reaches
    ``desired_results``, or ``max_ttl`` is hit.
    """
    histogram = Counter(depths)
    for ttl in range(1, max_ttl + 1):
        found = sum(count for depth, count in histogram.items() if depth <= ttl)
        if found >= desired_results:
            return ttl
    return max_ttl

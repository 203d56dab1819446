"""TTL-scoped query flooding.

The core Gnutella query mechanism: an ultrapeer forwards a query to all
its ultrapeer neighbours, who forward recursively until the TTL expires.
Nodes suppress duplicate copies of a query they have already seen (they
do not re-forward), but the duplicate *messages* are still sent and paid
for — this redundancy is exactly the diminishing-returns effect Figure 8
quantifies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.gnutella.index import UltrapeerIndex
from repro.gnutella.topology import Topology
from repro.net import Transport
from repro.workload.library import SharedFile

#: transport category for query edges (one message per forwarded copy)
FLOOD_CATEGORY = "gnutella.query"

#: recent-frequency above which a query counts as popular enough to
#: flood shallower (roughly: one in fifty recent queries)
DEFAULT_POPULAR_FREQUENCY = 0.02


@dataclass(frozen=True)
class Match:
    """One query hit: the file plus the hop depth where it was found."""

    file: SharedFile
    hop: int


@dataclass
class FloodResult:
    """Outcome of flooding one query with a fixed TTL."""

    origin: int
    ttl: int
    matches: list[Match] = field(default_factory=list)
    #: ultrapeers that received the query (including the origin)
    visited: set[int] = field(default_factory=set)
    #: total query messages sent between ultrapeers (duplicates included)
    messages: int = 0
    #: cumulative ultrapeers visited after each hop (index 0 = hop 0)
    visited_by_hop: list[int] = field(default_factory=list)
    #: cumulative messages sent after each hop
    messages_by_hop: list[int] = field(default_factory=list)

    @property
    def num_results(self) -> int:
        return len(self.matches)

    def first_match_hop(self) -> int | None:
        """Shallowest hop at which any match was found, or None."""
        if not self.matches:
            return None
        return min(match.hop for match in self.matches)

    def results(self) -> list[SharedFile]:
        return [match.file for match in self.matches]


def flood(
    topology: Topology,
    indexes: dict[int, UltrapeerIndex],
    origin: int,
    terms: list[str],
    ttl: int,
    transport: Transport | None = None,
    payload_bytes: int = 0,
) -> FloodResult:
    """Flood ``terms`` from ultrapeer ``origin`` for ``ttl`` hops.

    The origin processes the query locally at hop 0. At each subsequent
    hop, every ultrapeer that newly received the query forwards it to all
    neighbours except the one it came from; receivers that already saw the
    query discard it (but the message was still sent and is counted).

    When a ``transport`` is supplied, every forwarded edge — duplicates
    included, since the sender pays for them regardless — is charged to it
    as one framed message of ``payload_bytes`` (one charge per flood), so
    flood overhead lands on the same bandwidth meter as DHT and PIER
    traffic.

    An ultrapeer answers only through its entry in ``indexes``, so an
    empty map floods for the horizon alone: the same ``visited`` (in the
    same order), messages and per-hop curves, no matches, and no index
    scanned.
    """
    if ttl < 0:
        raise ValueError(f"ttl must be >= 0, got {ttl}")
    result = FloodResult(origin=origin, ttl=ttl)
    result.visited.add(origin)
    _record_matches(result, indexes, origin, terms, hop=0)
    result.visited_by_hop.append(1)
    result.messages_by_hop.append(0)

    # frontier holds (node, parent) pairs: nodes that received the query
    # for the first time last hop and will forward this hop.
    frontier: list[tuple[int, int | None]] = [(origin, None)]
    for hop in range(1, ttl + 1):
        next_frontier: list[tuple[int, int | None]] = []
        for node, parent in frontier:
            for neighbor in topology.neighbors[node]:
                if neighbor == parent:
                    continue
                result.messages += 1
                if neighbor in result.visited:
                    continue  # duplicate: dropped by receiver
                result.visited.add(neighbor)
                _record_matches(result, indexes, neighbor, terms, hop)
                next_frontier.append((neighbor, node))
        frontier = next_frontier
        result.visited_by_hop.append(len(result.visited))
        result.messages_by_hop.append(result.messages)
        if not frontier:
            break
    if transport is not None and result.messages:
        edges = result.messages
        framed = transport.cost_model.message_bytes(payload_bytes)
        transport.charge(FLOOD_CATEGORY, edges, edges * framed)
    return result


def popularity_stop_ttl(
    frequency: float,
    max_ttl: int,
    popular_frequency: float = DEFAULT_POPULAR_FREQUENCY,
    min_ttl: int = 1,
) -> int:
    """Partial-flooding TTL for a query with recent ``frequency``.

    The paper's hybrid premise: popular content is so widely replicated
    that shallow floods already find it, so deep floods on popular queries
    pay pure duplicate-message overhead (Figure 8's diminishing returns).
    Queries at or below ``popular_frequency`` keep the full ``max_ttl``;
    above it the TTL shrinks by one hop per doubling of frequency, never
    below ``min_ttl``.
    """
    if max_ttl < 0:
        raise ValueError(f"max_ttl must be >= 0, got {max_ttl}")
    if not 0.0 < popular_frequency <= 1.0:
        raise ValueError(f"popular_frequency must be in (0,1], got {popular_frequency}")
    min_ttl = max(0, min(min_ttl, max_ttl))
    if frequency <= popular_frequency or max_ttl <= min_ttl:
        return max_ttl
    shrink = int(math.log2(frequency / popular_frequency)) + 1
    return max(min_ttl, max_ttl - shrink)


def adaptive_flood(
    topology: Topology,
    indexes: dict[int, UltrapeerIndex],
    origin: int,
    terms: list[str],
    estimator,
    max_ttl: int,
    popular_frequency: float = DEFAULT_POPULAR_FREQUENCY,
    min_ttl: int = 1,
    key: tuple | None = None,
    transport: Transport | None = None,
    payload_bytes: int = 0,
) -> FloodResult:
    """Flood with a TTL scaled down by the query's observed popularity.

    ``estimator`` is a :class:`~repro.cache.popularity.PopularityEstimator`
    (anything with ``observe``/``frequency`` works). The query is observed
    *after* its TTL is chosen, so the first sighting floods at full depth
    and repeats get progressively cheaper. The default key is
    :func:`~repro.cache.popularity.query_key` of the terms — the same
    canonical form the result cache uses — so one estimator can be shared
    between flooding and caching without splitting a query's popularity;
    queries with no indexable keyword fall back to the sorted lowercase
    term tuple so they are still tracked.
    """
    if key is None:
        from repro.cache.popularity import query_key

        key = query_key(terms) or tuple(sorted(term.lower() for term in terms))
    ttl = popularity_stop_ttl(
        estimator.frequency(key), max_ttl, popular_frequency, min_ttl
    )
    estimator.observe(key)
    return flood(
        topology,
        indexes,
        origin,
        terms,
        ttl,
        transport=transport,
        payload_bytes=payload_bytes,
    )


def _record_matches(
    result: FloodResult,
    indexes: dict[int, UltrapeerIndex],
    ultrapeer: int,
    terms: list[str],
    hop: int,
) -> None:
    index = indexes.get(ultrapeer)
    if index is None:
        return
    for file in index.match(terms):
        result.matches.append(Match(file=file, hop=hop))

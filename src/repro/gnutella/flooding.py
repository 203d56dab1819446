"""TTL-scoped query flooding.

The core Gnutella query mechanism: an ultrapeer forwards a query to all
its ultrapeer neighbours, who forward recursively until the TTL expires.
Nodes suppress duplicate copies of a query they have already seen (they
do not re-forward), but the duplicate *messages* are still sent and paid
for — this redundancy is exactly the diminishing-returns effect Figure 8
quantifies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.gnutella.index import UltrapeerIndex
from repro.gnutella.topology import Topology
from repro.net import Transport
from repro.workload.library import SharedFile

#: transport category for query edges (one message per forwarded copy)
FLOOD_CATEGORY = "gnutella.query"


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

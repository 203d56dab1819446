"""TTL-scoped query flooding.

The core Gnutella query mechanism: an ultrapeer forwards a query to all
its ultrapeer neighbours, who forward recursively until the TTL expires.
Nodes suppress duplicate copies of a query they have already seen (they
do not re-forward), but the duplicate *messages* are still sent and paid
for — this redundancy is exactly the diminishing-returns effect Figure 8
quantifies.

A flood here is its horizon alone: which ultrapeers a query reaches and
what reaching them costs. What it finds is read off the network's replica
host table by depth (:meth:`repro.gnutella.network.GnutellaNetwork.replica_depths`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.gnutella.topology import Topology


@dataclass
class FloodResult:
    """Outcome of flooding one query with a fixed TTL."""

    origin: int
    ttl: int
    #: ultrapeers that received the query (including the origin)
    visited: set[int] = field(default_factory=set)
    #: total query messages sent between ultrapeers (duplicates included)
    messages: int = 0
    #: cumulative ultrapeers visited after each hop (index 0 = hop 0)
    visited_by_hop: list[int] = field(default_factory=list)
    #: cumulative messages sent after each hop
    messages_by_hop: list[int] = field(default_factory=list)


def flood(topology: Topology, origin: int, ttl: int) -> FloodResult:
    """Flood a query from ultrapeer ``origin`` for ``ttl`` hops.

    The origin holds the query at hop 0. At each subsequent hop, every
    ultrapeer that newly received the query forwards it to all neighbours
    except the one it came from; receivers that already saw the query
    discard it (but the message was still sent and is counted).
    """
    if ttl < 0:
        raise ValueError(f"ttl must be >= 0, got {ttl}")
    result = FloodResult(origin=origin, ttl=ttl)
    result.visited.add(origin)
    result.visited_by_hop.append(1)
    result.messages_by_hop.append(0)

    # frontier holds (node, parent) pairs: nodes that received the query
    # for the first time last hop and will forward this hop.
    frontier: list[tuple[int, int | None]] = [(origin, None)]
    for _ in range(ttl):
        next_frontier: list[tuple[int, int | None]] = []
        for node, parent in frontier:
            for neighbor in topology.neighbors[node]:
                if neighbor == parent:
                    continue
                result.messages += 1
                if neighbor in result.visited:
                    continue  # duplicate: dropped by receiver
                result.visited.add(neighbor)
                next_frontier.append((neighbor, node))
        frontier = next_frontier
        result.visited_by_hop.append(len(result.visited))
        result.messages_by_hop.append(result.messages)
        if not frontier:
            break
    return result

"""Dynamic querying (iterative deepening).

Gnutella's dynamic querying re-floods queries that returned few results
deeper into the network [Gnutella dynamic-query proposal]. We model it as
iterative deepening: flood with TTL 1, and if the cumulative distinct
result count is below the desired threshold, re-flood with TTL 2, and so
on up to a maximum. Each round re-sends from scratch (that is what the
deployed protocol does), so message costs compound — the inefficiency
Section 4.3 analyses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.gnutella.flooding import FloodResult, flood
from repro.gnutella.index import UltrapeerIndex
from repro.gnutella.topology import Topology
from repro.workload.library import SharedFile

DEFAULT_DESIRED_RESULTS = 50
DEFAULT_MAX_TTL = 7


@dataclass
class DynamicQueryResult:
    """Outcome of a dynamically deepened query."""

    origin: int
    terms: tuple[str, ...]
    rounds: list[FloodResult] = field(default_factory=list)

    @property
    def total_messages(self) -> int:
        return sum(round_.messages for round_ in self.rounds)

    @property
    def final_ttl(self) -> int:
        return self.rounds[-1].ttl if self.rounds else 0

    def results(self) -> list[SharedFile]:
        """Distinct results across rounds (a result = filename + host + size)."""
        seen: set[tuple] = set()
        files: list[SharedFile] = []
        for round_ in self.rounds:
            for match in round_.matches:
                key = match.file.result_key
                if key in seen:
                    continue
                seen.add(key)
                files.append(match.file)
        return files

    @property
    def num_results(self) -> int:
        return len(self.results())

    def first_result_round_and_hop(self) -> tuple[int, int] | None:
        """(round index, hop) of the earliest-arriving result, or None.

        Rounds run sequentially, so the first result overall is the first
        match of the earliest round that has any.
        """
        for round_index, round_ in enumerate(self.rounds):
            hop = round_.first_match_hop()
            if hop is not None:
                return (round_index, hop)
        return None


def dynamic_query(
    topology: Topology,
    indexes: dict[int, UltrapeerIndex],
    origin: int,
    terms: list[str],
    desired_results: int = DEFAULT_DESIRED_RESULTS,
    max_ttl: int = DEFAULT_MAX_TTL,
) -> DynamicQueryResult:
    """Query with iterative deepening from TTL 1 until enough results or
    max TTL."""
    if desired_results < 1:
        raise ValueError(f"desired_results must be >= 1, got {desired_results}")
    result = DynamicQueryResult(origin=origin, terms=tuple(terms))
    distinct: set[tuple] = set()
    for ttl in range(1, max_ttl + 1):
        round_ = flood(topology, indexes, origin, terms, ttl)
        result.rounds.append(round_)
        for match in round_.matches:
            distinct.add(match.file.result_key)
        if len(distinct) >= desired_results:
            break
        if round_.visited_by_hop[-1] == len(topology.ultrapeers):
            break  # the whole overlay has been covered; deeper is futile
    return result

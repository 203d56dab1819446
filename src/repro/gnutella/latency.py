"""First-result latency model.

Section 4.2 measures that queries returning a single result wait 73 s on
average for the first result, ~50 s for queries with <= 10 results, while
queries with > 150 results get their first result in ~6 s. The latency is
dominated not by wire speed but by (a) per-hop forwarding/queueing delay
at loaded ultrapeers and (b) dynamic querying's round structure: rare
items are only reached in late, deep rounds.

The model below computes first-result latency from the round/hop where a
result was first found:

    round r start  = initial_overhead + sum_{i<r} (2*ttl_i*hop_time + round_pause)
    arrival        = round start + 2 * hop * hop_time

Defaults are calibrated so the curve reproduces the paper's endpoints
(~73 s at 1 result, ~6 s at > 150 results) on the default topology.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.gnutella.dynamic import DynamicQueryResult


@dataclass(frozen=True)
class GnutellaLatencyModel:
    """Calibrated latency constants (seconds)."""

    #: one-way per-hop forwarding delay at an ultrapeer
    hop_time: float = 2.5
    #: pause between dynamic-query rounds while awaiting results
    round_pause: float = 8.0
    #: connection setup + leaf-to-ultrapeer submission overhead
    initial_overhead: float = 2.0

    def round_start(self, result: DynamicQueryResult, round_index: int) -> float:
        """Virtual time at which round ``round_index`` begins."""
        start = self.initial_overhead
        for previous in result.rounds[:round_index]:
            start += 2 * previous.ttl * self.hop_time + self.round_pause
        return start

    def arrival_for_depth(self, depth: float, max_ttl: int) -> float:
        """First-arrival time of a result hosted ``depth`` hops away.

        Under iterative deepening a replica at hop ``d`` is first reached
        in the round with TTL ``d``, after rounds 1..d-1 have completed:

            arrival = initial + sum_{t<d} (2 t hop + pause) + 2 d hop

        Returns ``math.inf`` when the replica is beyond ``max_ttl``. This
        closed form matches :meth:`first_result_latency` over an actual
        :class:`DynamicQueryResult` (the tests verify it); event-driven
        drivers (:mod:`repro.hybrid.engine`) schedule one result-arrival
        event per distinct depth at exactly these virtual times.
        """
        if math.isinf(depth) or depth > max_ttl:
            return math.inf
        d = max(1, int(depth))
        arrival = self.initial_overhead
        for ttl in range(1, d):
            arrival += 2 * ttl * self.hop_time + self.round_pause
        return arrival + 2 * d * self.hop_time

    def first_result_latency(self, result: DynamicQueryResult) -> float:
        """Seconds until the first result reaches the query node.

        Returns ``math.inf`` when the query produced no results at all.
        """
        located = result.first_result_round_and_hop()
        if located is None:
            return math.inf
        round_index, hop = located
        start = self.round_start(result, round_index)
        return start + 2 * max(1, hop) * self.hop_time

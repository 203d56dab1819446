"""Extension: search-horizon vs. system-load sweep (Section 4.3 future work).

The paper observes diminishing returns when deepening the flood and defers
"quantify[ing] the impact of increasing the search horizon on the overall
system load" to future work. This experiment does that quantification on
the simulated network: for each flood TTL it reports the per-query message
cost, the fraction of ultrapeers covered, the expected recall for a
singleton item, and the hybrid alternative's cost (one O(log N) DHT query)
— showing the flooding cost growing superlinearly while the hybrid reaches
full rare-item recall at logarithmic cost.
"""

from __future__ import annotations

import math

from repro.experiments.common import ExperimentResult, PaperScale, PAPER_SCALE, get_network
from repro.gnutella.flooding import flood

#: the deepest flood swept, and the ultrapeers each TTL is averaged over
MAX_TTL = 6
NUM_ORIGINS = 5


def run(scale: PaperScale = PAPER_SCALE) -> ExperimentResult:
    network = get_network(scale)
    topology = network.topology
    origins = topology.ultrapeers[:NUM_ORIGINS]
    total_ultrapeers = len(topology.ultrapeers)
    n_nodes = scale.num_ultrapeers + scale.num_leaves
    dht_cost = math.log2(n_nodes)

    rows = []
    for ttl in range(1, MAX_TTL + 1):
        messages = 0.0
        covered = 0.0
        for origin in origins:
            result = flood(topology, origin, ttl)
            messages += result.messages
            covered += len(result.visited)
        messages /= len(origins)
        covered /= len(origins)
        coverage = covered / total_ultrapeers
        # A singleton item is found iff its hosting ultrapeer is covered.
        singleton_recall = coverage
        rows.append(
            (
                ttl,
                messages,
                100.0 * coverage,
                100.0 * singleton_recall,
                messages / dht_cost,
            )
        )
    return ExperimentResult(
        experiment_id="ext-horizon",
        title="Search horizon vs system load (paper future work, Section 4.3)",
        columns=[
            "ttl",
            "messages_per_query",
            "ultrapeer_coverage_pct",
            "singleton_recall_pct",
            "cost_vs_one_dht_query",
        ],
        rows=rows,
        notes=(
            f"a DHT lookup costs ~log2(N) = {dht_cost:.1f} messages and finds "
            "any published singleton with certainty"
        ),
    )

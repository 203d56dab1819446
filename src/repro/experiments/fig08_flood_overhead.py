"""Figure 8: Gnutella flooding overhead (ultrapeers visited vs messages).

Analyses the crawled topology: as the search horizon deepens, duplicate
messages along redundant paths grow faster than newly visited ultrapeers
— the diminishing-returns effect that makes deep flooding for rare items
unscalable (Section 4.3).

This experiment is graph-only, so it runs at a larger-than-default scale
(a 10,000-ultrapeer topology with the paper's 30/75-leaf, 32/6-neighbour
profile mix) and also reports the marginal messages per extra ultrapeer.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentResult, PaperScale, PAPER_SCALE
from repro.gnutella.crawler import crawl, flood_overhead_curve
from repro.gnutella.topology import TopologyConfig, build_topology

#: ultrapeers the flood curves are averaged over
NUM_ORIGINS = 5


def run(scale: PaperScale = PAPER_SCALE) -> ExperimentResult:
    config = TopologyConfig(
        num_ultrapeers=max(scale.num_ultrapeers * 5, 2000),
        num_leaves=0,
        new_client_fraction=0.7,  # the live network's profile mix
        seed=scale.seed + 8,
    )
    topology = build_topology(config)
    # Verify the crawler sees the whole overlay before analysing it.
    crawl_result = crawl(topology, seeds=topology.ultrapeers[:30])
    curve = flood_overhead_curve(
        topology, origins=topology.ultrapeers[:NUM_ORIGINS], max_ttl=8
    )
    rows = []
    previous = (0.0, 1.0)
    for ttl, (messages, visited) in enumerate(curve):
        delta_messages = messages - previous[0]
        delta_visited = visited - previous[1]
        marginal = delta_messages / delta_visited if delta_visited > 0 else float("inf")
        rows.append((ttl, messages, visited, marginal))
        previous = (messages, visited)
    return ExperimentResult(
        experiment_id="fig08",
        title="Flooding overhead: messages vs ultrapeers visited",
        columns=["ttl", "messages", "ultrapeers_visited", "marginal_msgs_per_peer"],
        rows=rows,
        notes=(
            f"crawl discovered {len(crawl_result.discovered_ultrapeers)} ultrapeers; "
            "marginal cost per newly visited peer grows with depth"
        ),
    )

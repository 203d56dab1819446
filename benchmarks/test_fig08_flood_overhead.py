"""Bench fig08: flooding overhead on a crawled topology.

Also contains the dynamic-querying ablation: how many
messages iterative deepening wastes versus a single fixed-TTL flood.
"""

import math

from repro.experiments import fig08_flood_overhead
from repro.experiments.common import SMALL_SCALE
from repro.gnutella.dynamic import dynamic_query
from repro.gnutella.flooding import flood
from repro.gnutella.topology import TopologyConfig, build_topology


def test_fig08(benchmark, scale):
    result = benchmark(
        fig08_flood_overhead.run, scale, num_ultrapeers=2000, num_origins=3
    )
    marginals = [row[3] for row in result.rows if math.isfinite(row[3])]
    assert marginals[-1] > marginals[1]
    last = result.rows[-1]
    assert last[1] > last[2]  # messages exceed peers visited


def test_fig08_dynamic_query_ablation(benchmark):
    """Dynamic querying re-floods each round: strictly more messages than
    one flood at the final TTL, for the same coverage."""
    topology = build_topology(
        TopologyConfig(num_ultrapeers=800, num_leaves=0, seed=4)
    )
    origin = topology.ultrapeers[0]

    def run_ablation():
        deepened = dynamic_query(
            topology, {}, origin, ["nothing"], desired_results=10**9, max_ttl=4
        )
        single = flood(topology, {}, origin, ["nothing"], ttl=deepened.final_ttl)
        return deepened, single

    deepened, single = benchmark(run_ablation)
    assert deepened.total_messages > single.messages
    assert {f for r in deepened.rounds for f in r.visited} == single.visited

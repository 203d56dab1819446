"""Bench fig08: flooding overhead on a crawled topology.

Also contains the dynamic-querying ablation: how many
messages iterative deepening wastes versus a single fixed-TTL flood.
"""

import math

from repro.experiments import fig08_flood_overhead
from repro.experiments.common import SMALL_SCALE
from repro.gnutella.flooding import flood
from repro.gnutella.latency import GnutellaLatencyModel
from repro.gnutella.topology import TopologyConfig, build_topology
from repro.workload.library import Placement

from tests.oracle import reference_dynamic_query, reference_flood


def test_fig08(benchmark, scale):
    result = benchmark(fig08_flood_overhead.run, scale)
    marginals = [row[3] for row in result.rows if math.isfinite(row[3])]
    assert marginals[-1] > marginals[1]
    last = result.rows[-1]
    assert last[1] > last[2]  # messages exceed peers visited


def test_fig08_dynamic_query_ablation(benchmark):
    """Dynamic querying re-floods each round: strictly more messages than
    one flood at the final TTL, for the same coverage. The rounds are the
    reference query's, flooded one by one from scratch; their messages
    are also the sum of the single flood's cumulative per-hop messages."""
    topology = build_topology(
        TopologyConfig(num_ultrapeers=800, num_leaves=0, seed=4)
    )
    origin = topology.ultrapeers[0]

    def run_ablation():
        deepened = reference_dynamic_query(
            topology, Placement(), origin, ["nothing"], 10**9, 4, GnutellaLatencyModel()
        )
        single = flood(topology, origin, ttl=deepened[1])
        return deepened, single

    (found, final_ttl, _, total_messages), single = benchmark(run_ablation)
    assert (found, final_ttl) == ([], 4)
    assert total_messages > single.messages
    assert reference_flood(topology, Placement(), origin, [], 4)[0] == single.visited
    assert total_messages == sum(single.messages_by_hop[1:])

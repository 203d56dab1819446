"""Extension: DHT lookup behaviour under churn.

The paper runs PIER over Bamboo precisely because filesharing networks
churn aggressively [Rhea et al. 2004]; its model and deployment assume
lookups keep working. This experiment quantifies that assumption on our
substrate: for increasing fractions of silently failed nodes (no handoff,
and survivors keep naming the departed in their routing tables — the hard
case), it measures lookup success rate, mean latency, and retries, then
repeats after a stabilization round to show recovery.

The lookup measured is :meth:`DhtNetwork.iter_lookup
<repro.dht.network.DhtNetwork.iter_lookup>`, the hop-by-hop walk every
query workload re-queries with: it never stabilizes, so before the
stabilization round it routes over the stale tables, falls back to a live
successor whenever a table entry names a departed node (one retry each),
and gives up when its hop budget runs out. Timing is iterative-lookup
timing: the querier pays a request and a reply (two one-way draws from
:class:`~repro.sim.latency.UniformLatencyModel`) per node it contacts and
one ``TIMEOUT`` per retry, the wait that told it the node was gone.
"""

from __future__ import annotations

import random
from statistics import mean

from repro.common.errors import DhtError
from repro.common.rng import make_rng
from repro.dht.network import DhtNetwork
from repro.experiments.common import ExperimentResult, PaperScale, PAPER_SCALE
from repro.sim.latency import UniformLatencyModel

FAILURE_FRACTIONS = (0.0, 0.1, 0.2, 0.3)
#: seconds a querier waits before it gives a silent node up
TIMEOUT = 0.5


def run(
    scale: PaperScale = PAPER_SCALE,
    num_nodes: int = 128,
    lookups_per_point: int = 60,
) -> ExperimentResult:
    rows = []
    for fraction in FAILURE_FRACTIONS:
        before = _measure(
            scale.seed, num_nodes, lookups_per_point, fraction,
            stabilized=False,
        )
        after = _measure(
            scale.seed, num_nodes, lookups_per_point, fraction,
            stabilized=True,
        )
        rows.append(
            (
                100.0 * fraction,
                100.0 * before["success"],
                before["latency"],
                before["retries"],
                100.0 * after["success"],
                after["latency"],
            )
        )
    return ExperimentResult(
        experiment_id="ext-churn",
        title="DHT lookups under churn (stale tables vs after stabilization)",
        columns=[
            "failed_pct",
            "success_pct_stale",
            "latency_s_stale",
            "retries_stale",
            "success_pct_stabilized",
            "latency_s_stabilized",
        ],
        rows=rows,
        notes=(
            "silently failed nodes cost timeouts until stabilization "
            "refreshes routing state; success recovers to ~100% after"
        ),
    )


def timed_lookup(
    dht: DhtNetwork,
    key: int,
    origin: int,
    latency: UniformLatencyModel,
    rng: random.Random,
    timeout: float,
) -> tuple[int | None, float, int]:
    """Walk ``key`` from ``origin`` over the tables as they stand.

    Returns ``(owner, seconds, retries)``; ``owner`` is None when the
    walk gave up (dead end, no live successor, hop budget exhausted).
    """
    repairs_before = dht.route_repairs
    seconds = 0.0
    walk = dht.iter_lookup(key, origin)
    owner = None
    try:
        next(walk)  # the origin asks itself for free
        while True:
            node_id = next(walk)
            seconds += latency.delay(origin, node_id, rng)
            seconds += latency.delay(node_id, origin, rng)
    except StopIteration as stop:
        owner = stop.value.owner
    except DhtError:
        pass
    retries = dht.route_repairs - repairs_before
    return owner, seconds + retries * timeout, retries


def _measure(
    seed: int,
    num_nodes: int,
    lookups_per_point: int,
    failure_fraction: float,
    stabilized: bool,
) -> dict[str, float]:
    dht = DhtNetwork(rng=seed + 40)
    dht.populate(num_nodes)
    latency = UniformLatencyModel(0.02, 0.08)
    hop_rng = make_rng(seed + 41)

    rng = make_rng(seed + 42)
    failed = rng.sample(list(dht.nodes), int(failure_fraction * num_nodes))
    # Silent failure: no handoff, and nobody's tables hear of it until a
    # stabilization round drops the departed from them.
    for node_id in failed:
        dht.remove_node(node_id, graceful=False)
    if stabilized:
        dht.stabilize()

    alive = list(dht.nodes)
    outcomes = []
    for _ in range(lookups_per_point):
        key = rng.getrandbits(160)
        origin = rng.choice(alive)
        owner, seconds, retries = timed_lookup(
            dht, key, origin, latency, hop_rng, TIMEOUT
        )
        outcomes.append((owner == dht.owner_of(key), seconds, retries))
    return {
        "success": mean(ok for ok, _, _ in outcomes) if outcomes else 0.0,
        "latency": mean(s for _, s, _ in outcomes) if outcomes else float("inf"),
        "retries": mean(r for _, _, r in outcomes) if outcomes else 0.0,
    }

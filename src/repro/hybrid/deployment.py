"""Partial-deployment simulation (Section 7).

Reproduces the paper's 50-node experiment: fifty hybrid ultrapeers join a
much larger Gnutella network and a private DHT overlay. During a warm-up
phase they snoop results of forwarded background queries and publish rare
items (the QRS scheme). During the test phase, leaf queries of hybrid
ultrapeers that time out on Gnutella are re-issued through PIERSearch:
each one runs as a virtual-time race on the hybrid query engine
(:mod:`repro.hybrid.engine`), flood arrivals against the hop-by-hop DHT
re-query and its streaming dataflow.

:func:`build_deployment` builds the Gnutella network, both query
workloads and the hybrid world (:func:`repro.hybrid.world.build_world`)
without running anything; :meth:`Deployment.run` drives the warm-up and
the test phase, then reduces the drained races into the report.

Reported quantities mirror Section 7: publish bandwidth per file, PIER
first-result latency (with and without InvertedCache), per-query
bandwidth, and the reduction in queries that receive no results.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from statistics import mean

from repro.common.rng import make_rng, spawn_rng
from repro.dht.churn import ChurnProcess
from repro.dht.network import DhtNetwork
from repro.gnutella.flooding import flood
from repro.gnutella.measurement import ContentMatcher, bfs_depths, dynamic_stop_ttl
from repro.gnutella.network import GnutellaNetwork
from repro.gnutella.topology import TopologyConfig
from repro.hybrid.ultrapeer import (
    DEFAULT_GNUTELLA_TIMEOUT,
    QRS_RESULT_SIZE_THRESHOLD,
    HybridQueryOutcome,
    HybridUltrapeer,
)
from repro.hybrid.world import HybridWorld, build_world
from repro.pier.query import JoinStrategy
from repro.workload.library import ContentLibrary
from repro.workload.queries import QueryWorkload, generate_workload


#: clients deepen to TTL 3 here: on the down-scaled overlay that covers
#: a comparable fraction of ultrapeers to a real client's deep flood
CLIENT_MAX_TTL = 3
#: results a leaf client wants before its dynamic query stops deepening
DESIRED_RESULTS = 150
#: virtual time between test-phase leaf queries
QUERY_INTERVAL = 1.0
#: the run's RNG streams, spawned up front in this order: every spawn
#: draws from the seed's stream, so the order fixes each stream's bits
STREAMS = ("library", "gnutella", "dht", "background", "origins", "test",
           "testorigin", "engine", "churn")


@dataclass(frozen=True)
class DeploymentConfig:
    """Scale and behaviour knobs for the deployment experiment."""

    num_ultrapeers: int = 1000
    num_leaves: int = 4000
    num_hybrid: int = 50
    num_items: int = 1500
    num_background_queries: int = 600
    num_test_queries: int = 400
    #: the paper's two plans: Figure 3's InvertedCache scan when set,
    #: else Figure 2's distributed join
    inverted_cache: bool = False
    seed: int = 0
    # --- repro.cache subsystem (0 = disabled, matching the paper) -----
    #: byte budget of the shared ultrapeer result cache
    cache_budget_bytes: int = 0
    #: virtual time between churn steps on the private DHT (0 = no churn)
    churn_interval: float = 0.0
    #: churn steps applied during the test phase
    churn_steps: int = 0
    #: fraction of churn departures that are abrupt failures
    churn_failure_fraction: float = 0.5


@dataclass
class DeploymentReport:
    """Aggregated results of one deployment run."""

    config: DeploymentConfig
    outcomes: list[HybridQueryOutcome] = field(default_factory=list)
    files_published: int = 0
    publish_bytes: int = 0
    #: fraction of test queries with zero Gnutella results
    gnutella_no_result_fraction: float = 0.0
    #: fraction of test queries with zero results under the hybrid policy
    hybrid_no_result_fraction: float = 0.0
    #: fraction of test queries with zero results anywhere in the network
    oracle_no_result_fraction: float = 0.0
    pier_first_result_latencies: list[float] = field(default_factory=list)
    pier_query_bytes: list[int] = field(default_factory=list)
    # --- repro.cache subsystem ---------------------------------------
    cache_hits: int = 0
    cache_misses: int = 0
    #: wire bytes cache hits avoided re-spending
    cache_bytes_saved: int = 0
    # --- hybrid query engine -----------------------------------------
    #: most leaf queries simultaneously in flight in virtual time
    peak_inflight: int = 0
    #: mid-query route repairs performed across all DHT walks
    route_retries: int = 0
    #: re-queries abandoned after exhausting their retry budget
    pier_abandoned: int = 0

    @property
    def publish_kb_per_file(self) -> float:
        if self.files_published == 0:
            return 0.0
        return self.publish_bytes / self.files_published / 1024

    @property
    def no_result_reduction(self) -> float:
        """Relative reduction in no-result queries achieved by the hybrid."""
        if self.gnutella_no_result_fraction == 0:
            return 0.0
        return (
            self.gnutella_no_result_fraction - self.hybrid_no_result_fraction
        ) / self.gnutella_no_result_fraction

    @property
    def potential_reduction(self) -> float:
        """Upper bound: reduction if every available rare item were indexed."""
        if self.gnutella_no_result_fraction == 0:
            return 0.0
        return (
            self.gnutella_no_result_fraction - self.oracle_no_result_fraction
        ) / self.gnutella_no_result_fraction

    @property
    def mean_pier_latency(self) -> float:
        """Mean PIER first-result time, excluding the Gnutella timeout wait."""
        if not self.pier_first_result_latencies:
            return 0.0
        return mean(self.pier_first_result_latencies)

    @property
    def mean_pier_query_kb(self) -> float:
        if not self.pier_query_bytes:
            return 0.0
        return mean(self.pier_query_bytes) / 1024

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of cache lookups that hit (0.0 when caching is off)."""
        lookups = self.cache_hits + self.cache_misses
        if lookups == 0:
            return 0.0
        return self.cache_hits / lookups

    @property
    def mean_hybrid_latency_rare(self) -> float:
        """Mean first-result latency for queries answered via PIER."""
        latencies = [
            outcome.first_result_latency
            for outcome in self.outcomes
            if outcome.used_pier and outcome.pier_results > 0
        ]
        return mean(latencies) if latencies else math.inf


@dataclass
class Deployment:
    """A built Section 7 deployment: the hybrid world plus its Gnutella side.

    Nothing has run yet; :meth:`run` drives the warm-up and the test phase
    and reduces the resolved races into a :class:`DeploymentReport`.
    """

    config: DeploymentConfig
    world: HybridWorld
    gnutella: GnutellaNetwork
    #: forwarded traffic the hybrid ultrapeers snoop during the warm-up
    background: QueryWorkload
    #: leaf queries of hybrid ultrapeers, one per ``QUERY_INTERVAL``
    test: QueryWorkload
    streams: dict[str, random.Random]

    def run(self) -> DeploymentReport:
        return self.reduce(self.drive())

    def drive(self) -> int:
        """Run the warm-up, then the test phase until the simulator drains.

        Returns how many test queries match no replica anywhere in the
        network (the oracle's no-result count).
        """
        config, world, gnutella = self.config, self.world, self.gnutella
        hybrid_by_ultrapeer = {hybrid.ultrapeer_id: hybrid for hybrid in world.hybrids}
        matcher = ContentMatcher(gnutella)

        # --- Warm-up: hybrid ultrapeers snoop background traffic ------
        origin_rng = self.streams["origins"]
        for query in self.background:
            origin = origin_rng.choice(gnutella.topology.ultrapeers)
            _observe_background_query(
                gnutella, matcher, hybrid_by_ultrapeer, origin, query
            )

        # --- Test phase: leaf queries of hybrid ultrapeers ------------
        sim, engine, hybrids = world.sim, world.engine, world.hybrids
        if config.churn_interval > 0 and config.churn_steps > 0:
            churn = ChurnProcess(
                world.dht,
                rng=self.streams["churn"],
                failure_fraction=config.churn_failure_fraction,
            )
            churn.schedule(sim, config.churn_interval, config.churn_steps)
        depths_cache: dict[int, dict[int, int]] = {}
        test_rng = self.streams["testorigin"]
        unanswerable = 0

        def run_test_query(query) -> None:
            nonlocal unanswerable
            hybrid = test_rng.choice(hybrids)
            depths = depths_cache.get(hybrid.ultrapeer_id)
            if depths is None:
                depths = bfs_depths(gnutella, hybrid.ultrapeer_id)
                depths_cache[hybrid.ultrapeer_id] = depths
            match_depths = gnutella.replica_depths(
                matcher.matching_filenames(list(query.terms)), depths
            )
            stop_ttl = dynamic_stop_ttl(match_depths, DESIRED_RESULTS, CLIENT_MAX_TTL)
            hybrid.handle_leaf_query_simulated(
                engine, list(query.terms), match_depths, stop_ttl
            )
            unanswerable += 1 if not match_depths else 0

        # Leaf queries arrive as simulator events, one every QUERY_INTERVAL
        # of virtual time — this is the clock the cache's TTLs, churn and
        # the races run on.
        for position, query in enumerate(self.test):
            sim.schedule_at(
                position * QUERY_INTERVAL,
                lambda query=query: run_test_query(query),
            )
        sim.run()
        return unanswerable

    def reduce(self, unanswerable: int) -> DeploymentReport:
        """Aggregate the drained races into the Section 7 report.

        Outcomes are final only once the simulator drains (races resolve
        long after submission), so every per-query aggregate is derived
        here, in one pass.
        """
        config, world = self.config, self.world
        engine, hybrids = world.engine, world.hybrids
        report = DeploymentReport(config=config)
        report.outcomes = [race.outcome for race in engine.races]
        n = len(self.test)
        gnutella_zero = hybrid_zero = 0
        for outcome in report.outcomes:
            # The race counted the replicas within stop_ttl when it was
            # submitted.
            if outcome.gnutella_results == 0:
                gnutella_zero += 1
            if outcome.total_results == 0:
                hybrid_zero += 1
            if outcome.used_pier:
                if not outcome.cache_hit:
                    report.pier_query_bytes.append(outcome.pier_bytes)
                if outcome.pier_results > 0:
                    report.pier_first_result_latencies.append(
                        outcome.pier_latency - DEFAULT_GNUTELLA_TIMEOUT
                    )
        report.peak_inflight = engine.peak_inflight
        report.route_retries = sum(race.route_retries for race in engine.races)
        report.pier_abandoned = sum(1 for race in engine.races if race.pier_failed)
        report.gnutella_no_result_fraction = gnutella_zero / n
        report.hybrid_no_result_fraction = hybrid_zero / n
        report.oracle_no_result_fraction = unanswerable / n
        report.files_published = sum(hybrid.files_published for hybrid in hybrids)
        report.publish_bytes = sum(hybrid.publish_bytes for hybrid in hybrids)
        if world.cache is not None:
            report.cache_hits = world.cache.stats.hits
            report.cache_misses = world.cache.stats.misses
            report.cache_bytes_saved = world.cache.stats.bytes_saved
        return report


def build_deployment(config: DeploymentConfig | None = None) -> Deployment:
    """Build the Gnutella network, its 50 hybrid ultrapeers over a private
    DHT, and both query workloads; nothing is run."""
    config = config or DeploymentConfig()
    rng = make_rng(config.seed)
    streams = {label: spawn_rng(rng, label) for label in STREAMS}

    # --- The Gnutella network with content ----------------------------
    library = ContentLibrary.generate(
        num_items=config.num_items,
        alpha=0.6,
        max_replicas=max(50, config.num_items // 6),
        rng=streams["library"],
    )
    topology_config = TopologyConfig(
        num_ultrapeers=config.num_ultrapeers,
        num_leaves=config.num_leaves,
        new_client_fraction=0.0,
        seed=config.seed + 1,
    )
    gnutella = GnutellaNetwork.build(library, topology_config, rng=streams["gnutella"])

    # --- The hybrid overlay: 50 ultrapeers with a private DHT ---------
    hybrid_ids = gnutella.random_ultrapeers(config.num_hybrid)
    dht = DhtNetwork(rng=streams["dht"])
    dht.populate(config.num_hybrid)
    # The result cache is shared by all hybrid ultrapeers (they form one
    # overlay tier).
    world = build_world(
        dht,
        hybrid_ids,
        strategy=(
            JoinStrategy.INVERTED_CACHE
            if config.inverted_cache
            else JoinStrategy.DISTRIBUTED_JOIN
        ),
        rng=streams["engine"],
        cache_budget_bytes=config.cache_budget_bytes,
    )
    def workload(size: int, stream: str) -> QueryWorkload:
        return generate_workload(
            library, size, rare_boost=0.30, popularity_exponent=0.75,
            max_terms=2, rng=streams[stream],
        )

    return Deployment(
        config, world, gnutella,
        background=workload(config.num_background_queries, "background"),
        test=workload(config.num_test_queries, "test"),
        streams=streams,
    )


def run_deployment(config: DeploymentConfig | None = None) -> DeploymentReport:
    """Run the full Section 7 experiment and return the report."""
    return build_deployment(config).run()


def _observe_background_query(
    gnutella: GnutellaNetwork,
    matcher: ContentMatcher,
    hybrid_by_ultrapeer: dict[int, HybridUltrapeer],
    origin: int,
    query,
) -> None:
    """One background query from ultrapeer ``origin``: hybrid ultrapeers on
    its path snoop results.

    A hybrid ultrapeer sees the results of queries it forwarded. The
    flood's visited set is the set of forwarding ultrapeers, so every
    hybrid ultrapeer inside the (TTL-limited) horizon observes the result
    set and applies the QRS rule. The flood runs over an empty index map,
    for its horizon alone: the result set is read once, below, from the
    network's replica host table, so no visited ultrapeer's index is
    asked. It is read only up to the QRS threshold: a result set that
    long is dropped by every observer, so the rest of it is never built.
    """
    horizon = flood(gnutella.topology, {}, origin, [], ttl=2).visited
    observers = [hybrid_by_ultrapeer[up] for up in horizon if up in hybrid_by_ultrapeer]
    if not observers:
        return
    names = matcher.matching_filenames(list(query.terms))
    # The snooped result stream is what came back through the flood: the
    # replicas whose hosting ultrapeers the flood reached.
    visible = gnutella.replicas_hosted_by(names, horizon, QRS_RESULT_SIZE_THRESHOLD)
    for hybrid in observers:
        hybrid.observe_query_results(visible)

"""Partial-deployment simulation (Section 7).

Reproduces the paper's 50-node experiment: fifty hybrid ultrapeers join a
much larger Gnutella network and a private DHT overlay. During a warm-up
phase they snoop results of forwarded background queries and publish rare
items (the QRS scheme). During the test phase, leaf queries of hybrid
ultrapeers that time out on Gnutella are re-issued through PIERSearch:
each one runs as a virtual-time race on the hybrid query engine
(:mod:`repro.hybrid.engine`), flood arrivals against the hop-by-hop DHT
re-query and its streaming dataflow.

Reported quantities mirror Section 7: publish bandwidth per file, PIER
first-result latency (with and without InvertedCache), per-query
bandwidth, and the reduction in queries that receive no results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from statistics import mean

from repro.cache.popularity import PopularityEstimator, query_key
from repro.cache.replication import AdaptiveReplicationController, ReplicationConfig
from repro.cache.results import QueryResultCache
from repro.common.rng import make_rng, spawn_rng
from repro.dht.churn import ChurnProcess
from repro.dht.network import DhtNetwork
from repro.hybrid.engine import HybridQueryEngine, RaceConfig
from repro.gnutella.flooding import flood
from repro.gnutella.measurement import ContentMatcher, bfs_depths, dynamic_stop_ttl
from repro.gnutella.network import GnutellaNetwork
from repro.gnutella.topology import TopologyConfig
from repro.hybrid.ultrapeer import HybridQueryOutcome, HybridUltrapeer
from repro.pier.catalog import Catalog
from repro.piersearch.publisher import Publisher
from repro.piersearch.search import SearchEngine
from repro.sim.engine import Simulator
from repro.workload.library import ContentLibrary
from repro.workload.queries import generate_workload


@dataclass(frozen=True)
class DeploymentConfig:
    """Scale and behaviour knobs for the deployment experiment."""

    num_ultrapeers: int = 1000
    num_leaves: int = 4000
    num_hybrid: int = 50
    num_items: int = 1500
    num_background_queries: int = 600
    num_test_queries: int = 400
    inverted_cache: bool = False
    #: price all four join strategies (distributed/semi/Bloom join,
    #: InvertedCache) per re-query with the cost-based optimizer and run
    #: the cheapest; False keeps the fixed per-deployment strategy
    cost_optimizer: bool = False
    qrs_threshold: int = 20
    gnutella_timeout: float = 30.0
    #: clients deepen to TTL 3 here: on the down-scaled overlay that covers
    #: a comparable fraction of ultrapeers to a real client's deep flood
    client_max_ttl: int = 3
    desired_results: int = 150
    seed: int = 0
    # --- repro.cache subsystem (0 budget = disabled, matching the paper) --
    #: byte budget of the shared ultrapeer result cache
    cache_budget_bytes: int = 0
    cache_policy: str = "lru"
    #: result entries expire after this much virtual time (None = never)
    cache_ttl: float | None = None
    #: recent sightings a query needs before its answer is admitted
    cache_admission_min: int = 1
    #: recent read-target resolutions of one DHT key — about one per plan
    #: stage or item fetch touching it — that make it hot (0 = replication off)
    hot_read_threshold: int = 0
    #: replicas placed per hot key beyond the natural owner
    replication_extra: int = 2
    #: virtual time between test-phase leaf queries
    query_interval: float = 1.0
    # --- hybrid query engine (repro.hybrid.engine) --------------------
    #: mean one-way DHT hop latency used by the engine's draws
    dht_hop_latency: float = 1.2
    #: fractional jitter of each per-hop latency draw
    hop_jitter: float = 0.35
    #: exchange batch size override (None = planner's per-plan choice)
    batch_size: int | None = None
    #: per-site join memory budget in *rows* (None = unbounded, no
    #: eviction); also fed to the cost optimizer's memory-pressure pricer
    memory_budget: int | None = None
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
    #: hot posting-list keys the replication controller spread out
    replicated_keys: int = 0
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


def run_deployment(config: DeploymentConfig | None = None) -> DeploymentReport:
    """Run the full Section 7 experiment and return the report."""
    config = config or DeploymentConfig()
    if config.cost_optimizer and config.inverted_cache:
        # An InvertedCache deployment has already fixed its strategy (and
        # prepaid the bandwidth at publish time); silently ignoring the
        # optimizer would report numbers from a configuration that never
        # ran the four-way choice.
        raise ValueError(
            "cost_optimizer=True requires inverted_cache=False: the "
            "optimizer prices strategies against the Inverted index"
        )
    rng = make_rng(config.seed)

    # --- Assemble the Gnutella network with content -------------------
    library = ContentLibrary.generate(
        num_items=config.num_items,
        alpha=0.6,
        max_replicas=max(50, config.num_items // 6),
        rng=spawn_rng(rng, "library"),
    )
    topology_config = TopologyConfig(
        num_ultrapeers=config.num_ultrapeers,
        num_leaves=config.num_leaves,
        new_client_fraction=0.0,
        seed=config.seed + 1,
    )
    gnutella = GnutellaNetwork.build(
        library, topology_config, rng=spawn_rng(rng, "gnutella")
    )

    # --- The hybrid overlay: 50 ultrapeers with a private DHT ---------
    hybrid_ids = gnutella.random_ultrapeers(config.num_hybrid)
    dht = DhtNetwork(rng=spawn_rng(rng, "dht"))
    dht_nodes = dht.populate(config.num_hybrid)
    catalog = Catalog(dht)
    publisher = Publisher(dht, catalog, inverted_cache=config.inverted_cache)
    search_engine = SearchEngine(
        dht,
        catalog,
        inverted_cache=config.inverted_cache,
        optimizer=config.cost_optimizer,
        memory_budget=config.memory_budget,
    )

    # --- The repro.cache subsystem (off unless configured) ------------
    # The result cache and popularity stream are shared by all hybrid
    # ultrapeers (they form one overlay tier); virtual time comes from the
    # event engine that drives the test phase.
    sim = Simulator()
    result_cache: QueryResultCache | None = None
    popularity: PopularityEstimator | None = None
    controller: AdaptiveReplicationController | None = None
    if config.cache_budget_bytes > 0:
        popularity = PopularityEstimator(
            capacity=128, window=max(64, config.num_test_queries)
        )
        admission = None
        if config.cache_admission_min > 1:
            minimum, estimator = config.cache_admission_min, popularity
            admission = lambda key: estimator.recent_count(key) >= minimum  # noqa: E731
        result_cache = QueryResultCache(
            config.cache_budget_bytes,
            policy=config.cache_policy,
            ttl=config.cache_ttl,
            clock=lambda: sim.now,
            cost_model=dht.cost_model,
            admission=admission,
        )
    if config.hot_read_threshold > 0:
        controller = AdaptiveReplicationController(
            dht,
            ReplicationConfig(
                hot_read_threshold=config.hot_read_threshold,
                extra_replicas=config.replication_extra,
            ),
            clock=lambda: sim.now,
        )

    hybrids = [
        HybridUltrapeer(
            ultrapeer_id=ultrapeer,
            dht_node_id=node.node_id,
            publisher=publisher,
            search_engine=search_engine,
            qrs_threshold=config.qrs_threshold,
            gnutella_timeout=config.gnutella_timeout,
            result_cache=result_cache,
            popularity=popularity,
        )
        for ultrapeer, node in zip(hybrid_ids, dht_nodes)
    ]
    hybrid_by_ultrapeer = {hybrid.ultrapeer_id: hybrid for hybrid in hybrids}

    matcher = ContentMatcher(gnutella)
    latency_model = gnutella.latency_model

    # --- Warm-up: hybrid ultrapeers snoop background traffic ----------
    background = generate_workload(
        library,
        config.num_background_queries,
        rare_boost=0.30,
        popularity_exponent=0.75,
        max_terms=2,
        rng=spawn_rng(rng, "background"),
    )
    origin_rng = spawn_rng(rng, "origins")
    for query in background:
        origin = origin_rng.choice(gnutella.topology.ultrapeers)
        if popularity is not None:
            # Hybrid ultrapeers snoop forwarded queries, so background
            # traffic warms the popularity view the cache admits against.
            key = query_key(query.terms)
            if key:
                popularity.observe(key)
        _observe_background_query(
            gnutella, matcher, hybrid_by_ultrapeer, origin, query, config
        )

    # --- Test phase: leaf queries of hybrid ultrapeers ----------------
    test = generate_workload(
        library,
        config.num_test_queries,
        rare_boost=0.30,
        popularity_exponent=0.75,
        max_terms=2,
        rng=spawn_rng(rng, "test"),
    )
    report = DeploymentReport(config=config)
    depths_cache: dict[int, dict[int, int]] = {}
    test_rng = spawn_rng(rng, "testorigin")
    gnutella_zero = oracle_zero = 0

    engine = HybridQueryEngine(
        sim,
        dht,
        latency_model=latency_model,
        config=RaceConfig(
            dht_hop_latency=config.dht_hop_latency,
            hop_jitter=config.hop_jitter,
            batch_size=config.batch_size,
            memory_budget=config.memory_budget,
        ),
        rng=spawn_rng(rng, "engine"),
    )
    if config.churn_interval > 0 and config.churn_steps > 0:
        churn = ChurnProcess(
            dht,
            rng=spawn_rng(rng, "churn"),
            failure_fraction=config.churn_failure_fraction,
        )
        churn.schedule(sim, config.churn_interval, config.churn_steps)

    def run_test_query(query) -> None:
        nonlocal gnutella_zero, oracle_zero
        hybrid = test_rng.choice(hybrids)
        depths = depths_cache.get(hybrid.ultrapeer_id)
        if depths is None:
            depths = bfs_depths(gnutella, hybrid.ultrapeer_id)
            depths_cache[hybrid.ultrapeer_id] = depths
        match_depths = gnutella.replica_depths(
            matcher.matching_filenames(list(query.terms)), depths
        )
        stop_ttl = dynamic_stop_ttl(
            match_depths, config.desired_results, config.client_max_ttl
        )
        race = hybrid.handle_leaf_query_simulated(
            engine, list(query.terms), match_depths, stop_ttl
        )
        report.outcomes.append(race.outcome)
        # The race counted the replicas within stop_ttl when it was submitted.
        gnutella_zero += 1 if race.outcome.gnutella_results == 0 else 0
        oracle_zero += 1 if not match_depths else 0

    # Leaf queries arrive as simulator events, one every query_interval of
    # virtual time — this is the clock the cache's TTLs, the replication
    # controller's expiries, churn, and the races run on.
    for position, query in enumerate(test):
        sim.schedule_at(
            position * config.query_interval,
            lambda query=query: run_test_query(query),
        )
    sim.run()

    # Outcomes are final only once the simulator drains (races resolve
    # long after submission), so derive the per-query aggregates in a
    # single post-run pass.
    n = len(test)
    hybrid_zero = 0
    for outcome in report.outcomes:
        if outcome.total_results == 0:
            hybrid_zero += 1
        if outcome.used_pier:
            if not outcome.cache_hit:
                report.pier_query_bytes.append(outcome.pier_bytes)
            if outcome.pier_results > 0:
                report.pier_first_result_latencies.append(
                    outcome.pier_latency - config.gnutella_timeout
                )
    report.peak_inflight = engine.peak_inflight
    report.route_retries = sum(race.route_retries for race in engine.races)
    report.pier_abandoned = sum(1 for race in engine.races if race.pier_failed)
    report.gnutella_no_result_fraction = gnutella_zero / n
    report.hybrid_no_result_fraction = hybrid_zero / n
    report.oracle_no_result_fraction = oracle_zero / n
    report.files_published = sum(hybrid.files_published for hybrid in hybrids)
    report.publish_bytes = sum(hybrid.publish_bytes for hybrid in hybrids)
    if result_cache is not None:
        report.cache_hits = result_cache.stats.hits
        report.cache_misses = result_cache.stats.misses
        report.cache_bytes_saved = result_cache.stats.bytes_saved
    if controller is not None:
        report.replicated_keys = controller.stats.replicated_keys
        controller.detach()
    return report


def _observe_background_query(
    gnutella: GnutellaNetwork,
    matcher: ContentMatcher,
    hybrid_by_ultrapeer: dict[int, HybridUltrapeer],
    origin: int,
    query,
    config: DeploymentConfig,
) -> None:
    """One background query from ultrapeer ``origin``: hybrid ultrapeers on
    its path snoop results.

    A hybrid ultrapeer sees the results of queries it forwarded. The
    flood's visited set is the set of forwarding ultrapeers, so every
    hybrid ultrapeer inside the (TTL-limited) horizon observes the result
    set and applies the QRS rule. The flood runs over an empty index map,
    for its horizon alone: the result set is worked out once, below, from
    the network's replica host table, so no visited ultrapeer's index is
    asked. The deployment's network has no transport to charge.
    """
    horizon = flood(gnutella.topology, {}, origin, [], ttl=2).visited
    observers = [hybrid_by_ultrapeer[up] for up in horizon if up in hybrid_by_ultrapeer]
    if not observers:
        return
    names = matcher.matching_filenames(list(query.terms))
    # The snooped result stream is what came back through the flood: the
    # replicas whose hosting ultrapeers the flood reached.
    depths = gnutella.replica_depths(names, dict.fromkeys(horizon, 0))
    visible = [
        file for file, depth in zip(matcher.replicas(names), depths) if depth == 0
    ]
    for hybrid in observers:
        hybrid.observe_query_results(visible)

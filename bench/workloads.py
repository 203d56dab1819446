"""The six workloads: how each world is built, drained and read back.

A workload builds a fresh *world* from ``(seed, world index)`` through
``repro``'s public constructors (timed as set-up), drains it (the timed
region), and reduces what happened to an :class:`Outcome`: per-op rows for
the digest, exact simulated statistics, exact per-layer counts, and the
output checks. Every knob ROADMAP slates for deletion is left at its
default; ``bench/tests/test_lint.py`` enforces that.

Arrivals are an open-loop schedule in *virtual* time, pre-drawn from the
seed during set-up; the host drains it as fast as it can.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from repro.cache.results import QueryResultCache
from repro.common.rng import make_rng, spawn_rng
from repro.common.zipf import ZipfSampler
from repro.dht.churn import ChurnProcess
from repro.dht.network import DhtNetwork
from repro.dht.ring import bytes_per_peer
from repro.hybrid.deployment import DeploymentConfig, run_deployment
from repro.hybrid.engine import HybridQueryEngine, RaceConfig
from repro.hybrid.ultrapeer import HybridUltrapeer
from repro.obs import MetricsRegistry, Tracer
from repro.pier.catalog import Catalog
from repro.piersearch.publisher import Publisher
from repro.piersearch.search import SearchEngine
from repro.sim.engine import Simulator
from repro.sim.shard import run_sharded

from bench.reducers import QueryRecord, count_failed_queries, percentile
from bench.shardprog import LOOKAHEAD, ChainScenario, merge_digests


@dataclass
class Obs:
    """The observability objects of one traced repeat."""

    tracer: Tracer = field(default_factory=Tracer)
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)


@dataclass
class Outcome:
    """What one drained world reports."""

    attempted: int
    failed: int
    #: one row per op, in submission order — the digest's input
    rows: list[tuple]
    #: exact simulated statistics (identical for identical seeds)
    sim: dict[str, float]
    #: exact per-layer counts, already normalised per op where named so
    counts: dict[str, float]
    #: output checks: name -> passed
    checks: dict[str, bool]


class Workload:
    """One named workload: builds worlds, at full or ``--quick`` size."""

    name: str
    #: the world accepts a tracer and a metrics registry
    supports_obs = False
    #: Worlds a run cycles through. Where the work per op swings with what
    #: the seed draws (which node churn removes, which topology, which
    #: queries are hot), a run's numbers are taken over several worlds so
    #: that they move less from seed to seed.
    worlds_per_run = 1

    def __init__(self, quick: bool):
        self.quick = quick

    def build(self, seed: int, world: int, obs: "Obs | None"):
        raise NotImplementedError

    def build_warmup(self, seed: int):
        """The untimed first repeat; its digest is world 0's reference."""
        return self.build(seed, 0, None)


def world_seed(seed: int, world: int) -> int:
    return seed * 1_000_003 + world


def world_rng(seed: int, world: int) -> random.Random:
    """Root stream of one world; sub-streams are spawned by label."""
    return make_rng(world_seed(seed, world))


# ----------------------------------------------------------------------
# Meter helpers
# ----------------------------------------------------------------------


Traffic = dict[str, tuple[int, int]]  # meter category -> (messages, bytes)


class DhtBaseline:
    """The DHT's meter and route-cache counters as set-up left them, so the
    timed region's share can be read off afterwards."""

    def __init__(self, dht: DhtNetwork):
        self.dht = dht
        self.meter = self._meter()
        self.route = (dht.route_cache_hits, dht.route_cache_misses)

    def _meter(self) -> Traffic:
        return {
            category: (cost.messages, cost.bytes)
            for category, cost in self.dht.meter.by_category.items()
        }

    def traffic(self) -> Traffic:
        """Messages and bytes charged per category since set-up."""
        delta = {}
        for category, (messages, byte_count) in self._meter().items():
            base = self.meter.get(category, (0, 0))
            if (messages, byte_count) != base:
                delta[category] = (messages - base[0], byte_count - base[1])
        return delta

    def route_cache_hit_rate(self) -> float:
        hits = self.dht.route_cache_hits - self.route[0]
        misses = self.dht.route_cache_misses - self.route[1]
        return hits / (hits + misses) if hits + misses else 0.0


def bytes_under(traffic: Traffic, prefix: str) -> int:
    return sum(b for category, (_, b) in traffic.items() if category.startswith(prefix))


#: per-layer ``net.kb_*`` metric -> meter category prefixes it sums
NET_GROUPS = {
    "net.kb_dht_get": ("dht.get", "fetch."),
    "net.kb_dht_put": ("dht.put",),
    "net.kb_pier_query": ("pier.query",),
    "net.kb_pier_answer": ("pier.answer", "pier.item_fetch"),
    "net.kb_publish": ("publish.",),
    "net.kb_handoff": ("dht.handoff",),
}


def net_counts(delta: Traffic, ops: int) -> dict[str, float]:
    """Wire KB per op by traffic group, plus messages per op."""
    counts = {name: 0.0 for name in NET_GROUPS}
    counts["net.kb_pier_exchange"] = 0.0
    for category, (_, byte_count) in delta.items():
        for name, prefixes in NET_GROUPS.items():
            if category.startswith(prefixes):
                counts[name] += byte_count / 1024 / ops
                break
        else:
            if category.startswith("pier."):
                # rehash, semi-join digests, Bloom filters and candidates
                counts["net.kb_pier_exchange"] += byte_count / 1024 / ops
    counts["net.messages_per_op"] = sum(m for m, _ in delta.values()) / ops
    return counts


def total_kb(delta: Traffic) -> float:
    return sum(byte_count for _, byte_count in delta.values()) / 1024


# ----------------------------------------------------------------------
# Query worlds: rare_join_churn, conj_optimizer, hot_cache
# ----------------------------------------------------------------------

POPULAR_TERMS = ("popular", "hit")
#: overlay depths of the popular replicas: all inside the flood horizon
POPULAR_DEPTHS = (1.0, 2.0, 2.0)
STOP_TTL = 3
GNUTELLA_TIMEOUT = 30.0
NUM_NODES = 64
NUM_ULTRAPEERS = 8


@dataclass(frozen=True)
class LeafQuery:
    at: float
    ultrapeer: int
    terms: tuple[str, ...]
    depths: tuple[float, ...]
    #: a rare query whose target file is in the published index
    target_published: bool


@dataclass
class QuerySpec:
    """Everything that distinguishes one query workload from another."""

    filenames: list[str]
    queries: list[LeafQuery]
    race: RaceConfig
    replication: int = 1
    optimizer: bool = False
    memory_budget: int | None = None
    #: (interval, steps, stabilize) churn schedules on the virtual clock
    churn: tuple[tuple[float, int, bool], ...] = ()
    #: result-cache budget, in cached answers (None = cache off)
    cache_answers: int | None = None


class QueryWorld:
    """A DHT, an index, hybrid ultrapeers and a schedule of leaf queries."""

    def __init__(self, spec: QuerySpec, root: random.Random, obs: Obs | None):
        tracer = obs.tracer if obs else None
        metrics = obs.metrics if obs else None
        self.spec = spec
        self.obs = obs
        self.dht = DhtNetwork(rng=spawn_rng(root, "dht"), replication=spec.replication)
        nodes = self.dht.populate(NUM_NODES)
        catalog = Catalog(self.dht)
        publisher = Publisher(self.dht, catalog)
        search = SearchEngine(
            self.dht,
            catalog,
            optimizer=spec.optimizer,
            memory_budget=spec.memory_budget,
            tracer=tracer,
            metrics=metrics,
        )
        self.sim = Simulator()
        if tracer is not None:
            tracer.bind_clock(lambda: self.sim.now)
        self.engine = HybridQueryEngine(
            self.sim,
            self.dht,
            config=spec.race,
            rng=spawn_rng(root, "engine"),
            tracer=tracer,
            metrics=metrics,
        )
        self.cache = None
        if spec.cache_answers is not None:
            footprint = QueryResultCache(
                1, cost_model=self.dht.cost_model
            ).entry_footprint(spec.filenames[:1])
            self.cache = QueryResultCache(
                spec.cache_answers * footprint,
                clock=lambda: self.sim.now,
                cost_model=self.dht.cost_model,
            )
        hybrids = [
            HybridUltrapeer(
                ultrapeer_id=index,
                dht_node_id=node.node_id,
                publisher=publisher,
                search_engine=search,
                gnutella_timeout=GNUTELLA_TIMEOUT,
                result_cache=self.cache,
            )
            for index, node in enumerate(nodes[:NUM_ULTRAPEERS])
        ]
        self.receipts = [
            publisher.publish_file(
                filename=filename,
                filesize=4096 + index,
                ip_address=f"10.1.{index // 250}.{index % 250}",
                port=6346,
                origin=nodes[index % NUM_NODES].node_id,
            )
            for index, filename in enumerate(spec.filenames)
        ]
        if spec.churn:
            churn = ChurnProcess(
                self.dht, rng=spawn_rng(root, "churn"), failure_fraction=0.4
            )
            for interval, steps, stabilize in spec.churn:
                churn.schedule(self.sim, interval, steps, stabilize=stabilize)
        engine = self.engine
        for query in spec.queries:
            self.sim.schedule_at(
                query.at,
                lambda hybrid=hybrids[query.ultrapeer], query=query: (
                    hybrid.handle_leaf_query_simulated(
                        engine, list(query.terms), list(query.depths), STOP_TTL
                    )
                ),
            )
        self.baseline = DhtBaseline(self.dht)

    def drain(self) -> None:
        self.sim.run()

    def outcome(self, deep: bool = False) -> Outcome:
        spec, engine, dht = self.spec, self.engine, self.dht
        races = engine.races
        ops = len(spec.queries)
        rows, records, latencies, requery_bytes = [], [], [], []
        rare_published = answered_rare = degraded = 0
        for query, race in zip(spec.queries, races):
            outcome = race.outcome
            rows.append(
                (
                    race.submitted_at, outcome.terms, outcome.gnutella_results,
                    outcome.gnutella_latency, outcome.used_pier,
                    outcome.cache_hit, outcome.pier_results, outcome.pier_latency,
                    outcome.pier_completion_latency, outcome.pier_bytes,
                    outcome.degraded, outcome.degraded_reason,
                    race.pier_attempts, race.route_retries,
                )
            )
            records.append(
                QueryRecord(
                    done=race.done,
                    target_published=query.target_published,
                    total_results=outcome.total_results,
                    degraded=outcome.degraded,
                )
            )
            if not math.isinf(outcome.first_result_latency):
                latencies.append(outcome.first_result_latency)
            degraded += outcome.degraded
            if query.target_published:
                rare_published += 1
                answered_rare += outcome.total_results > 0
            if outcome.used_pier and not outcome.cache_hit and outcome.pier_results > 0:
                requery_bytes.append(outcome.pier_bytes)
        delta = self.baseline.traffic()
        sim_stats = {
            "sim_kb_per_op": total_kb(delta) / ops,
            "sim_first_result_p50_s": percentile(latencies, 0.50) if latencies else 0.0,
            "sim_first_result_p95_s": percentile(latencies, 0.95) if latencies else 0.0,
            "sim_requery_kb": (
                sum(requery_bytes) / 1024 / len(requery_bytes) if requery_bytes else 0.0
            ),
            "recall": answered_rare / rare_published if rare_published else 1.0,
            "degraded_fraction": degraded / ops,
        }
        requeried = [race for race in races if race.pier_attempts > 0]
        published_tuples = sum(r.tuples_published for r in self.receipts)
        counts = {
            "sim.events_per_op": self.sim.processed / ops,
            "sim.events": float(self.sim.processed),
            "dht.route_cache_hit_rate": self.baseline.route_cache_hit_rate(),
            "dht.route_retries_per_op": sum(r.route_retries for r in races) / ops,
            "dht.dead_ends": float(engine.metrics.counter("hybrid.dht_dead_ends").value),
            "dht.suspect_ranges": float(len(dht.suspect_ranges)),
            "piersearch.postings_per_file": (
                (published_tuples - len(self.receipts)) / len(self.receipts)
            ),
            "gnutella.flood_answered_fraction": (
                sum(1 for r in races if r.gnutella_arrived > 0) / ops
            ),
            "hybrid.pier_used_fraction": sum(r.outcome.used_pier for r in races) / ops,
            "hybrid.peak_inflight": float(engine.peak_inflight),
            "hybrid.abandoned_fraction": sum(r.pier_failed for r in races) / ops,
            "hybrid.wasted_requery_fraction": (
                sum(1 for r in requeried if r.gnutella_arrived > 0) / len(requeried)
                if requeried
                else 0.0
            ),
            **net_counts(delta, ops),
        }
        if self.cache is not None:
            stats = self.cache.stats
            counts["cache.hit_rate"] = stats.hit_rate
            counts["cache.evictions_per_op"] = stats.evictions / ops
            counts["cache.kb_saved_per_op"] = stats.bytes_saved / 1024 / ops
        if deep:
            counts["dht.ring_bytes_per_peer"] = bytes_per_peer(dht)
        if self.obs is not None:
            counts.update(pier_counts(self.obs.metrics, ops))
        # Every byte a race reports was charged to a pier.* category. An
        # attempt lost to churn charges the wire without reaching an
        # outcome, and its bytes are not exposed: once one was lost the
        # equality cannot be checked, only that the meter exceeds the
        # per-op sum by at most one dearest attempt per lost attempt.
        pier_bytes = bytes_under(delta, "pier.")
        attempt_bytes = [race.outcome.pier_bytes for race in races]
        per_op_bytes = sum(attempt_bytes)
        lost_attempts = sum(r.pier_attempts for r in races) - sum(
            1 for r in races if r.outcome.pier_bytes > 0
        )
        counts["hybrid.lost_attempt_byte_share"] = (
            (pier_bytes - per_op_bytes) / pier_bytes if pier_bytes else 0.0
        )
        checks = {
            "all_submitted": len(races) == ops,
            "all_resolved": engine.completed == ops and engine.inflight == 0,
        }
        if lost_attempts == 0:
            checks["bytes_conserved"] = per_op_bytes == pier_bytes
        else:
            checks["bytes_within_lost_attempts"] = (
                per_op_bytes <= pier_bytes
                <= per_op_bytes + lost_attempts * max(attempt_bytes)
            )
        return Outcome(
            attempted=ops,
            failed=count_failed_queries(records),
            rows=rows,
            sim=sim_stats,
            counts=counts,
            checks=checks,
        )


def pier_counts(metrics: MetricsRegistry, ops: int) -> dict[str, float]:
    """PIER operator counts, which only a wired registry exposes."""

    def total(prefix: str) -> float:
        return float(
            sum(c.value for key, c in metrics.counters.items() if key.startswith(prefix))
        )

    probe = total("operator.join.probe_rows")
    build = total("operator.join.build_rows")
    strategies = {
        name: total(f'dataflow.strategy{{strategy="{name.upper()}"}}')
        for name in ("distributed_join", "semi_join", "bloom_join", "inverted_cache")
    }
    executed = sum(strategies.values())
    predicted = total("optimizer.predicted_bytes")
    counts = {
        "pier.batches_per_op": total("dataflow.batches") / ops,
        "pier.join_rows_per_op": (probe + build) / ops,
        "pier.spill_kb_per_op": total("operator.spill.bytes") / 1024 / ops,
    }
    # a ratio with nothing under it is left out, not reported as 0
    if probe:
        counts["pier.survivor_ratio"] = total("operator.join.survivor_rows") / probe
    if predicted:  # only the cost optimizer predicts
        counts["pier.optimizer_byte_err"] = abs(
            total("optimizer.actual_bytes") / predicted - 1.0
        )
    for name, count in strategies.items():
        if executed:
            counts[f"pier.strategy_share.{name}"] = count / executed
    return counts


def _arrivals(rng: random.Random, count: int, window: float) -> list[float]:
    """``count`` evenly spaced arrivals over ``window`` virtual seconds,
    each jittered inside its slot — an open-loop schedule."""
    slot = window / count
    return [(index + rng.random()) * slot for index in range(count)]


def _pair_corpus(groups: int, labels: int) -> list[str]:
    """``groups * labels`` files named by a (group, label) pair.

    The two counts are coprime, so every pair names exactly one file, and
    no single posting list carries more than ``1/labels`` of the queries:
    losing one list's owner to churn cannot swing the whole run.
    """
    return [
        f"rare group{index % groups:02d} label{index % labels:02d} "
        f"track{index:04d}.mp3"
        for index in range(groups * labels)
    ]


def _pair_terms(target: int, groups: int, labels: int) -> tuple[str, str]:
    return (f"group{target % groups:02d}", f"label{target % labels:02d}")


class RareJoinChurn(Workload):
    """The dataflow-scale scenario: pipelined two-term joins under churn."""

    name = "rare_join_churn"
    supports_obs = True
    worlds_per_run = 8
    GROUPS, LABELS = 25, 16

    def build(self, seed: int, world: int, obs: Obs | None) -> QueryWorld:
        root = world_rng(seed, world)
        rng = spawn_rng(root, "queries")
        num_queries = 250 if self.quick else 1000
        # 5000 queries per 50 virtual seconds against a 30 s timeout: every
        # race is in flight at once.
        window = 50.0 * num_queries / 5000
        queries = []
        for index, at in enumerate(_arrivals(rng, num_queries, window)):
            if rng.random() < 0.25:
                terms, depths, rare = POPULAR_TERMS, POPULAR_DEPTHS, False
            else:
                target = rng.randrange(self.GROUPS * self.LABELS)
                terms = _pair_terms(target, self.GROUPS, self.LABELS)
                depths, rare = (math.inf,), True
            queries.append(LeafQuery(at, index % NUM_ULTRAPEERS, terms, depths, rare))
        spec = QuerySpec(
            filenames=_pair_corpus(self.GROUPS, self.LABELS),
            queries=queries,
            race=RaceConfig(retry_backoff=1.0, batch_size=2),
            # one successor replica, so a crash loses no posting list
            replication=2,
            # departures land while the dataflows are in flight; the
            # second schedule leaves routing tables stale
            churn=((6.0, 10, True), (9.0, 6, False)),
        )
        return QueryWorld(spec, root, obs)


class ConjOptimizer(Workload):
    """Query-of-death conjunctions, cost-optimized, under a memory budget."""

    name = "conj_optimizer"
    supports_obs = True
    worlds_per_run = 2
    FAMILIES = ("alpha", "beta", "gamma", "delta", "epsilon")
    FAMILY_SIZE = 4
    NUM_FILES = 512
    #: join rows per site: far below the 128-entry posting lists
    MEMORY_BUDGET = 32

    def _terms(self, index: int) -> tuple[str, ...]:
        return tuple(
            f"{family}{(index // self.FAMILY_SIZE**position) % self.FAMILY_SIZE:02d}"
            for position, family in enumerate(self.FAMILIES)
        )

    def build(self, seed: int, world: int, obs: Obs | None) -> QueryWorld:
        root = world_rng(seed, world)
        rng = spawn_rng(root, "queries")
        # Mixed-radix names: each term matches a quarter of the corpus, all
        # five together exactly one file, the first four exactly two.
        filenames = [
            " ".join(self._terms(index)) + f" take{index:04d}.mp3"
            for index in range(self.NUM_FILES)
        ]
        queries = []
        for index, at in enumerate(_arrivals(rng, 60 if self.quick else 240, 12.0)):
            terms = self._terms(rng.randrange(self.NUM_FILES))
            if rng.random() < 0.5:
                terms = terms[:4]
            queries.append(
                LeafQuery(at, index % NUM_ULTRAPEERS, terms, (math.inf,), True)
            )
        spec = QuerySpec(
            filenames=filenames,
            queries=queries,
            race=RaceConfig(memory_budget=self.MEMORY_BUDGET),
            optimizer=True,
            memory_budget=self.MEMORY_BUDGET,
        )
        return QueryWorld(spec, root, obs)


class HotCache(Workload):
    """Zipf-repeated rare queries plus a flash crowd, against the shared
    result cache."""

    name = "hot_cache"
    supports_obs = True
    worlds_per_run = 8
    GROUPS, LABELS = 25, 16
    DURATION = 600.0
    FLASH_START, FLASH_LENGTH = 200.0, 30.0

    def build(self, seed: int, world: int, obs: Obs | None) -> QueryWorld:
        root = world_rng(seed, world)
        rng = spawn_rng(root, "queries")
        num_files = self.GROUPS * self.LABELS
        # Popularity rank -> file, shuffled so the hot set moves with the seed.
        by_rank = list(range(num_files))
        rng.shuffle(by_rank)
        sampler = ZipfSampler(num_files, alpha=1.0, rng=rng)
        picks = [
            (at, by_rank[sampler.sample() - 1])
            for at in _arrivals(rng, 400 if self.quick else 1600, self.DURATION)
        ]
        flash_target = by_rank[rng.randrange(20, 60)]
        picks += [
            (self.FLASH_START + at, flash_target)
            for at in _arrivals(rng, 100 if self.quick else 400, self.FLASH_LENGTH)
        ]
        picks.sort()
        queries = [
            LeafQuery(
                at,
                position % NUM_ULTRAPEERS,
                _pair_terms(target, self.GROUPS, self.LABELS),
                (math.inf,),
                True,
            )
            for position, (at, target) in enumerate(picks)
        ]
        distinct = len({target for _, target in picks})
        spec = QuerySpec(
            filenames=_pair_corpus(self.GROUPS, self.LABELS),
            queries=queries,
            race=RaceConfig(batch_size=2),
            # room for about half the distinct answers: hits and evictions
            cache_answers=max(1, distinct // 2),
        )
        return QueryWorld(spec, root, obs)


# ----------------------------------------------------------------------
# sec7_deployment
# ----------------------------------------------------------------------

#: Section 7's reported values: publish KB/file, PIER first-result s,
#: PIER query KB, no-result reduction %
PAPER_SEC7 = (3.5, 12.0, 20.0, 18.0)


class DeploymentWorld:
    """``run_deployment`` builds its own world, so there is nothing to set
    up beyond the config: the whole call is the timed region."""

    def __init__(self, config: DeploymentConfig):
        self.config = config
        self.report = None

    def drain(self) -> None:
        self.report = run_deployment(self.config)

    def outcome(self, deep: bool = False) -> Outcome:
        report, config = self.report, self.config
        ops = config.num_test_queries
        outcomes = report.outcomes
        latencies = [
            o.first_result_latency
            for o in outcomes
            if not math.isinf(o.first_result_latency)
        ]
        measured = (
            report.publish_kb_per_file,
            report.mean_pier_latency,
            report.mean_pier_query_kb,
            100.0 * report.no_result_reduction,
        )
        requeried = [o for o in outcomes if o.used_pier]
        answerable = 1.0 - report.oracle_no_result_fraction
        sim_stats = {
            "sim_kb_per_op": (
                (report.publish_bytes + sum(report.pier_query_bytes)) / 1024 / ops
            ),
            "sim_first_result_p50_s": percentile(latencies, 0.50),
            "sim_first_result_p95_s": percentile(latencies, 0.95),
            "sim_requery_kb": report.mean_pier_query_kb,
            # run_deployment returns no oracle of what was published, so
            # recall here is over what exists anywhere in the network:
            # answered queries / queries some replica could answer
            "recall": (
                (1.0 - report.hybrid_no_result_fraction) / answerable
                if answerable
                else 1.0
            ),
            "degraded_fraction": sum(o.degraded for o in outcomes) / ops,
            "paper_rel_err": sum(
                abs(m - p) / p for m, p in zip(measured, PAPER_SEC7)
            ) / len(PAPER_SEC7),
        }
        counts = {
            "net.kb_publish": report.publish_bytes / 1024 / ops,
            "gnutella.flood_answered_fraction": (
                sum(1 for o in outcomes if o.gnutella_results > 0) / ops
            ),
            "hybrid.pier_used_fraction": len(requeried) / ops,
            "hybrid.peak_inflight": float(report.peak_inflight),
            "hybrid.abandoned_fraction": report.pier_abandoned / ops,
            "dht.route_retries_per_op": report.route_retries / ops,
        }
        return Outcome(
            attempted=ops,
            failed=ops - len(outcomes),
            rows=[
                (
                    o.terms, o.gnutella_results, o.gnutella_latency, o.used_pier,
                    o.cache_hit, o.pier_results, o.pier_latency,
                    o.pier_completion_latency, o.pier_bytes, o.degraded,
                )
                for o in outcomes
            ],
            sim=sim_stats,
            counts=counts,
            checks={
                "all_submitted": len(outcomes) == ops,
                "bytes_conserved": sum(report.pier_query_bytes)
                == sum(o.pier_bytes for o in requeried if not o.cache_hit),
                "published": report.files_published > 0,
            },
        )


class Sec7Deployment(Workload):
    """The paper's Section 7 experiment at under half scale."""

    name = "sec7_deployment"
    worlds_per_run = 6

    def build(self, seed: int, world: int, obs: Obs | None) -> DeploymentWorld:
        scale = 0.5 if self.quick else 1.0
        return DeploymentWorld(
            DeploymentConfig(
                num_ultrapeers=int(400 * scale),
                num_leaves=int(1600 * scale),
                num_hybrid=int(50 * scale),
                num_items=int(500 * scale),
                num_background_queries=int(200 * scale),
                num_test_queries=int(300 * scale),
                seed=world_seed(seed, world),
            )
        )


# ----------------------------------------------------------------------
# publish_churn
# ----------------------------------------------------------------------


class PublishWorld:
    """Routed, replicated publishes with a churn step every few hundred."""

    VOCABULARY = 600
    VERIFY_SAMPLE = 200

    def __init__(self, root: random.Random, num_files: int, churn_every: int):
        self.dht = DhtNetwork(rng=spawn_rng(root, "dht"), replication=2)
        self.dht.populate(128)
        self.publisher = Publisher(self.dht, Catalog(self.dht))
        self.churn = ChurnProcess(
            self.dht, rng=spawn_rng(root, "churn"), failure_fraction=0.4
        )
        self.churn_every = churn_every
        rng = spawn_rng(root, "files")
        words = [f"w{index:03d}x" for index in range(self.VOCABULARY)]
        sampler = ZipfSampler(self.VOCABULARY, alpha=0.9, rng=rng)
        self.files = []
        for index in range(num_files):
            terms = {words[sampler.sample() - 1] for _ in range(rng.randint(2, 5))}
            self.files.append(
                (
                    " ".join(sorted(terms)) + f" take{index:05d}.mp3",
                    1_000_000 + rng.randrange(9_000_000),
                    f"10.{index // 62500}.{index // 250 % 250}.{index % 250}",
                )
            )
        self.verify_rng = spawn_rng(root, "verify")
        self.receipts = []
        self.baseline = DhtBaseline(self.dht)

    def drain(self) -> None:
        publish, receipts = self.publisher.publish_file, self.receipts
        for index, (filename, filesize, address) in enumerate(self.files):
            if index and index % self.churn_every == 0:
                self.churn.churn_step(joins=1, leaves=1, stabilize=True)
            receipts.append(publish(filename, filesize, address, 6346))

    def outcome(self, deep: bool = False) -> Outcome:
        dht, receipts = self.dht, self.receipts
        ops = len(self.files)
        delta = self.baseline.traffic()
        counts = {
            "dht.route_cache_hit_rate": self.baseline.route_cache_hit_rate(),
            "dht.suspect_ranges": float(len(dht.suspect_ranges)),
            "piersearch.postings_per_file": (
                sum(r.tuples_published - 1 for r in receipts) / ops
            ),
            **net_counts(delta, ops),
        }
        if deep:
            counts["dht.ring_bytes_per_peer"] = bytes_per_peer(dht)
        # Read a sample back (after the counts above, which it would move):
        # a file is retrievable when its Item tuple is still served.
        sample = self.verify_rng.sample(receipts, min(self.VERIFY_SAMPLE, ops))
        retrievable = sum(
            1 for receipt in sample if self.publisher.items.fetch(receipt.file_id)
        )
        return Outcome(
            attempted=ops,
            failed=ops - len(receipts),
            rows=[(r.file_id, r.tuples_published, r.bytes, r.messages) for r in receipts],
            sim={
                "sim_kb_per_op": total_kb(delta) / ops,
                "recall": retrievable / len(sample),
            },
            counts=counts,
            checks={
                "all_submitted": len(receipts) == ops,
                "bytes_conserved": sum(r.bytes for r in receipts)
                == bytes_under(delta, "publish."),
                "churned": self.churn.stats.joins == (ops - 1) // self.churn_every,
            },
        )


class PublishChurn(Workload):
    name = "publish_churn"
    worlds_per_run = 2

    def build(self, seed: int, world: int, obs: Obs | None) -> PublishWorld:
        if self.quick:
            return PublishWorld(world_rng(seed, world), 500, 100)
        return PublishWorld(world_rng(seed, world), 2000, 200)


# ----------------------------------------------------------------------
# shard_ring
# ----------------------------------------------------------------------


class ShardWorld:
    """A peer ring at scale, and message chains hopping across it on the
    2-shard process backend (one forked worker per core)."""

    def __init__(self, scenario: ChainScenario, reference: bool):
        self.scenario = scenario
        #: run the 1-shard in-process reference instead of the 2 workers
        self.reference = reference
        # The ring the chains' peers stand for: its routing state is the
        # memory-at-scale half of this workload, held while they run.
        self.dht = DhtNetwork(rng=scenario.seed)
        self.dht.populate(scenario.num_peers)
        self.report = None

    def drain(self) -> None:
        seed = self.scenario.seed
        if self.reference:
            self.report = run_sharded(self.scenario, 1, LOOKAHEAD, seed=seed)
        else:
            self.report = run_sharded(
                self.scenario, 2, LOOKAHEAD, seed=seed, backend="process"
            )

    def outcome(self, deep: bool = False) -> Outcome:
        report, scenario = self.report, self.scenario
        merged = merge_digests(report.digests())
        ops = scenario.total_hops
        busy = [shard.busy_seconds for shard in report.shards]
        counts = {
            "sim.events_per_op": report.processed / ops,
            "sim.events": float(report.processed),
            "sim.shard_windows": float(report.windows),
            "sim.shard_cross_messages": float(report.cross_messages),
            "sim.shard_ipc_serialize_s": report.ipc_serialize_seconds,
            "sim.shard_ipc_deserialize_s": report.ipc_deserialize_seconds,
            "sim.shard_busy_imbalance": (
                max(busy) / (sum(busy) / len(busy)) if sum(busy) > 0 else 0.0
            ),
            # worker-seconds of the drain not spent draining: barrier
            # stalls, pipe waits, start-up and the final gather
            "sim.shard_stall_share": (
                1.0 - sum(busy) / (len(busy) * report.wall_seconds)
                if report.wall_seconds > 0
                else 0.0
            ),
            "net.messages_per_op": merged.hops_sent / ops,
        }
        if deep:
            counts["dht.ring_bytes_per_peer"] = bytes_per_peer(self.dht)
        return Outcome(
            attempted=ops,
            # every event but a chain's start is a delivered hop
            failed=ops - (report.processed - scenario.num_chains),
            # shard-count-invariant, so the 1-shard reference run must
            # produce exactly these rows
            rows=[
                *merged.finished,
                (merged.hops_sent, merged.bytes_sent),
                merged.delays,
            ],
            sim={
                "sim_kb_per_op": merged.bytes_sent / 1024 / ops,
                "sim_first_result_p50_s": percentile(merged.delays, 0.50),
                "sim_first_result_p95_s": percentile(merged.delays, 0.95),
                "recall": len(merged.finished) / scenario.num_chains,
            },
            counts=counts,
            checks={
                "all_submitted": merged.hops_sent == ops,
                "all_resolved": len(merged.finished) == scenario.num_chains,
                "ring_populated": len(self.dht.nodes) == scenario.num_peers,
            },
        )


class ShardRing(Workload):
    name = "shard_ring"

    def build(
        self, seed: int, world: int, obs: Obs | None, reference: bool = False
    ) -> ShardWorld:
        peers, chains, hops = (
            (20_000, 200, 100) if self.quick else (200_000, 600, 250)
        )
        scenario = ChainScenario(world_seed(seed, world), peers, chains, hops)
        return ShardWorld(scenario, reference)

    def build_warmup(self, seed: int) -> ShardWorld:
        # The merged digest of every 2-shard repeat must equal this one's.
        return self.build(seed, 0, None, reference=True)


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (
        RareJoinChurn, ConjOptimizer, Sec7Deployment, HotCache, PublishChurn, ShardRing
    )
}

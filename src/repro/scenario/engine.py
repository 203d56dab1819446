"""Compile a scenario spec into a seeded schedule and run it.

Two stages, both deterministic:

* :func:`compile_schedule` expands a :class:`ScenarioSpec` into a flat,
  time-ordered tuple of :class:`ScenarioEvent` records — every query
  arrival (with its target item and submitting ultrapeer already drawn)
  and every fault event. The schedule carries a SHA-256 digest over the
  canonical event encoding (``float.hex`` timestamps), so two runs of
  the same seed can assert bit-for-bit schedule identity.
* :class:`ScenarioRunner` builds the world (a DHT behind a
  fault-injecting transport, with the hybrid stack wired on it by
  :func:`repro.hybrid.world.build_world`), replays
  the schedule through the virtual-time simulator, and reduces the
  resolved races into a :class:`ScenarioReport` with recall / latency /
  bandwidth SLO measurements, evaluated against the spec's
  :class:`SloSpec` gates.

Randomness discipline: the compiler and the runner each derive their
streams from ``make_rng(spec.seed)`` with fixed spawn order
(compiler: ``arrivals``, ``workload``; runner: ``dht``, ``engine``,
``corpus``, ``churn``, ``partition``), and everything runs in virtual
time — identical seeds reproduce identical schedules *and* identical
SLO metrics, which is what lets CI gate on the committed artifact.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from statistics import mean
from typing import Callable

from repro.common.rng import make_rng, spawn_rng
from repro.dht.churn import ChurnProcess
from repro.dht.network import DhtNetwork
from repro.hybrid.engine import QueryRace, RaceConfig
from repro.hybrid.world import HybridWorld, build_world
from repro.net.faults import FaultInjectingTransport
from repro.scenario.arrivals import generate_arrivals
from repro.scenario.injectors import PartitionInjector, RegionalFailureInjector
from repro.scenario.spec import MAX_SILENT_LOSS, POPULAR_FRACTION, STOP_TTL, ScenarioSpec
from repro.sim.stats import nearest_rank
from repro.scenario.workloads import (
    POPULAR_DEPTHS,
    POPULAR_TERMS,
    ScenarioItem,
    build_corpus,
)

#: hard wall (virtual seconds) on each re-query phase of a scenario race:
#: a partition-stretched walk ends degraded instead of waiting forever
REQUERY_DEADLINE = 60.0


@dataclass(frozen=True)
class ScenarioEvent:
    """One scheduled occurrence: a query arrival or a fault."""

    at: float
    #: "query" | "churn" | "regional" | "partition" | "heal"
    kind: str
    #: corpus index of the queried item; -1 = popular (non-corpus) query
    item: int = -1
    #: index of the submitting hybrid ultrapeer
    ultrapeer: int = 0
    #: member of the flash-crowd spike
    flash: bool = False


@dataclass(frozen=True)
class Schedule:
    """The compiled, seeded event sequence plus its identity digest."""

    events: tuple[ScenarioEvent, ...]
    digest: str


def compile_schedule(spec: ScenarioSpec) -> Schedule:
    """Expand ``spec`` into its deterministic event schedule."""
    spec.validate()
    rng = make_rng(spec.seed)
    arrival_rng = spawn_rng(rng, "arrivals")
    pick_rng = spawn_rng(rng, "workload")
    events: list[ScenarioEvent] = []
    # The flash target is drawn first so the pick stream stays stable
    # whether or not any flash arrival occurs.
    flash_item = pick_rng.randrange(spec.num_files)
    for arrival in generate_arrivals(spec.arrival, spec.duration, arrival_rng):
        ultrapeer = pick_rng.randrange(spec.num_ultrapeers)
        if arrival.flash:
            events.append(
                ScenarioEvent(
                    arrival.at, "query", item=flash_item,
                    ultrapeer=ultrapeer, flash=True,
                )
            )
        elif pick_rng.random() < POPULAR_FRACTION:
            events.append(ScenarioEvent(arrival.at, "query", ultrapeer=ultrapeer))
        else:
            events.append(
                ScenarioEvent(
                    arrival.at, "query",
                    item=pick_rng.randrange(spec.num_files),
                    ultrapeer=ultrapeer,
                )
            )
    churn = spec.churn
    if churn.kind == "uniform":
        for step in range(1, churn.steps + 1):
            events.append(ScenarioEvent(churn.interval * step, "churn"))
    elif churn.kind == "regional":
        events.append(ScenarioEvent(churn.at, "regional"))
    elif churn.kind == "partition":
        events.append(ScenarioEvent(churn.at, "partition"))
        if churn.heal_at is not None:
            events.append(ScenarioEvent(churn.heal_at, "heal"))
    events.sort(key=lambda event: event.at)  # stable: ties keep build order
    digest = hashlib.sha256()
    for event in events:
        digest.update(
            f"{event.at.hex()}|{event.kind}|{event.item}|"
            f"{event.ultrapeer}|{int(event.flash)}\n".encode()
        )
    return Schedule(events=tuple(events), digest=digest.hexdigest())


@dataclass
class SloCheck:
    """One evaluated gate: the measured value against its bound."""

    name: str
    value: float
    bound: float
    #: ">=" for floors, "<=" for ceilings
    op: str
    ok: bool


@dataclass
class ScenarioReport:
    """Measured outcome of one scenario run."""

    name: str
    seed: int
    schedule_digest: str
    queries: int = 0
    popular_queries: int = 0
    rare_queries: int = 0
    #: rare queries whose target item was actually published (the
    #: recall oracle; free riders shrink this below ``rare_queries``)
    rare_published: int = 0
    answered_rare: int = 0
    #: answered fraction of published-target rare queries
    recall: float = 0.0
    #: answered fraction of *all* rare queries (free-riding damage shows
    #: up as the gap between coverage and recall)
    coverage: float = 0.0
    latency_p50: float = 0.0
    latency_p95: float = 0.0
    #: mean wire KB per executed re-query (cache hits excluded)
    query_kb_mean: float = 0.0
    #: published-target rare queries that returned nothing WITHOUT a
    #: degraded flag — the silent-loss count the engine hardening exists
    #: to keep at zero
    silent_loss: int = 0
    degraded: int = 0
    degraded_fraction: float = 0.0
    abandoned: int = 0
    route_retries: int = 0
    cache_hits: int = 0
    cache_hit_rate: float = 0.0
    churn_joins: int = 0
    churn_leaves: int = 0
    churn_failures: int = 0
    #: unrepaired suspect key ranges at end of run
    suspect_ranges: int = 0
    slo_checks: list[SloCheck] = field(default_factory=list)
    passed: bool = False


class ScenarioRunner:
    """Builds the world for one spec and replays its schedule."""

    def __init__(self, spec: ScenarioSpec):
        self.spec = spec
        self.schedule = compile_schedule(spec)
        #: the hybrid world, built by run() and kept for inspection
        self.world: HybridWorld | None = None
        self.corpus: list[ScenarioItem] = []
        #: (event, race) per query, in submission order
        self.records: list[tuple[ScenarioEvent, QueryRace]] = []

    # ------------------------------------------------------------------
    # World construction
    # ------------------------------------------------------------------

    def _build_world(self) -> tuple[ChurnProcess, dict[str, Callable[[], object]]]:
        """Build ``self.world`` and ``self.corpus``; return the churn
        process and the fault each non-query event kind fires."""
        spec = self.spec
        rng = make_rng(spec.seed)
        dht = DhtNetwork(rng=spawn_rng(rng, "dht"), replication=spec.replication)
        # Every byte still flows through the inner transport; the wrapper
        # only adds the scenario's delay-stretch surface.
        dht.transport = FaultInjectingTransport(dht.transport)
        dht.populate(spec.num_nodes)
        world = self.world = build_world(
            dht,
            range(spec.num_ultrapeers),
            gnutella_timeout=spec.gnutella_timeout,
            optimizer=spec.optimizer,
            race_config=RaceConfig(requery_deadline=REQUERY_DEADLINE),
            rng=spawn_rng(rng, "engine"),
            cache_budget_bytes=spec.cache_budget_bytes,
        )
        self.corpus = build_corpus(
            spec.workload, spec.num_files, spawn_rng(rng, "corpus")
        )
        for item in self.corpus:
            if not item.published:
                continue  # free riders: their hosts index nothing
            world.publisher.publish_file(
                filename=item.filename,
                filesize=4096 + item.index,
                ip_address=f"10.1.{item.index // 256}.{item.index % 256}",
                port=6346,
                origin=world.nodes[item.index % spec.num_nodes].node_id,
            )
        churn = ChurnProcess(
            dht,
            rng=spawn_rng(rng, "churn"),
            failure_fraction=spec.churn.failure_fraction,
        )
        partition = PartitionInjector(
            dht,
            dht.transport,
            rng=spawn_rng(rng, "partition"),
            fraction=spec.churn.fraction,
            delay_multiplier=spec.churn.delay_multiplier,
        )
        regional = RegionalFailureInjector(
            churn,
            fraction=spec.churn.fraction,
            failure_fraction=spec.churn.failure_fraction,
        )
        faults = {
            "churn": lambda: churn.churn_step(
                joins=spec.churn.joins,
                leaves=spec.churn.leaves,
                stabilize=spec.churn.stabilize,
            ),
            "regional": regional.fire,
            "partition": partition.partition,
            "heal": partition.heal,
        }
        return churn, faults

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------

    def _submit(self, event: ScenarioEvent) -> None:
        hybrid = self.world.hybrids[event.ultrapeer]
        if event.item < 0:
            terms, depths = list(POPULAR_TERMS), list(POPULAR_DEPTHS)
        else:
            terms = list(self.corpus[event.item].terms)
            depths = [math.inf]
        race = hybrid.handle_leaf_query_simulated(
            self.world.engine, terms, depths, stop_ttl=STOP_TTL
        )
        self.records.append((event, race))

    def run(self) -> ScenarioReport:
        churn, faults = self._build_world()
        sim = self.world.sim
        for event in self.schedule.events:
            if event.kind == "query":
                sim.schedule_at(event.at, lambda event=event: self._submit(event))
            else:
                sim.schedule_at(event.at, faults[event.kind])
        sim.run()
        return self._reduce(churn)

    # ------------------------------------------------------------------
    # Measurement
    # ------------------------------------------------------------------

    def _reduce(self, churn: ChurnProcess) -> ScenarioReport:
        spec = self.spec
        report = ScenarioReport(
            name=spec.name, seed=spec.seed, schedule_digest=self.schedule.digest
        )
        latencies: list[float] = []
        requery_bytes: list[int] = []
        answered_all_rare = 0
        for event, race in self.records:
            outcome = race.outcome
            report.queries += 1
            if not math.isinf(outcome.first_result_latency):
                latencies.append(outcome.first_result_latency)
            if outcome.degraded:
                report.degraded += 1
            if race.pier_failed:
                report.abandoned += 1
            report.route_retries += race.route_retries
            if outcome.cache_hit:
                report.cache_hits += 1
            if outcome.used_pier and not outcome.cache_hit:
                requery_bytes.append(outcome.pier_bytes)
            if event.item < 0:
                report.popular_queries += 1
                continue
            report.rare_queries += 1
            answered = outcome.total_results > 0
            if answered:
                answered_all_rare += 1
            if self.corpus[event.item].published:
                report.rare_published += 1
                if answered:
                    report.answered_rare += 1
                elif not outcome.degraded:
                    report.silent_loss += 1
        if report.rare_published:
            report.recall = report.answered_rare / report.rare_published
        if report.rare_queries:
            report.coverage = answered_all_rare / report.rare_queries
        if latencies:
            report.latency_p50 = nearest_rank(latencies, 0.50)
            report.latency_p95 = nearest_rank(latencies, 0.95)
        if requery_bytes:
            report.query_kb_mean = mean(requery_bytes) / 1024
        if report.queries:
            report.degraded_fraction = report.degraded / report.queries
        requeried = sum(
            1 for _, race in self.records if race.outcome.used_pier
        )
        if requeried:
            report.cache_hit_rate = report.cache_hits / requeried
        report.churn_joins = churn.stats.joins
        report.churn_leaves = churn.stats.leaves
        report.churn_failures = churn.stats.failures
        report.suspect_ranges = len(self.world.dht.suspect_ranges)
        self._evaluate_slo(report)
        return report

    def _evaluate_slo(self, report: ScenarioReport) -> None:
        slo = self.spec.slo
        checks = [
            SloCheck(
                "recall", report.recall, slo.min_recall, ">=",
                report.recall >= slo.min_recall,
            ),
            SloCheck(
                "latency_p95", report.latency_p95, slo.max_p95_latency, "<=",
                report.latency_p95 <= slo.max_p95_latency,
            ),
            SloCheck(
                "query_kb_mean", report.query_kb_mean, slo.max_query_kb, "<=",
                report.query_kb_mean <= slo.max_query_kb,
            ),
            SloCheck(
                "silent_loss", report.silent_loss, MAX_SILENT_LOSS, "<=",
                report.silent_loss <= MAX_SILENT_LOSS,
            ),
            SloCheck(
                "degraded_fraction", report.degraded_fraction,
                slo.max_degraded_fraction, "<=",
                report.degraded_fraction <= slo.max_degraded_fraction,
            ),
            SloCheck(
                "cache_hit_rate", report.cache_hit_rate,
                slo.min_cache_hit_rate, ">=",
                report.cache_hit_rate >= slo.min_cache_hit_rate,
            ),
        ]
        report.slo_checks = checks
        report.passed = all(check.ok for check in checks)


def run_scenario(spec: ScenarioSpec) -> ScenarioReport:
    """Compile, run, and measure one scenario."""
    return ScenarioRunner(spec).run()

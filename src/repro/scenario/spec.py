"""Declarative adversarial scenario specifications.

A scenario composes four orthogonal axes into one reproducible hostile
run:

* **arrival process** (:class:`ArrivalSpec`) — how leaf queries arrive
  in virtual time: Poisson, diurnal (sinusoidal rate, sampled by
  thinning), or a flash crowd (baseline plus a spike window in which
  every arrival asks for the *same* item);
* **churn pattern** (:class:`ChurnSpec`) — what happens to the DHT
  membership: uniform background churn, a correlated regional failure
  (a contiguous ring arc departs at once), or a network partition that
  severs a minority arc and later heals;
* **workload shape** (:class:`WorkloadSpec`) — what the corpus and
  queries look like: the standard rare-item corpus, free riders (a
  fraction of items is never published, so the index has nothing), or
  query-of-death (every query is a 5-keyword conjunction whose terms
  are individually common but jointly match exactly one file);
* **SLO gates** (:class:`SloSpec`) — the recall / latency / bandwidth
  floors and ceilings the run must meet to pass.

Everything is frozen and validated up front: a
:class:`~repro.scenario.engine.ScenarioRunner` compiles a spec into a
seeded event schedule whose digest — and whose measured SLO values —
are bit-for-bit reproducible for the same seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import ScenarioError

ARRIVAL_KINDS = ("poisson", "diurnal", "flash_crowd")
CHURN_KINDS = ("none", "uniform", "regional", "partition")
WORKLOAD_KINDS = ("standard", "free_riders", "query_of_death")


@dataclass(frozen=True)
class ArrivalSpec:
    """How leaf queries arrive in virtual time."""

    kind: str = "poisson"
    #: mean arrival rate (queries per unit virtual time) of the base
    #: process; the diurnal rate oscillates around this mean
    rate: float = 2.0
    #: diurnal period of one full day-night cycle
    diurnal_period: float = 120.0
    #: diurnal swing as a fraction of ``rate`` (0.8 => peak 1.8x, trough 0.2x)
    diurnal_amplitude: float = 0.8
    #: flash crowd: when the spike window opens
    flash_start: float = 20.0
    #: flash crowd: how long the spike lasts
    flash_duration: float = 10.0
    #: flash crowd: arrival rate *inside* the spike window (on top of the
    #: base process; every spike arrival queries the designated item)
    flash_rate: float = 20.0

    def validate(self) -> None:
        if self.kind not in ARRIVAL_KINDS:
            raise ScenarioError(
                f"unknown arrival kind {self.kind!r}, expected one of {ARRIVAL_KINDS}"
            )
        if self.rate <= 0:
            raise ScenarioError(f"arrival rate must be > 0, got {self.rate}")
        if not 0.0 <= self.diurnal_amplitude < 1.0:
            raise ScenarioError(
                f"diurnal amplitude must be in [0,1), got {self.diurnal_amplitude}"
            )
        if self.diurnal_period <= 0:
            raise ScenarioError(
                f"diurnal period must be > 0, got {self.diurnal_period}"
            )
        if self.kind == "flash_crowd":
            if self.flash_start < 0 or self.flash_duration <= 0:
                raise ScenarioError(
                    "flash window must have start >= 0 and duration > 0, got "
                    f"start={self.flash_start} duration={self.flash_duration}"
                )
            if self.flash_rate <= 0:
                raise ScenarioError(
                    f"flash rate must be > 0, got {self.flash_rate}"
                )


@dataclass(frozen=True)
class ChurnSpec:
    """What happens to DHT membership during the run."""

    kind: str = "none"
    # -- uniform churn -------------------------------------------------
    #: virtual time between churn steps
    interval: float = 8.0
    #: number of churn steps
    steps: int = 4
    #: arrivals per step
    joins: int = 1
    #: departures per step
    leaves: int = 1
    #: fraction of departures that are abrupt failures (no handoff)
    failure_fraction: float = 0.5
    #: False leaves routing tables stale between steps (the regime
    #: in-flight walks must route around)
    stabilize: bool = True
    # -- regional failure / partition ----------------------------------
    #: when the correlated event strikes
    at: float = 15.0
    #: fraction of the ring (a contiguous arc) affected
    fraction: float = 0.25
    #: partition only: when the severed arc rejoins with its data
    #: (None = never heals)
    heal_at: float | None = None
    #: partition only: survivor-side hop delays stretch by this factor
    #: while the partition is up (>= 1; lookahead safety)
    delay_multiplier: float = 1.0

    def validate(self, duration: float) -> None:
        if self.kind not in CHURN_KINDS:
            raise ScenarioError(
                f"unknown churn kind {self.kind!r}, expected one of {CHURN_KINDS}"
            )
        if not 0.0 <= self.failure_fraction <= 1.0:
            raise ScenarioError(
                f"failure_fraction must be in [0,1], got {self.failure_fraction}"
            )
        if self.kind == "uniform":
            if self.interval <= 0 or self.steps <= 0:
                raise ScenarioError(
                    "uniform churn needs interval > 0 and steps > 0, got "
                    f"interval={self.interval} steps={self.steps}"
                )
        if self.kind in ("regional", "partition"):
            if not 0.0 < self.fraction < 1.0:
                raise ScenarioError(
                    f"arc fraction must be in (0,1), got {self.fraction}"
                )
            if not 0.0 <= self.at <= duration:
                raise ScenarioError(
                    f"churn event at {self.at} lies outside the run [0,{duration}]"
                )
        if self.kind == "partition":
            if self.delay_multiplier < 1.0:
                raise ScenarioError(
                    f"delay_multiplier must be >= 1, got {self.delay_multiplier}"
                )
            if self.heal_at is not None and self.heal_at <= self.at:
                raise ScenarioError(
                    f"heal_at ({self.heal_at}) must come after the partition "
                    f"({self.at})"
                )


@dataclass(frozen=True)
class WorkloadSpec:
    """What the corpus and the queries look like."""

    kind: str = "standard"
    #: fraction of leaf queries asking for popular content (answered by
    #: the Gnutella flood in-round; the rest are rare-item DHT races)
    popular_fraction: float = 0.25
    #: free_riders: fraction of corpus items nobody ever publishes —
    #: the index has nothing for them, however healthy the DHT is
    free_rider_fraction: float = 0.4
    #: query_of_death: number of keyword families per conjunction
    qod_families: int = 5
    #: query_of_death: distinct values per family (posting size is about
    #: ``num_files / family_size`` per term, but each full conjunction
    #: matches exactly one file — maximal join work per answer)
    family_size: int = 4

    def validate(self, num_files: int) -> None:
        if self.kind not in WORKLOAD_KINDS:
            raise ScenarioError(
                f"unknown workload kind {self.kind!r}, expected one of "
                f"{WORKLOAD_KINDS}"
            )
        if not 0.0 <= self.popular_fraction < 1.0:
            raise ScenarioError(
                f"popular_fraction must be in [0,1), got {self.popular_fraction}"
            )
        if self.kind == "free_riders" and not 0.0 < self.free_rider_fraction < 1.0:
            raise ScenarioError(
                "free_rider_fraction must be in (0,1), got "
                f"{self.free_rider_fraction}"
            )
        if self.kind == "query_of_death":
            if self.qod_families < 2 or self.family_size < 2:
                raise ScenarioError(
                    "query_of_death needs >= 2 families of >= 2 values, got "
                    f"{self.qod_families} x {self.family_size}"
                )
            if num_files > self.family_size**self.qod_families:
                raise ScenarioError(
                    f"{num_files} files exceed the "
                    f"{self.family_size}^{self.qod_families} distinct "
                    "conjunctions — duplicate conjunctions would break the "
                    "exactly-one-match property"
                )


@dataclass(frozen=True)
class SloSpec:
    """Pass/fail gates evaluated against one scenario run."""

    #: floor on answered fraction of rare queries whose target was published
    min_recall: float = 0.9
    #: ceiling on the p95 first-result latency of answered queries
    max_p95_latency: float = 120.0
    #: ceiling on mean per-requery wire traffic (KB, cache hits excluded)
    max_query_kb: float = 512.0
    #: ceiling on *silent* recall loss: published-target rare queries that
    #: returned nothing WITHOUT being flagged degraded (0 = every loss
    #: must be explicit)
    max_silent_loss: int = 0
    #: ceiling on the fraction of queries flagged degraded
    max_degraded_fraction: float = 1.0
    #: floor on the re-query cache hit rate (0 = not gated)
    min_cache_hit_rate: float = 0.0

    def validate(self) -> None:
        if not 0.0 <= self.min_recall <= 1.0:
            raise ScenarioError(f"min_recall must be in [0,1], got {self.min_recall}")
        if self.max_p95_latency <= 0:
            raise ScenarioError(
                f"max_p95_latency must be > 0, got {self.max_p95_latency}"
            )
        if self.max_query_kb <= 0:
            raise ScenarioError(f"max_query_kb must be > 0, got {self.max_query_kb}")
        if self.max_silent_loss < 0:
            raise ScenarioError(
                f"max_silent_loss must be >= 0, got {self.max_silent_loss}"
            )
        if not 0.0 <= self.max_degraded_fraction <= 1.0:
            raise ScenarioError(
                "max_degraded_fraction must be in [0,1], got "
                f"{self.max_degraded_fraction}"
            )
        if not 0.0 <= self.min_cache_hit_rate <= 1.0:
            raise ScenarioError(
                "min_cache_hit_rate must be in [0,1], got "
                f"{self.min_cache_hit_rate}"
            )


@dataclass(frozen=True)
class ScenarioSpec:
    """One fully specified hostile run."""

    name: str
    seed: int = 0
    #: length of the arrival window in virtual time (queries submitted in
    #: [0, duration); the simulator then drains every in-flight race)
    duration: float = 60.0
    num_nodes: int = 48
    num_files: int = 120
    num_ultrapeers: int = 8
    #: DHT replica count: 2 survives uniform single-failures but not a
    #: correlated regional failure of owner and successor together —
    #: exactly the contrast the regional scenario measures
    replication: int = 2
    arrival: ArrivalSpec = field(default_factory=ArrivalSpec)
    churn: ChurnSpec = field(default_factory=ChurnSpec)
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    slo: SloSpec = field(default_factory=SloSpec)
    gnutella_timeout: float = 30.0
    stop_ttl: int = 3
    #: shared ultrapeer result-cache budget (0 = caching off)
    cache_budget_bytes: int = 0
    #: price each re-query with the cost-based optimizer
    optimizer: bool = False

    def validate(self) -> None:
        if not self.name:
            raise ScenarioError("scenario name must be non-empty")
        if self.duration <= 0:
            raise ScenarioError(f"duration must be > 0, got {self.duration}")
        if self.num_nodes < 2:
            raise ScenarioError(f"need >= 2 DHT nodes, got {self.num_nodes}")
        if self.num_files < 1:
            raise ScenarioError(f"need >= 1 corpus file, got {self.num_files}")
        if not 1 <= self.num_ultrapeers <= self.num_nodes:
            raise ScenarioError(
                f"num_ultrapeers must be in [1,{self.num_nodes}], got "
                f"{self.num_ultrapeers}"
            )
        if self.replication < 1:
            raise ScenarioError(f"replication must be >= 1, got {self.replication}")
        if self.gnutella_timeout <= 0:
            raise ScenarioError(
                f"gnutella_timeout must be > 0, got {self.gnutella_timeout}"
            )
        self.arrival.validate()
        self.churn.validate(self.duration)
        self.workload.validate(self.num_files)
        self.slo.validate()

"""Hybrid query engine: the Figure 7/12 race in virtual time.

Every leaf query of a hybrid ultrapeer runs as a race between Gnutella
flooding and the DHT re-query on one simulator, so thousands of queries
overlap, churn strikes mid-query, and the first-result CDF is measured
rather than priced (the paper's closed-form equations live in
:mod:`repro.model`):

* **Gnutella side** — matching replicas become result-arrival events
  scheduled per the dynamic-query round structure
  (:meth:`GnutellaLatencyModel.arrival_for_depth`): one event per distinct
  replica depth, at the virtual time the TTL-``d`` round reaches it.
* **DHT side** — at the timeout (if nothing arrived) the re-query fires:
  the plan's keyword-site chain is routed hop by hop through
  :meth:`DhtNetwork.iter_lookup`, one simulator event and one latency draw
  per overlay hop. Churn scheduled mid-run removes nodes *between* those
  hop events, so in-flight walks really lose their next hop and recover
  through successor lists; a route broken beyond repair retries with
  backoff and eventually abandons the DHT side of the race.
* **Execution** — once the chain is routed, the plan runs on the
  streaming exchange dataflow (:mod:`repro.pier.dataflow`) sharing this
  simulator: posting-list tuple batches ship site-to-site as events, and
  the race resolves at the *first answer batch* while upstream batches
  are still in flight — a DHT answer wins mid-join, and
  ``pier_completion_latency`` records when the pipeline actually drained.
  The join strategy is the submitting ultrapeer's
  :class:`~repro.piersearch.search.SearchEngine`'s: the one it names
  (the Section 7 deployment names Figure 2's distributed join, or
  Figure 3's InvertedCache), else the cheapest of the four when it
  carries a cost-based optimizer (:mod:`repro.pier.optimizer`), else the
  semi-join, which ships packed fileID digests where the distributed
  join ships framed posting tuples, to the same answers. Every chain
  pipelines through the same exchange dataflow.
* **Resolution** — whichever source delivers first in virtual time wins
  the first-result latency; late Gnutella arrivals still count toward the
  final answer set.

Wire costs are charged exactly once, by the dataflow's batch sends.
One key per race: :meth:`HybridQueryEngine.submit` normalises the query
once (:func:`~repro.cache.results.query_key`) for the cache, the
re-query's plan and the zero-answer check, which alone derives the
posting keys from it.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

from repro.cache.results import query_key
from repro.common.errors import DhtError, PlanError
from repro.common.rng import make_rng
from repro.dht.network import DhtNetwork
from repro.gnutella.latency import GnutellaLatencyModel
from repro.hybrid.ultrapeer import DEFAULT_CACHE_LATENCY, HybridQueryOutcome, HybridUltrapeer
from repro.obs.metrics import MetricsRegistry
from repro.pier.dataflow import DataflowExecutor, DataflowQuery
from repro.pier.query import CACHE_TABLE, POSTING_TABLE, DistributedPlan, JoinStrategy
from repro.piersearch.search import SearchEngine
from repro.sim.engine import Simulator
from repro.sim.stats import Counter as MetricCounter


#: re-query attempts before the DHT side of the race is abandoned
MAX_REQUERY_ATTEMPTS = 3


@dataclass(frozen=True)
class RaceConfig:
    """Engine-level knobs of the simulated race.

    The Gnutella timeout is per ultrapeer: it lives on
    :class:`HybridUltrapeer`, and the engine reads it from the submitting
    ultrapeer. A DHT hop's latency belongs to the overlay: the re-query
    walk and the dataflow's batch hops both draw it from the DHT's
    transport (:meth:`~repro.net.transport.Transport.hop_delays`).
    """

    #: virtual time between a broken route and the next attempt
    retry_backoff: float = 2.0
    #: hard wall on the whole re-query phase (walks + retries + pipeline),
    #: measured from the moment the re-query starts: when it expires the
    #: race finishes with a ``degraded`` outcome instead of riding a
    #: partition-stretched walk indefinitely. None = no deadline (the
    #: pre-hardening behaviour).
    requery_deadline: float | None = None
    #: exchange batch size override (None = the plan's planner choice)
    batch_size: int | None = None
    #: per-site join memory budget in *rows* (not bytes); overflowing
    #: build partitions stay in the site's store and are re-read by probes
    memory_budget: int | None = None


@dataclass
class QueryRace:
    """One leaf query in flight: the record the engine completes."""

    outcome: HybridQueryOutcome
    submitted_at: float
    stop_ttl: int
    #: the query's ``query_key``, computed once at submission
    key: tuple[str, ...] = ()
    #: gnutella results that have arrived so far in virtual time
    gnutella_arrived: int = 0
    #: DHT re-query attempts started (0 = never re-queried)
    pier_attempts: int = 0
    #: route repairs performed across all of this race's DHT walks
    route_retries: int = 0
    #: the DHT side gave up: routes stayed broken through every retry
    pier_failed: bool = False
    #: ring membership epoch when the race was submitted — compared at
    #: resolution to tell an honestly-empty answer from one that may have
    #: lost data to mid-race churn
    membership_epoch: int = 0
    #: posting-join matches the executed plan produced (entries surviving
    #: the last posting stage). Matches with zero final results mean the
    #: Item rows themselves are gone — loss the posting keys alone cannot
    #: prove.
    join_matches: int = 0
    done: bool = False
    finished_at: float | None = None
    #: the first-result latency reached ``hybrid.first_result_latency``
    latency_observed: bool = False
    #: root trace span of this race, when the engine carries a tracer
    span: object = None

    @property
    def first_result_latency(self) -> float:
        return self.outcome.first_result_latency


@dataclass
class _Walk:
    """State of one in-progress hop-by-hop plan-dissemination walk.

    The walk is its own hop callback: calling it takes the next hop, so a
    walk schedules itself once per hop and builds no closure per hop.
    """

    engine: HybridQueryEngine = field(repr=False)
    race: QueryRace
    hybrid: HybridUltrapeer
    plan: DistributedPlan
    #: consecutive distinct sites still to reach, in chain order
    targets: list[int]
    index: int = 0
    origin: int = 0
    gen: object = None
    hops: int = 0
    #: "requery.attempt" span covering this walk, when tracing is on
    span: object = None

    def __call__(self) -> None:
        self.engine._step_walk(self)


class HybridQueryEngine:
    """Races Gnutella flooding against the DHT re-query on a simulator.

    One engine serves every hybrid ultrapeer sharing a simulator and a
    DHT; races from different ultrapeers overlap freely in virtual time
    (the concurrency regime the benchmark drives past 1k in-flight).
    """

    def __init__(
        self,
        sim: Simulator,
        dht: DhtNetwork,
        config: RaceConfig | None = None,
        rng=None,
        tracer=None,
        metrics=None,
    ):
        self.sim = sim
        self.dht = dht
        self.latency_model = GnutellaLatencyModel()
        self.config = config or RaceConfig()
        self.rng = make_rng(rng)
        #: optional :class:`repro.obs.trace.Tracer` — when set, every race
        #: records a span tree (race -> flood arrivals / requery walks ->
        #: dataflow stages -> exchange batches)
        self.tracer = tracer
        #: engine counters are always live (retries, dead ends, churn
        #: recoveries fire on rare paths only, so the always-on cost is
        #: negligible); pass a shared registry to merge with other layers
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: registry series resolved once each, on first use
        self._counters: dict[tuple[str, str, str], MetricCounter] = {}
        self._latency_histogram = None
        #: only a caller-supplied registry is wired into the dataflow's
        #: per-batch hot path — with no opt-in the dataflow runs unmetered
        self._wired_metrics = metrics
        self.races: list[QueryRace] = []
        self.inflight = 0
        self.peak_inflight = 0
        self.completed = 0
        #: one dataflow runtime per search engine, sharing this simulator
        #: and RNG so races and tuple batches interleave deterministically
        #: (the SearchEngine itself is held as the key so a recycled id()
        #: can never alias a stale runtime)
        self._dataflows: dict[int, tuple[SearchEngine, DataflowExecutor]] = {}

    def _dataflow_for(self, search_engine: SearchEngine) -> DataflowExecutor:
        key = id(search_engine)
        entry = self._dataflows.get(key)
        if entry is not None and entry[0] is search_engine:
            return entry[1]
        dataflow = DataflowExecutor(
            search_engine.network,
            search_engine.catalog,
            sim=self.sim,
            memory_budget=self.config.memory_budget,
            rng=self.rng,
            tracer=self.tracer,
            metrics=self._wired_metrics,
        )
        self._dataflows[key] = (search_engine, dataflow)
        return dataflow

    def _counter(self, name: str, label: str = "", value: str = "") -> MetricCounter:
        """The registry's ``name{label=value}`` series, looked up once."""
        key = (name, label, value)
        if key not in self._counters:
            labels = {label: value} if label else None
            self._counters[key] = self.metrics.counter(name, labels=labels)
        return self._counters[key]

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    def submit(
        self,
        hybrid: HybridUltrapeer,
        terms: list[str],
        match_depths: list[float],
        stop_ttl: int,
    ) -> QueryRace:
        """Schedule one leaf query's race; it resolves as the simulator runs.

        ``match_depths`` holds the overlay depth of every matching replica
        from the querying ultrapeer (``inf`` for unreachable ones); only
        replicas within ``stop_ttl`` produce arrival events.
        """
        # hop -> replicas arriving with its round, counted per distinct depth
        reachable: dict[int, int] = {}
        for depth, count in Counter(match_depths).items():
            if depth <= stop_ttl:
                hop = max(1, int(depth))
                reachable[hop] = reachable.get(hop, 0) + count
        outcome = HybridQueryOutcome(
            terms=tuple(terms),
            gnutella_results=sum(reachable.values()),
            gnutella_latency=math.inf,
        )
        race = QueryRace(
            outcome=outcome,
            submitted_at=self.sim.now,
            stop_ttl=stop_ttl,
            key=query_key(terms),
            membership_epoch=self.dht.membership_version,
        )
        if self.tracer is not None:
            race.span = self.tracer.begin(
                "hybrid.race",
                terms=list(terms),
                stop_ttl=stop_ttl,
                reachable_replicas=outcome.gnutella_results,
            )
        self._counter("hybrid.races").add(1)
        self.races.append(race)
        self.inflight += 1
        self.peak_inflight = max(self.peak_inflight, self.inflight)
        # One arrival event per distinct depth: every replica at depth d
        # becomes visible when the TTL-d round reaches it.
        for depth, count in sorted(reachable.items()):
            at = self.latency_model.arrival_for_depth(depth, stop_ttl)
            if not math.isinf(at):
                self.sim.schedule(
                    at,
                    lambda race=race, count=count, depth=depth: self._on_gnutella_arrival(
                        race, count, depth
                    ),
                )
        self.sim.schedule(
            hybrid.gnutella_timeout, lambda: self._on_timeout(race, hybrid)
        )
        return race

    # ------------------------------------------------------------------
    # Gnutella side
    # ------------------------------------------------------------------

    def _on_gnutella_arrival(self, race: QueryRace, count: int, depth: int = 0) -> None:
        if race.gnutella_arrived == 0:
            race.outcome.gnutella_latency = self.sim.now - race.submitted_at
        race.gnutella_arrived += count
        if race.span is not None and race.span.recording:
            race.span.event("flood.arrival", depth=depth, results=count)

    # ------------------------------------------------------------------
    # DHT side
    # ------------------------------------------------------------------

    def _on_timeout(self, race: QueryRace, hybrid: HybridUltrapeer) -> None:
        if race.gnutella_arrived > 0:
            # Gnutella answered in time: no re-query, race resolved.
            self._finish(race)
            return
        race.outcome.used_pier = True
        entry = hybrid.cache_lookup(race.key)
        if entry is not None:
            outcome = race.outcome
            outcome.cache_hit = True
            outcome.pier_results = entry.result_count
            outcome.saved_bytes = entry.cost_bytes
            self._counter("hybrid.cache_hits").add(1)
            if race.span is not None:
                race.span.event(
                    "cache.hit", results=entry.result_count, saved_bytes=entry.cost_bytes
                )
            self.sim.schedule(
                DEFAULT_CACHE_LATENCY, lambda: self._complete_cache_hit(race)
            )
            return
        if self.config.requery_deadline is not None:
            self.sim.schedule(
                self.config.requery_deadline, lambda: self._on_deadline(race)
            )
        self._start_requery(race, hybrid)

    def _on_deadline(self, race: QueryRace) -> None:
        """The re-query outlived its deadline: degrade instead of waiting.

        Under a partition the stretched hop delays (and retry backoffs) can
        push a walk arbitrarily far into virtual time; the deadline converts
        that into a prompt, explicitly-flagged partial answer. Whatever
        results already landed stay on the outcome — late pipeline batches
        may still top it up, matching the race's late-answers-count policy.
        """
        if race.done:
            return
        race.pier_failed = True
        self._mark_degraded(race, "deadline")
        self._counter("hybrid.requery_deadline_exceeded").add(1)
        self._finish(race)

    def _mark_degraded(self, race: QueryRace, reason: str) -> None:
        if race.outcome.degraded:
            return
        race.outcome.degraded = True
        race.outcome.degraded_reason = reason
        self._counter("hybrid.degraded", "reason", reason).add(1)
        if race.span is not None and race.span.recording:
            race.span.event("race.degraded", reason=reason)

    def _start_requery(self, race: QueryRace, hybrid: HybridUltrapeer) -> None:
        if race.done:
            return
        race.pier_attempts += 1
        self._counter("hybrid.requery_attempts").add(1)
        try:
            query_node = hybrid.dht_node_id
            if query_node not in self.dht.nodes:
                # The ultrapeer's own DHT node churned out; re-enter
                # anywhere (raises DhtError when the ring is empty, which
                # must resolve the race, not escape the simulator).
                query_node = self.dht.random_node_id()
            plan = hybrid.search_engine.prepare_keywords(race.key, query_node=query_node)
        except PlanError:
            # No indexable terms: the re-query cannot be issued at all.
            self._finish(race)
            return
        except DhtError:
            self._counter("hybrid.dht_dead_ends").add(1)
            self._retry(race, hybrid)
            return
        targets: list[int] = []
        previous = plan.query_node
        for stage in plan.stages:
            if stage.site != previous:
                targets.append(stage.site)
                previous = stage.site
        walk = _Walk(
            engine=self,
            race=race,
            hybrid=hybrid,
            plan=plan,
            targets=targets,
            origin=plan.query_node,
        )
        if race.span is not None:
            walk.span = race.span.child(
                "requery.attempt",
                attempt=race.pier_attempts,
                strategy=plan.strategy.name,
                chain_sites=len(targets),
            )
        self._step_walk(walk)

    def _step_walk(self, walk: _Walk) -> None:
        """Advance the plan-dissemination walk by one overlay hop."""
        race = walk.race
        if race.done:
            return
        try:
            while True:
                if walk.gen is None:
                    if walk.index >= len(walk.targets):
                        self._execute(walk)
                        return
                    origin = walk.origin
                    if origin not in self.dht.nodes:
                        origin = self.dht.random_node_id()
                    walk.gen = self.dht.iter_lookup(
                        walk.targets[walk.index], origin=origin
                    )
                    next(walk.gen)  # position at the origin (hop zero)
                try:
                    next(walk.gen)  # take one overlay hop
                    walk.hops += 1
                    break
                except StopIteration as stop:
                    result = stop.value
                    race.route_retries += result.retries
                    if result.retries:
                        self._counter("hybrid.churn_recoveries").add(result.retries)
                    if walk.span is not None and walk.span.recording:
                        walk.span.event(
                            "dht.lookup",
                            target=walk.targets[walk.index],
                            owner=result.owner,
                            hops=walk.hops,
                            retries=result.retries,
                        )
                    walk.origin = result.owner
                    walk.index += 1
                    walk.gen = None
        except DhtError:
            # The route broke mid-walk beyond successor-list repair.
            self._counter("hybrid.dht_dead_ends").add(1)
            if walk.span is not None:
                walk.span.finish(error="DhtError", hops=walk.hops)
            self._retry(race, walk.hybrid)
            return
        self.sim.schedule(self.dht.transport.hop_delays(self.rng, 1), walk)

    def _execute(self, walk: _Walk) -> None:
        """Chain fully routed: run the plan, then deliver the answer(s).

        The plan is handed to the exchange dataflow on this engine's
        simulator: tuple batches flow site-to-site as events, and the
        race resolves at the *first* answer batch — a DHT answer can win
        mid-join, while the rest of the pipeline keeps draining (its
        bytes still count).
        """
        race = walk.race
        if self.config.batch_size is not None:
            walk.plan.batch_size = self.config.batch_size
        self._dataflow_for(walk.hybrid.search_engine).submit(
            walk.plan,
            on_first_answer=lambda query: self._on_first_answer_batch(race),
            on_complete=lambda query: self._on_pipeline_complete(race, walk, query),
            on_error=lambda query, error: self._on_pipeline_error(race, walk, query),
            delay_dissemination=False,  # the walk already spent that time
            trace_parent=walk.span,
        )

    def _on_first_answer_batch(self, race: QueryRace) -> None:
        """The first answer tuples reached the query node mid-join."""
        race.outcome.pier_latency = self.sim.now - race.submitted_at
        self._finish(race)

    def _on_pipeline_complete(
        self, race: QueryRace, walk: _Walk, query: DataflowQuery
    ) -> None:
        """The dataflow drained: final result set and byte totals are in."""
        outcome = race.outcome
        result = walk.hybrid.search_engine.finalize(walk.plan, query.rows, query.stats)
        walk.hybrid.search_engine.observe_execution(walk.plan, query.stats)
        if walk.span is not None:
            walk.span.finish(
                hops=walk.hops, results=len(result), bytes=query.stats.bytes
            )
        outcome.pier_results = len(result)
        outcome.pier_bytes = query.stats.bytes
        race.join_matches = query.stats.join_matches
        outcome.pier_completion_latency = self.sim.now - race.submitted_at
        if outcome.pier_latency == 0.0:
            # No answer batch ever fired (empty result set): completion is
            # the only PIER timestamp this race gets.
            outcome.pier_latency = outcome.pier_completion_latency
        # Runs even when the race already resolved on its first answer
        # batch: the final result count was not known until now.
        self._flag_untrusted_zero(race, walk.hybrid.search_engine)
        if not outcome.degraded:
            # A degraded answer may have lost data to churn: never let it
            # poison the shared result cache.
            walk.hybrid.cache_store(race.key, result)
        if race.done and not race.latency_observed:
            # Resolved on its first answer batch: only now is the PIER
            # result count, and so the first-result latency, known.
            self._observe_first_result(race)
        self._finish(race)

    def _on_pipeline_error(
        self, race: QueryRace, walk: _Walk, query: DataflowQuery
    ) -> None:
        """The dataflow broke mid-join (a site or route churned away)."""
        if walk.span is not None:
            walk.span.finish(error="DhtError", hops=walk.hops)
        if race.done:
            # The race already resolved (it won on a delivered answer
            # batch): keep whatever partial results arrived rather than
            # retrying or flagging a resolved race as failed — but do not
            # cache a partial answer.
            if query.rows:
                outcome = race.outcome
                result = walk.hybrid.search_engine.finalize(
                    walk.plan, query.rows, query.stats
                )
                outcome.pier_results = len(result)
                outcome.pier_bytes = query.stats.bytes
                outcome.pier_completion_latency = self.sim.now - race.submitted_at
                if not race.latency_observed:
                    self._observe_first_result(race)
            self._mark_degraded(race, "partial-answer")
            return
        self._counter("hybrid.dht_dead_ends").add(1)
        self._retry(race, walk.hybrid)

    def _retry(self, race: QueryRace, hybrid: HybridUltrapeer) -> None:
        if race.pier_attempts >= MAX_REQUERY_ATTEMPTS:
            race.pier_failed = True
            self._mark_degraded(race, "requery-abandoned")
            self._counter("hybrid.pier_abandoned").add(1)
            self._finish(race)
            return
        self._counter("hybrid.requery_retries").add(1)
        self.sim.schedule(
            self.config.retry_backoff, lambda: self._start_requery(race, hybrid)
        )

    def _complete_cache_hit(self, race: QueryRace) -> None:
        race.outcome.pier_latency = self.sim.now - race.submitted_at
        race.outcome.pier_completion_latency = race.outcome.pier_latency
        self._finish(race)

    def _flag_untrusted_zero(self, race: QueryRace, search: SearchEngine) -> None:
        """Degrade a zero-result answer that cannot be trusted as empty.

        Runs where the *final* PIER result count is known (the pipeline
        drain — never at the first answer batch, whose Item rows may still
        be in flight). An empty answer is only honest when the walk was
        clean, the ring membership never moved under it, none of its
        posting keys lies in a suspect range (a slice whose owner died
        with no handoff), and the posting join itself matched nothing.
        Otherwise a survivor may legitimately own the key range with none
        of the departed owner's data — loss that *looks* like absence.
        Flag it so recall accounting can tell the two apart.
        """
        outcome = race.outcome
        if (
            not outcome.used_pier
            or outcome.cache_hit
            or outcome.pier_results > 0
            or outcome.degraded
        ):
            return
        table = (
            CACHE_TABLE
            if search.strategy is JoinStrategy.INVERTED_CACHE
            else POSTING_TABLE
        )
        handle = search.catalog.table(table)
        suspect_posting = any(self.dht.is_suspect(handle.ring_key(k)) for k in race.key)
        # Join matches with zero final results mean the matched Item rows
        # are gone from the ring — loss the posting keys cannot prove.
        lost_items = race.join_matches > 0
        if suspect_posting or (lost_items and self.dht.suspect_ranges):
            self._mark_degraded(race, "suspect-range")
        elif (
            lost_items
            or race.pier_failed
            or race.route_retries > 0
            or race.pier_attempts > 1
            or self.dht.membership_version != race.membership_epoch
        ):
            self._mark_degraded(race, "membership-change")

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------

    def _finish(self, race: QueryRace) -> None:
        if race.done:
            return
        race.done = True
        race.finished_at = self.sim.now
        self.inflight -= 1
        self.completed += 1
        outcome = race.outcome
        winner = (
            "cache"
            if outcome.cache_hit
            else "gnutella"
            if race.gnutella_arrived > 0
            else "pier"
            if outcome.used_pier and not race.pier_failed
            else "none"
        )
        self._counter("hybrid.winner", "source", winner).add(1)
        self._observe_first_result(race)
        if race.span is not None:
            race.span.finish(
                winner=winner,
                used_pier=outcome.used_pier,
                cache_hit=outcome.cache_hit,
                pier_failed=race.pier_failed,
                pier_attempts=race.pier_attempts,
                route_retries=race.route_retries,
                gnutella_results=race.gnutella_arrived,
                pier_results=outcome.pier_results,
            )

    def _observe_first_result(self, race: QueryRace) -> None:
        """Feed a resolved race's first-result latency to the histogram,
        once, as soon as it is known: at resolution for a flood win or a
        cache hit, and for a PIER answer when its result count arrives
        (the race resolved on its first answer batch, before it)."""
        latency = race.outcome.first_result_latency
        if math.isinf(latency):
            return
        race.latency_observed = True
        if self._latency_histogram is None:
            self._latency_histogram = self.metrics.histogram(
                "hybrid.first_result_latency", reservoir_size=4096
            )
        self._latency_histogram.observe(latency)

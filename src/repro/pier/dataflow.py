"""Streaming exchange dataflow: pipelined, batched PIER execution.

The one runtime that executes distributed plans, and the one the paper
describes (Section 3.2, Figure 2) — posting-list tuples *stream* between
the sites of a keyword chain:

* A plan runs as its step list (:func:`repro.pier.query.plan_steps`),
  interpreted by :meth:`_QueryRun.start`: the plan legs are charged front
  to back, then one back-to-front loop opens every **exchange edge**
  (a ship step) and every per-site stage (a key-join, Bloom probe or
  Bloom verify step — one :class:`_Stage` body for all three) and the
  fetch step (:class:`_Fetch`), so each step's output exists before the
  step feeding it. The scan and its local steps (substring filters, the
  Bloom build) run when the plan reaches the first site.
* The fetch step runs where the step list puts it: at the query node
  after an answer edge (the distributed join and the InvertedCache plan,
  the paper's Figures 2 and 3), or at the site whose operator produced
  the matches (the semi-join's last join site, the Bloom join's verify
  site), which then ships no answer leg. Either way each matched fileID
  costs one routed request to its Item's host and one reply from there
  straight to the query node.
* Every batch is a scheduled event in **virtual time** on a
  :class:`~repro.sim.engine.Simulator`: a send event ships the batch in
  one call (:meth:`DhtNetwork.ship_batch` sends it direct to the site
  its plan leg routed to, charges its wire bytes and returns its
  ``(hops, messages, bytes)``; nothing else is built per batch) and
  draws its hop latency in one more
  (:meth:`~repro.net.transport.Transport.hop_delays`). A batch whose
  site has left the ring fails the run instead. The receiving
  site probes the :class:`~repro.pier.operators.StoredHashJoin` built on
  its own posting list and immediately forwards new survivors
  downstream. The first answer therefore reaches the query node while
  upstream batches are still in flight — first-answer latency is a
  property of the *pipeline*, not the join.
* A site reads its posting list as a
  :class:`~repro.pier.operators.StoredList`, the store's memoised view of
  that list (:meth:`~repro.pier.catalog.TableHandle.view_local`): the
  join build, the Bloom filter and the Bloom probe's matches are made
  once per version of the stored list and shared by every query until a
  write changes it; a query keeps only its own probe accounting
  (:class:`~repro.pier.operators.JoinProbe`).
* Joins optionally run under a **memory budget**: a site whose list
  overflows it evicts build partitions, which stay where they are stored
  (nothing is written), and each arriving batch is charged a re-read of
  the evicted partitions its keys land in. Spill is site-local: it
  schedules nothing and ships nothing.
* Every event a query schedules belongs to its
  :class:`~repro.sim.engine.EventGroup`, so a failed query (a site that
  left the ring) cancels all of its in-flight and queued batches at once.
* Nothing here branches on the strategy: the distributed join, the
  semi-join, the Bloom join (filter forward, probable-match digests, a
  verification leg back to the filter site) and the InvertedCache plan
  differ only in their step lists (:mod:`repro.pier.optimizer` picks
  between them by pricing the same lists).

Byte accounting is per payload: a batch pays its tuples once plus one
message header, so a stage split into ``k`` batches costs exactly
``k-1`` extra headers over shipping it whole — the
batch-size sweep in ``BENCH_dataflow.json`` measures that latency/bytes
trade-off. The plan's ``batch_size`` is the only batch size (the
planner sizes it from posting statistics); ``None`` ships one batch per
edge, the cheapest accounting and the one the blocking
:meth:`repro.piersearch.search.SearchEngine.search` uses (a call that
returns the whole answer has no first-answer time to optimise).

In-memory, exchange batches are **compact**: a shared schema tuple plus
one value tuple per row (:class:`repro.pier.rows.RowBatch`), converted to
dict rows only at query-result boundaries (answer delivery without Item
fetches, and the Item tuples a fetch returns). Wire costs are
``per_tuple_bytes * len(batch)`` either way, so the representation never
shows up in the accounting — only in wall-clock speed.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from operator import itemgetter
from time import perf_counter
from typing import Any, Callable

from repro.common.errors import DhtError, NodeNotFoundError
from repro.common.rng import make_rng
from repro.dht.network import DhtNetwork
from repro.pier.catalog import Catalog
from repro.pier.operators import (
    JoinProbe,
    StoredList,
    SubstringFilter,
)
from repro.pier.rows import RowBatch
from repro.pier.query import (
    BLOOM_FP_RATE,
    POSTING_TABLE,
    DistributedPlan,
    Edge,
    Op,
    PipelineStats,
    QueryStats,
    SpillStats,
    Step,
    edge_tuple_bytes,
    plan_steps,
)
from repro.pier.schema import Row
from repro.sim.engine import EventGroup, Simulator

_FILE_ID = itemgetter("fileID")

#: virtual time between consecutive batch sends on one exchange edge
#: (models serialising a batch onto the first hop)
SEND_INTERVAL = 0.15

#: the per-site operator steps (each run by one :class:`_Stage`): name
#: (span ``stage.<name>``, metrics ``operator.<name>.*``), the span
#: attribute counting emitted keys, and the rows-in and keys-out counters
_STAGES = {
    Op.JOIN: ("join", "survivors", "probe_rows", "survivor_rows"),
    Op.BLOOM_PROBE: ("bloom_probe", "candidates", "rows", "candidates"),
    Op.BLOOM_VERIFY: ("bloom_verify", "verified", "rows", "survivors"),
}


class DataflowQuery:
    """One pipelined query in flight; completed once ``done`` is set."""

    def __init__(self, plan: DistributedPlan, stats: QueryStats):
        self.plan = plan
        self.stats = stats
        self.rows: list[Row] = []
        self.done = False
        #: what failed the query, if anything. Stored *without* its
        #: traceback (see ``_QueryRun.fail``): the message and type say
        #: what went wrong, not which frame raised it — break on
        #: ``_QueryRun.fail`` to see the raising stack
        self.error: DhtError | None = None

    @property
    def pipeline(self) -> PipelineStats:
        return self.stats.pipeline


class _HotMetrics:
    """Per-executor cache of hot-path metric handles.

    Resolving a series by name costs a label encoding plus a registry
    lookup; the per-batch and per-probe paths would pay that hundreds of
    thousands of times in a scale run, so the executor resolves each
    handle once and the stages hold bound Counter/Histogram objects.
    """

    def __init__(self, metrics):
        self.metrics = metrics
        self.batch_transit = metrics.histogram("dataflow.batch_transit", reservoir_size=4096)
        self.join_build_rows = metrics.counter("operator.join.build_rows")
        #: (seconds, rows in, keys out) of each stage operation
        self.stage = {
            op: (
                metrics.histogram(f"operator.{name}.seconds", reservoir_size=1024),
                metrics.counter(f"operator.{name}.{rows}"),
                metrics.counter(f"operator.{name}.{out}"),
            )
            for op, (name, _, rows, out) in _STAGES.items()
        }
        self._by_category: dict = {}
        self._by_strategy: dict = {}

    def completion(self, strategy):
        """(queries, per-strategy, completion-time) handles, memoised per
        strategy; the registry hands every strategy the same shared two."""
        handles = self._by_strategy.get(strategy)
        if handles is None:
            metrics = self.metrics
            handles = self._by_strategy[strategy] = (
                metrics.counter("dataflow.queries"),
                metrics.counter("dataflow.strategy", labels={"strategy": strategy.name}),
                metrics.histogram("dataflow.completion_vtime", reservoir_size=4096),
            )
        return handles

    def batch_counters(self, category):
        """(batches, tuples) counters for one traffic category, memoised."""
        handles = self._by_category.get(category)
        if handles is None:
            labels = {"category": category}
            handles = self._by_category[category] = (
                self.metrics.counter("dataflow.batches", labels=labels),
                self.metrics.counter("dataflow.tuples", labels=labels),
            )
        return handles


class DataflowExecutor:
    """Runs distributed plans as streaming dataflows in virtual time.

    Standalone use drains a private simulator synchronously
    (:meth:`execute`); the hybrid engine instead :meth:`submit`\\ s
    queries onto its shared simulator, where tuple flow interleaves with
    Gnutella arrivals, churn, and other races.
    """

    def __init__(
        self,
        network: DhtNetwork,
        catalog: Catalog,
        sim: Simulator | None = None,
        memory_budget: int | None = None,
        rng=None,
        tracer=None,
        metrics=None,
    ):
        self.network = network
        self.catalog = catalog
        self.sim = sim or Simulator()
        self.cost_model = network.cost_model
        #: max *rows* (not bytes) of its stored posting list a join site
        #: builds in memory (None = unbounded). Over it, whole build
        #: partitions are evicted; they stay in the site's store and every
        #: arriving batch re-reads the evicted partitions its keys land in
        self.memory_budget = memory_budget
        self.rng = make_rng(rng)
        self._query_counter = 0
        #: observability hooks (:mod:`repro.obs`); both default to None and
        #: every call site guards on that, so the disabled path costs one
        #: branch — never an allocation
        self.tracer = tracer
        self.metrics = metrics
        self._hot = _HotMetrics(metrics) if metrics is not None else None

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------

    def execute(
        self,
        plan: DistributedPlan,
        fetch_items: bool = True,
    ) -> tuple[list[Row], QueryStats]:
        """Run ``plan`` to completion on this executor's simulator.

        Synchronous counterpart of :meth:`submit` for standalone use (do
        not call it on a simulator shared with other activities — it
        drains the whole event queue). Returns (result rows, per-query
        statistics); rows are Item tuples when ``fetch_items`` is set,
        otherwise the surviving posting entries. A failed query re-raises
        its :attr:`DataflowQuery.error` from here, so the traceback
        starts at this call, not at the DHT operation that failed.
        """
        query = self.submit(plan, fetch_items=fetch_items)
        self.sim.run()
        if query.error is not None:
            raise query.error
        return query.rows, query.stats

    def submit(
        self,
        plan: DistributedPlan,
        fetch_items: bool = True,
        on_first_answer: Callable[[DataflowQuery], None] | None = None,
        on_complete: Callable[[DataflowQuery], None] | None = None,
        on_error: Callable[[DataflowQuery, DhtError], None] | None = None,
        delay_dissemination: bool = True,
        trace_parent=None,
    ) -> DataflowQuery:
        """Schedule ``plan`` as a pipelined dataflow; returns its handle.

        ``delay_dissemination=False`` starts every stage immediately (the
        hybrid engine uses it after walking the plan chain hop by hop in
        its own virtual time — dissemination bytes are still charged).
        ``trace_parent`` (a :class:`repro.obs.trace.Span`) nests this
        query's dataflow spans under a caller span, e.g. a hybrid race.
        """
        self._query_counter += 1
        run = _QueryRun(
            self,
            plan,
            query_id=self._query_counter,
            fetch_items=fetch_items,
            on_first_answer=on_first_answer,
            on_complete=on_complete,
            on_error=on_error,
            delay_dissemination=delay_dissemination,
            trace_parent=trace_parent,
        )
        run.start()
        return run.query


# ----------------------------------------------------------------------
# Internal runtime
# ----------------------------------------------------------------------


class _Exchange:
    """One streaming ship step: batches from its source site to its target.

    Buffers offered value tuples (one per row, under the edge's fixed
    ``columns`` schema — see :class:`~repro.pier.rows.RowBatch`) into
    fixed-size batches, paces sends :data:`SEND_INTERVAL` apart, charges each
    batch on send, and delivers a free end-of-stream control event after
    the last data arrival (the marker piggybacks on the final batch, so
    it costs no extra bytes). An answer edge — the distributed join's and
    the InvertedCache plan's, or any plan's run without Item fetches —
    goes straight to the query node and streams eagerly — every offer
    ships at once, since batching answers only delays what the user is
    waiting for — and ships no posting entries.
    """

    def __init__(
        self, run: "_QueryRun", step: Step, feeder: Step, target: tuple, ready: list[float]
    ):
        edge, sites = step.edge, run.sites
        self.run = run
        self.source_site = sites[step.stage]
        self.target_site = sites[step.to]
        self.category = edge
        self.per_tuple_bytes = edge_tuple_bytes(edge, run.executor.cost_model)
        self.deliver, self.deliver_eos = target
        self.answer = answer = edge == Edge.ANSWER
        #: fed by the scan: an empty stream still ships one empty batch so
        #: the next site runs its stage (an empty operator output or
        #: answer stream breaks the chain instead)
        self.ships_empty = not answer and feeder.op == Op.SCAN
        #: the schema of the rows ``feeder`` offers
        self.columns = feeder.columns
        self.ready_time = 0.0 if answer else ready[step.to]
        #: hops a step flagged ``extends_path`` adds to the critical path
        #: when it carries anything (set by the run that opens it)
        self.path_hops = 0
        self._buffer: list[tuple] = []
        self._queue: deque[list[tuple]] = deque()
        self._sending = False
        self._closed = False
        self._eos_sent = False
        #: an empty stream already shipped its single empty batch
        self.empty_shipped = False
        self.tuples_sent = 0
        self.batches_sent = 0
        self._last_arrival = 0.0
        hot = run.hot
        if hot is not None:
            self._m_batches, self._m_tuples = hot.batch_counters(self.category)
            self._m_transit = hot.batch_transit
        else:
            self._m_batches = self._m_tuples = self._m_transit = None

    def offer(self, values: list[tuple]) -> None:
        """Queue value tuples (shaped by this edge's ``columns``) to ship."""
        if self.answer:
            if values:
                self._queue.append(list(values))
                self._pump()
            return
        self._buffer.extend(values)
        threshold = self.run.batch_size
        if threshold is None:
            return  # stage granularity: everything ships on close
        buffer = self._buffer
        full = len(buffer) - len(buffer) % threshold
        if full:
            # One pass over the offer, however many batches it fills.
            for start in range(0, full, threshold):
                self._queue.append(buffer[start : start + threshold])
            self._buffer = buffer[full:]
        self._pump()

    def close(self) -> None:
        """Upstream finished: flush the remainder and mark end-of-stream."""
        self._closed = True
        if self._buffer:
            self._queue.append(self._buffer)
            self._buffer = []
        self._pump()

    # -- send loop -----------------------------------------------------

    def _pump(self) -> None:
        if self._sending:
            return
        if self._queue:
            self._sending = True
            self.run.group.schedule(0.0, self._send_head)
        elif self._closed:
            self._finish_stream()

    def _send_head(self) -> None:
        batch = self._queue.popleft()
        tuples = len(batch)
        run = self.run
        try:
            hops, messages, byte_count = run.executor.network.ship_batch(
                self.source_site, self.target_site, tuples * self.per_tuple_bytes, self.category
            )
        except DhtError as error:
            run.fail(error)
            return
        stats = run.stats
        stats.messages += messages
        stats.bytes += byte_count
        stats.pipeline.batches_shipped += 1
        self.batches_sent += 1
        self.tuples_sent += tuples
        if self.answer:
            hops = run.answer_hops = 1  # one direct hop, even to itself
        else:
            stats.posting_entries_shipped += tuples
        arrival = max(run.sim.now + run.delay(hops), self.ready_time)
        self._last_arrival = max(self._last_arrival, arrival)
        if run.span is not None:
            # A batch span covers send -> arrival; the end timestamp is
            # known now (virtual time), so close it immediately. All-
            # positional tracer call with a literal attrs dict: this is
            # the hottest span site in a scale run.
            run.span._tracer.complete(
                "exchange.batch",
                run.span,
                run.sim.now,
                arrival,
                {
                    "category": self.category,
                    "tuples": tuples,
                    "bytes": byte_count,
                    "hops": hops,
                },
            )
        if self._m_batches is not None:
            # Counter.add inlined: two calls fewer per batch when metered.
            self._m_batches.value += 1
            self._m_tuples.value += tuples
            self._m_transit.observe(arrival - run.sim.now)
        run.group.schedule_at(arrival, partial(self._arrive, batch))
        if self._queue:
            run.group.schedule(SEND_INTERVAL, self._send_head)
        else:
            self._sending = False
            if self._closed:
                self._finish_stream()

    def _arrive(self, batch: list[tuple]) -> None:
        self.deliver(RowBatch(self.columns, batch))

    # -- end of stream ---------------------------------------------------

    def _finish_stream(self) -> None:
        if self._eos_sent:
            return
        if self.tuples_sent == 0 and not self.empty_shipped:
            self.run.on_empty_stream(self)
            if self.empty_shipped:
                return  # eos follows the just-queued empty batch
            self._eos_sent = True  # stream resolved without a marker
            return
        self._eos_sent = True
        # Free control marker, piggybacked on the last data batch: arrives
        # only after every in-flight batch of this edge has landed.
        self.run.group.schedule_at(
            max(self.run.sim.now, self._last_arrival), self.deliver_eos
        )


class _Fetch:
    """One fetch step: the Item tuples of every fileID that reaches it.

    Fed by an answer edge at the query node or by the operator at the
    site holding the matches (each unpacks its own fileIDs), it fetches
    every list it is handed at once from the step's site: one routed
    request per fileID, and one reply from the Item's host straight to
    the step's ``to`` site, the query node
    (:meth:`_QueryRun._fetch_items`). End-of-stream rides the last reply;
    a stream that closes without a key sends the query node its one empty
    answer message instead.
    """

    def __init__(self, run: "_QueryRun", step: Step):
        self.run = run
        self.origin = run.sites[step.stage]
        self.reply_to = run.sites[step.to]
        self.keys = 0

    def fetch(self, file_ids: list) -> None:
        run = self.run
        if run.query.done:
            return
        try:
            items, hops = run._fetch_items(self.origin, self.reply_to, file_ids)
        except DhtError as error:
            run.fail(error)
            return
        self.keys += len(file_ids)
        run.outstanding_fetches += 1
        run.group.schedule(
            run.delay(hops + 1), partial(run._finish_fetch, items, len(file_ids))
        )

    def close(self) -> None:
        if self.keys:
            self.run._answers_finished()
        else:
            self.run._finalize_empty()


class _QueryRun:
    """Everything one pipelined query owns while in flight.

    Keep its instance attributes under 30: past that CPython 3.11 stops
    sharing instance-dict keys, and every ``run.`` read on the per-batch
    paths slows down (~5 % of a query's host time).
    """

    def __init__(
        self,
        executor: DataflowExecutor,
        plan: DistributedPlan,
        query_id: int,
        fetch_items: bool,
        on_first_answer,
        on_complete,
        on_error,
        delay_dissemination: bool,
        trace_parent=None,
    ):
        self.executor = executor
        self.plan = plan
        self.query_id = query_id
        self.fetch_items = fetch_items
        self.on_first_answer = on_first_answer
        self.on_complete = on_complete
        self.on_error = on_error
        self.delay_dissemination = delay_dissemination
        self.sim = executor.sim
        self.metrics = executor.metrics
        self.hot = executor._hot
        self.span = None
        if executor.tracer is not None:
            span = executor.tracer.begin(
                "pier.dataflow",
                parent=trace_parent,
                query_id=query_id,
                strategy=plan.strategy.name,
                keywords=list(plan.keywords),
            )
            # An unsampled trace records nothing below here: no span at
            # all spares every stage and batch site its tracer calls.
            if span.recording:
                self.span = span
        self._stage_spans: list = []
        self.group = executor.sim.group()
        self.batch_size = plan.batch_size
        self.stats = QueryStats(
            strategy=plan.strategy,
            keywords=plan.keywords,
            pipeline=PipelineStats(batch_size=self.batch_size),
        )
        self.query = DataflowQuery(plan, self.stats)
        self.submitted_at = executor.sim.now
        #: the node a step at each stage index runs at (the query node
        #: last, at :data:`~repro.pier.query.QUERY_NODE`)
        self.sites = [stage.site for stage in plan.stages] + [plan.query_node]
        self.exchanges: list[_Exchange] = []
        #: the key-join stages, front to back
        self.joins: list[_Stage] = []
        #: the keys the Bloom build step built its filter from (what a
        #: Bloom verify step checks candidates against)
        self.filter_keys: set | None = None
        self.answer_tuples = 0
        #: 1 once an answer leg (answer batches or the empty answer) shipped
        self.answer_hops = 0
        self.max_fetch_hops = 0
        self.outstanding_fetches = 0
        self.answers_done = False

    @property
    def pipeline(self) -> PipelineStats:
        return self.stats.pipeline

    # -- the step-list interpreter --------------------------------------

    def start(self) -> None:
        """Interpret the plan's step list: ship the plan legs front to
        back, then open every other ship step and per-site stage back to
        front (each step's output exists before the step feeding it), and
        schedule the scan and its site-local steps for when the plan
        reaches their site."""
        steps = plan_steps(
            self.plan.strategy, len(self.plan.stages), self.fetch_items
        )
        try:
            ready = self._disseminate(steps)
        except DhtError as error:
            self.fail(error)
            return
        target: Any = None  # (deliver, end-of-stream) of the next step
        out: Any = None  # (offer, close) of what the step being opened feeds
        local_end = len(steps)
        for position in range(len(steps) - 1, len(ready) - 1, -1):
            step = steps[position]
            op = step.op
            if op == Op.SHIP:
                out = self._open_edge(step, steps[position - 1], target, ready)
                local_end = position
            elif op in _STAGES:
                stage = _Stage(self, step, out)
                target = (stage.deliver, stage.on_eos)
            elif op == Op.FETCH:
                fetch = _Fetch(self, step)
                # Each feeder unpacks its own fileIDs: an answer edge's
                # row batches, or a stage's one-key value tuples.
                target = (lambda batch: fetch.fetch(batch.column("fileID")), fetch.close)
                out = (lambda values: fetch.fetch([key for (key,) in values]), fetch.close)
            elif op == Op.ANSWER:
                target = (self._deliver_answer, self._answers_finished)
            elif op == Op.SCAN:
                self.group.schedule_at(
                    ready[step.stage], partial(self._scan, steps[position:local_end], out)
                )

    def _disseminate(self, steps: tuple[Step, ...]) -> list[float]:
        """Ship the plan legs that lead the step list (query node -> site1
        -> site2 ...: each site must know where to rehash next, so that
        chain's hops are the critical path of dissemination); returns the
        virtual time the plan reaches each leg's target stage."""
        sites = self.sites
        ready: list[float] = []
        elapsed = 0.0
        chain_hops = 0
        for step in steps:
            if step.edge != Edge.PLAN:
                break
            hops = self._ship_plan(sites[step.stage], sites[step.to])
            chain_hops += hops
            if self.delay_dissemination:
                elapsed += self.delay(hops)
            ready.append(self.sim.now + elapsed)
        self.stats.chain_hops = chain_hops
        return ready

    def _ship_plan(self, source: int, target: int) -> int:
        """Charge one plan leg, a routed message; returns its hops."""
        cost = self.executor.cost_model
        hops = self._route_hops(source, target)
        self._charge(Edge.PLAN, max(1, hops), cost.routed_bytes(cost.query_plan_bytes, hops))
        return hops

    def _open_edge(self, step: Step, feeder: Step, target: tuple, ready: list[float]):
        """Open one ship step into ``target``; returns the (offer, close)
        that ``feeder`` feeds."""
        if step.edge == Edge.FILTER:
            # One direct message carrying the bit array: it stands for the
            # whole scanned list, but ships no entries.
            return partial(self._ship_filter, step, target[0], ready[step.to]), None
        edge = _Exchange(self, step, feeder, target, ready)
        self.exchanges.append(edge)
        if step.extends_path:
            edge.path_hops = int(edge.source_site != edge.target_site)  # one direct hop
        return edge.offer, edge.close

    def _scan(self, local: tuple[Step, ...], out) -> None:
        """Run a scan step and the site-local steps after it: substring
        filters on the scanned rows, the projection the scan offers, and
        the Bloom build."""
        scan = local[0]
        stage = self.plan.stages[scan.stage]
        try:
            table = self.executor.catalog.table(scan.table)
            view = table.view_local(stage.site, stage.keyword, StoredList)
        except DhtError as error:
            self.fail(error)
            return
        rows = view.rows
        offer, close = out
        self.stats.per_stage_entries.append(len(rows))
        for step in local[1:]:
            if step.op == Op.FILTER:
                needle = self.plan.stages[step.to].keyword
                rows = SubstringFilter(rows, column="fulltext", needle=needle)
        if len(scan.columns) > 1:
            # Whole posting tuples, straight to the answer edge.
            offer(list(map(itemgetter(*scan.columns), rows)))
            close()
            return
        if local[-1].op == Op.BLOOM_BUILD:
            self.filter_keys = view.key_set
            offer(view.bloom(BLOOM_FP_RATE))
            return
        if rows is view.rows:
            keys = view.distinct if scan.distinct else view.ids
        else:  # filtered for this query's other terms
            keys = map(_FILE_ID, rows)
            if scan.distinct:
                keys = dict.fromkeys(keys)
        offer(list(zip(keys)))  # one-column value tuples
        close()

    def _ship_filter(self, step: Step, deliver, ready_time: float, bloom) -> None:
        try:
            hops, messages, byte_count = self.executor.network.ship_batch(
                self.sites[step.stage], self.sites[step.to], bloom.size_bytes, step.edge
            )
        except DhtError as error:
            self.fail(error)
            return
        self.stats.messages += messages
        self.stats.bytes += byte_count
        self.stats.filter_bytes += bloom.size_bytes
        self.pipeline.batches_shipped += 1
        arrival = max(self.sim.now + self.delay(hops), ready_time)
        self.group.schedule_at(arrival, partial(deliver, bloom))

    # -- answers ---------------------------------------------------------

    def _deliver_answer(self, batch: RowBatch) -> None:
        # Query-result boundary: the only place answer tuples become dict
        # rows when Item fetching is off.
        self._results_ready(batch.to_rows(), len(batch))

    def _finish_fetch(self, items: list[Row], answer_count: int) -> None:
        self.outstanding_fetches -= 1
        self._results_ready(items, answer_count)

    def _fetch_items(
        self, origin: int, reply_to: int, file_ids: list
    ) -> tuple[list[Row], int]:
        """Fetch the Item tuples of ``file_ids`` from ``origin``, charging
        every message: one routed request per fileID to its Item's host,
        and one reply from there straight to ``reply_to``.

        Takes bare fileID values (compact batches never materialise
        fileID dicts). Returns (item rows, max routing hops across the
        parallel fetches — the one that bounds the batch's latency).
        Raises :class:`NodeNotFoundError`, charging nothing, when the
        node the replies go to has left the ring.
        """
        executor = self.executor
        if reply_to not in executor.network.nodes:
            raise NodeNotFoundError(f"reply target departed: {reply_to:x}")
        cost = executor.cost_model
        items = executor.catalog.table("Item")
        results: list[Row] = []
        batch_max_hops = 0
        for file_id in file_ids:
            host = items.host_of(file_id)
            hops = self._route_hops(origin, host)
            batch_max_hops = max(batch_max_hops, hops)
            request_bytes = cost.routed_bytes(cost.fileid_bytes, hops)
            fetched = items.fetch_local(host, file_id)
            response_bytes = cost.message_bytes(
                sum(cost.item_tuple_bytes(item["filename"]) for item in fetched)
            )
            self._charge(
                "pier.item_fetch", max(1, hops) + 1, request_bytes + response_bytes
            )
            results.extend(fetched)
        self.max_fetch_hops = max(self.max_fetch_hops, batch_max_hops)
        return results, batch_max_hops

    def _results_ready(self, rows: list[Row], answer_count: int) -> None:
        if self.query.done:
            return
        self.query.rows.extend(rows)
        self.answer_tuples += answer_count
        if self.pipeline.first_answer_time is None and answer_count > 0:
            self.pipeline.first_answer_time = self.sim.now - self.submitted_at
            if self.span is not None:
                self.span.event("first_answer", tuples=answer_count)
            if self.on_first_answer is not None:
                self.on_first_answer(self.query)
        self._maybe_complete()

    def _answers_finished(self) -> None:
        self.answers_done = True
        self._maybe_complete()

    def _maybe_complete(self) -> None:
        if self.answers_done and self.outstanding_fetches == 0:
            self.complete()

    # -- empty streams ---------------------------------------------------

    def on_empty_stream(self, exchange: _Exchange) -> None:
        """An edge closed without ever sending a tuple.

        An empty *scan* still rehashes (one empty message) to the next
        site, which runs its stage and comes up empty; an empty operator
        or answer stream breaks the chain — downstream stages never
        activate, and the query node receives one empty answer message.
        """
        if not exchange.ships_empty:
            self._finalize_empty()
            return
        exchange.empty_shipped = True
        exchange._queue.append([])
        exchange._pump()

    def _finalize_empty(self) -> None:
        if self.query.done:
            return
        cost = self.executor.cost_model
        self._charge("pier.answer", 1, cost.message_bytes(0))
        self.answer_hops = 1
        self.group.schedule(self.delay(1), self._answers_finished)

    # -- termination -----------------------------------------------------

    def complete(self) -> None:
        if self.query.done:
            return
        self.query.done = True
        self.pipeline.completion_time = self.sim.now - self.submitted_at
        self.stats.results = len(self.query.rows)
        self.stats.join_matches = self.answer_tuples
        # The answer hop when an answer leg shipped, plus any leg (the
        # Bloom join's verification leg back to the filter site) that
        # lengthens the data path beyond the dissemination chain, when it
        # carried anything, plus the slowest fetch and its reply.
        hops = self.stats.chain_hops + self.answer_hops
        for edge in self.exchanges:
            if edge.batches_sent:
                hops += edge.path_hops
        self.stats.critical_path_hops = hops
        if self.fetch_items and self.answer_tuples > 0:
            self.stats.critical_path_hops += self.max_fetch_hops + 1
        self._aggregate_spill_stats()
        if self.span is not None:
            for span in self._stage_spans:
                span.finish()  # idempotent: closes only never-drained stages
            self.span.finish(
                bytes=self.stats.bytes,
                messages=self.stats.messages,
                results=self.stats.results,
                batches=self.pipeline.batches_shipped,
            )
        if self.hot is not None:
            queries, by_strategy, completion = self.hot.completion(self.plan.strategy)
            queries.value += 1
            by_strategy.value += 1
            completion.observe(self.pipeline.completion_time)
        if self.on_complete is not None:
            self.on_complete(self.query)
        self._teardown()

    def fail(self, error: DhtError) -> None:
        if self.query.done:
            return
        self.query.done = True
        # Without its traceback: the frames that caught the error hold
        # this run, so ``run -> query -> error -> frame -> run`` would
        # make every failed query a cycle only the collector frees.
        self.query.error = error.with_traceback(None)
        self.pipeline.completion_time = self.sim.now - self.submitted_at
        self.group.cancel()
        self._aggregate_spill_stats()
        if self.span is not None:
            for span in self._stage_spans:
                span.finish()
            self.span.finish(error=type(error).__name__)
        if self.metrics is not None:
            self.metrics.counter("dataflow.failures").add(1)
        if self.on_error is not None:
            self.on_error(self.query, error)
        self._teardown()

    def _teardown(self) -> None:
        """Drop everything only an in-flight query needs.

        Edges and stages all point back at the run, so a finished
        run is a reference cycle until these lists go; dropping them lets
        the whole chain (edge -> stage -> edge ...) die by reference count
        the moment the query is done, collector or no collector.
        """
        self.exchanges = []
        self.joins = []
        self._stage_spans = []
        self.filter_keys = None
        self.on_first_answer = self.on_complete = self.on_error = None

    # -- plumbing --------------------------------------------------------

    def _aggregate_spill_stats(self) -> None:
        """Sum the budgeted key-joins' spill accounting into
        ``stats.spill`` (left ``None`` without a budget or a key-join)."""
        if self.executor.memory_budget is None or not self.joins:
            return
        spill = self.stats.spill = SpillStats()
        for stage in self.joins:
            join = stage.join
            if join is not None:  # None: the stage never opened
                spill.spill_reads += join.reads
                spill.reread_bytes += join.reread_bytes
                spill.partition_evictions += join.build.partition_evictions
        if self.metrics is not None:
            for name, value in (
                ("reads", spill.spill_reads),
                ("reread_bytes", spill.reread_bytes),
                ("partition_evictions", spill.partition_evictions),
            ):
                self.metrics.counter(f"operator.spill.{name}").add(value)

    def _route_hops(self, origin: int, key_owner: int) -> int:
        """Overlay hops to route from ``origin`` to ``key_owner``'s id."""
        if origin == key_owner:
            return 0
        return self.executor.network.route_hops(key_owner, origin)

    def delay(self, hops: int) -> float:
        """Virtual seconds ``hops`` overlay hops take (one draw per hop,
        summed left to right by the transport)."""
        executor = self.executor
        return executor.network.transport.hop_delays(executor.rng, hops)

    def _charge(self, category: str, messages: int, byte_count: int) -> None:
        self.stats.messages += messages
        self.stats.bytes += byte_count
        self.executor.network.transport.charge(category, messages, byte_count)


class _Stage:
    """One per-site operator step — key-join, Bloom probe or Bloom verify.

    One body for all three: the first delivery opens the stage (reads the
    site's posting list as its :class:`~repro.pier.operators.StoredList`);
    each delivery keeps the keys that *match*, drops those already
    emitted and offers the rest downstream, incrementally per batch;
    end-of-stream closes the output edge. A key-join probes the (possibly
    budgeted) :class:`~repro.pier.operators.StoredHashJoin` built once per
    stored list version — reused, not rebuilt, while the list is
    unchanged — through its own :class:`~repro.pier.operators.JoinProbe`
    (this query's reads), and keeps the arriving keys it finds there; a
    Bloom probe's one delivery is the filter, and it keeps the site's keys
    that pass (false positives only add digest bytes; the matches are
    memoised per filter on the list); a Bloom verify keeps the arriving
    candidates the filter was built from, so false positives die there.
    """

    def __init__(self, run: _QueryRun, step: Step, out: tuple):
        op, index = step.op, step.stage
        self.run = run
        self.op = op
        #: a Bloom probe's one delivery is the filter, not a key batch
        self.probe = op == Op.BLOOM_PROBE
        self.index = index
        self.site = run.sites[index]
        self.keyword = run.plan.stages[index].keyword
        #: (offer, close) of the step this stage feeds
        self.offer, self.close_out = out
        #: once opened: the site's list (key-join, Bloom probe) or the
        #: filter site's key set (Bloom verify)
        self.local: Any = None
        self.emitted: set[object] = set()
        self.span = None
        #: a key-join's probe of the build on the site's list, once opened
        self.join: JoinProbe | None = None
        #: (seconds, rows in, keys out) metric handles, when metered
        self.meters = run.hot.stage[op] if run.hot is not None else None
        if op == Op.JOIN:
            run.joins.insert(0, self)

    def _open(self) -> None:
        run = self.run
        if self.op == Op.BLOOM_VERIFY:
            self.local = run.filter_keys
            attrs: dict[str, Any] = {}
        else:
            table = run.executor.catalog.table(POSTING_TABLE)
            view = self.local = table.view_local(self.site, self.keyword, StoredList)
            rows = len(view.rows)
            run.stats.per_stage_entries.append(rows)
            attrs = {"site": self.site, "keyword": self.keyword}
            if self.op == Op.JOIN:
                executor = run.executor
                self.join = JoinProbe(
                    view.join(executor.memory_budget, executor.cost_model.spill_tuple_bytes())
                )
                # The stored rows joined against, whether built now or reused.
                attrs.update(stage=self.index, build_rows=rows)
                if run.hot is not None:
                    run.hot.join_build_rows.add(rows)
            else:
                attrs.update(rows=rows)
        if run.span is not None:
            self.span = run.span.child(f"stage.{_STAGES[self.op][0]}", **attrs)
            run._stage_spans.append(self.span)

    def deliver(self, batch) -> None:
        """Refine one arriving batch (for a Bloom probe: the filter)."""
        run = self.run
        if run.query.done:
            return
        if self.local is None:
            try:
                self._open()
            except DhtError as error:
                run.fail(error)
                return
        meters = self.meters
        started = perf_counter() if meters is not None else 0.0
        if self.probe:
            rows_in = len(self.local.rows)
            matched = self.local.bloom_matches(batch)
        else:
            # Key-only hot path: no dict per row.
            keys = [key for (key,) in batch.values]
            rows_in = len(keys)
            if self.join is not None:
                matched = self.join.probe(keys)
            else:
                local = self.local
                matched = [key for key in keys if key in local]
        emitted = self.emitted
        survivors: list[tuple] = []
        for key in matched:
            if key not in emitted:
                emitted.add(key)
                survivors.append((key,))
        if meters is not None:
            seconds, rows_counter, keys_counter = meters
            seconds.observe(perf_counter() - started)
            rows_counter.value += rows_in
            keys_counter.value += len(survivors)
        if survivors:
            self.offer(survivors)
        if self.probe:
            self.on_eos()  # the filter was the probe's whole input

    def on_eos(self) -> None:
        if self.span is not None:
            summary = {_STAGES[self.op][1]: len(self.emitted)}
            if self.join is not None:
                summary.update(spill_reads=self.join.reads)
            self.span.finish(**summary)
        if self.run.query.done:
            return
        self.close_out()

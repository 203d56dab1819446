"""Streaming exchange dataflow: pipelined, batched PIER execution.

The one runtime that executes distributed plans, and the one the paper
describes (Section 3.2, Figure 2) — posting-list tuples *stream* between
the sites of a keyword chain:

* Each plan stage becomes a per-site operator pipeline (Scan → SHJ →
  filters) and consecutive stages are connected by **exchange edges** that
  ship fixed-size tuple batches over the DHT.
* Every batch is a scheduled event in **virtual time** on a
  :class:`~repro.sim.engine.Simulator`: a send event charges the batch's
  wire bytes (:meth:`DhtNetwork.ship_batch`) and draws per-hop latencies
  for its arrival; the receiving site probes its incremental
  :class:`~repro.pier.operators.SymmetricHashJoin` and immediately
  forwards new survivors downstream. The first answer therefore reaches
  the query node while upstream batches are still in flight —
  first-answer latency is a property of the *pipeline*, not the join.
* Joins optionally run under a **memory budget**: overflowing build state
  spills into the site's DHT temp-tuple store (the same store PIER uses
  for all temporary tuples) and probes re-read the spilled partitions.
* The query node supports **early termination**: once ``stop_after``
  answer tuples have arrived, every in-flight and queued upstream batch
  is cancelled through a :class:`~repro.sim.engine.EventGroup`, saving
  the bytes those batches would have shipped.
* All four join strategies run pipelined: the distributed join streams
  framed posting tuples, the **semi-join** streams packed key digests
  over the same chain, and the **Bloom join** ships the rarest list as a
  Bloom filter, streams probable-match digests, and verifies candidates
  incrementally per batch at the filter site before answers leave
  (:mod:`repro.pier.optimizer` picks between them by predicted bytes).

Byte accounting is per payload: a batch pays its tuples once plus one
routing header per hop, so a stage split into ``k`` batches costs exactly
``k-1`` extra header units per hop over shipping it whole — the
batch-size sweep in ``BENCH_dataflow.json`` measures that latency/bytes
trade-off. ``batch_size=None`` ships one batch per edge, the cheapest
accounting and the one the blocking
:meth:`repro.piersearch.search.SearchEngine.search` uses (a call that
returns the whole answer has no first-answer time to optimise).

In-memory, exchange batches are **compact**: a shared schema tuple plus
one value tuple per row (:class:`repro.pier.rows.RowBatch`), converted to
dict rows only at query-result boundaries (answer delivery and Item
fetches). Wire costs are ``per_tuple_bytes * len(batch)`` either way, so
the representation never shows up in the accounting — only in wall-clock
speed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable

from repro.common.bloom import bloom_for_keys
from repro.common.errors import DhtError
from repro.common.ids import hash_key
from repro.common.rng import make_rng
from repro.common.units import CostModel
from repro.dht.network import DhtNetwork
from repro.pier.catalog import Catalog
from repro.pier.operators import (
    NUM_SPILL_PARTITIONS,
    SpillSink,
    SubstringFilter,
    Scan,
    SymmetricHashJoin,
)
from repro.pier.rows import RowBatch
from repro.pier.query import (
    DistributedPlan,
    JoinStrategy,
    PipelineStats,
    QueryStats,
    SpillStats,
    spill_stats_from_join,
)
from repro.pier.schema import Row
from repro.sim.engine import EventGroup, Simulator

#: default tuples per exchange batch when neither the plan nor the
#: executor's config picks one
DEFAULT_BATCH_SIZE = 64


def temp_ring_key(
    query_id: int, stage_index: int, tag: str = "", namespace: str = ""
) -> int:
    """Ring key of a query's temporary tuples at one stage.

    Keyed ``__temp__|q|s``; ``tag`` distinguishes extra streams such as
    join spill partitions. ``namespace`` isolates executors that share
    one DHT — per-executor query counters restart at zero, so concurrent
    queries from e.g. two shard engines would otherwise collide on temp
    slots.
    """
    suffix = f"|{tag}" if tag else ""
    return hash_key(f"__temp__|{namespace}q{query_id}|s{stage_index}{suffix}")


@dataclass(frozen=True)
class DataflowConfig:
    """Knobs of the streaming runtime."""

    #: tuples per exchange batch (None = one batch per edge: the fewest
    #: routing headers, and no first answer before the join drains)
    batch_size: int | None = DEFAULT_BATCH_SIZE
    #: mean one-way per-hop latency of an overlay hop (virtual seconds)
    hop_latency: float = 1.2
    #: fractional spread of each hop draw: U[mean*(1-j), mean*(1+j)]
    hop_jitter: float = 0.35
    #: virtual time between consecutive batch sends on one exchange edge
    #: (models serialising a batch onto the first hop)
    send_interval: float = 0.15
    #: max *rows* (not bytes) a join site holds in memory before spilling
    #: build partitions to the DHT temp-tuple store (None = unbounded)
    memory_budget: int | None = None
    #: hash-partition fan-out of each budgeted join's build state
    spill_partitions: int = NUM_SPILL_PARTITIONS


class DataflowQuery:
    """One pipelined query in flight; completed once ``done`` is set."""

    def __init__(self, plan: DistributedPlan, stats: QueryStats, stop_after: int | None):
        self.plan = plan
        self.stats = stats
        self.stop_after = stop_after
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

    @property
    def first_answer_time(self) -> float | None:
        """Virtual seconds from submission to the first answer tuple."""
        return self.pipeline.first_answer_time

    @property
    def completion_time(self) -> float | None:
        """Virtual seconds from submission until the pipeline drained."""
        return self.pipeline.completion_time


class _HotMetrics:
    """Per-executor cache of hot-path metric handles.

    Resolving a series by name costs a label encoding plus a registry
    lookup; the per-batch and per-probe paths would pay that hundreds of
    thousands of times in a scale run, so the executor resolves each
    handle once and the stages hold bound Counter/Histogram objects.
    """

    def __init__(self, metrics):
        self.metrics = metrics
        self.batch_transit = metrics.histogram(
            "dataflow.batch_transit", reservoir_size=4096
        )
        self.join_seconds = metrics.histogram(
            "operator.join.seconds", reservoir_size=1024
        )
        self.join_build_rows = metrics.counter("operator.join.build_rows")
        self.join_probe_rows = metrics.counter("operator.join.probe_rows")
        self.join_survivor_rows = metrics.counter("operator.join.survivor_rows")
        self.bloom_probe_seconds = metrics.histogram(
            "operator.bloom_probe.seconds", reservoir_size=1024
        )
        self.bloom_probe_rows = metrics.counter("operator.bloom_probe.rows")
        self.bloom_probe_candidates = metrics.counter(
            "operator.bloom_probe.candidates"
        )
        self.bloom_verify_seconds = metrics.histogram(
            "operator.bloom_verify.seconds", reservoir_size=1024
        )
        self.bloom_verify_rows = metrics.counter("operator.bloom_verify.rows")
        self.bloom_verify_survivors = metrics.counter(
            "operator.bloom_verify.survivors"
        )
        self._by_category: dict = {}

    def batch_counters(self, category):
        """(batches, tuples) counters for one traffic category, memoised."""
        handles = self._by_category.get(category)
        if handles is None:
            handles = (
                self.metrics.counter(
                    "dataflow.batches", labels={"category": category}
                ),
                self.metrics.counter(
                    "dataflow.tuples", labels={"category": category}
                ),
            )
            self._by_category[category] = handles
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
        cost_model: CostModel | None = None,
        config: DataflowConfig | None = None,
        rng=None,
        tracer=None,
        metrics=None,
        temp_namespace: str = "",
    ):
        self.network = network
        self.catalog = catalog
        self.sim = sim or Simulator()
        self.cost_model = cost_model or network.cost_model
        self.config = config or DataflowConfig()
        self.rng = make_rng(rng)
        self._query_counter = 0
        #: temp-key namespace — executors sharing one DHT (e.g. one per
        #: ring shard) must not collide on ``__temp__`` slots, since each
        #: restarts its query counter at zero
        self.temp_namespace = temp_namespace
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
        stop_after: int | None = None,
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
        query = self.submit(plan, fetch_items=fetch_items, stop_after=stop_after)
        self.sim.run()
        if query.error is not None:
            raise query.error
        return query.rows, query.stats

    def submit(
        self,
        plan: DistributedPlan,
        fetch_items: bool = True,
        stop_after: int | None = None,
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
            stop_after=stop_after,
            on_first_answer=on_first_answer,
            on_complete=on_complete,
            on_error=on_error,
            delay_dissemination=delay_dissemination,
            trace_parent=trace_parent,
        )
        run.start()
        return run.query

    # ------------------------------------------------------------------
    # Shared draws
    # ------------------------------------------------------------------

    def hop_delay(self) -> float:
        return self.network.transport.hop_delay(
            self.rng, self.config.hop_latency, self.config.hop_jitter
        )


# ----------------------------------------------------------------------
# Internal runtime
# ----------------------------------------------------------------------


class _DhtSpillSink(SpillSink):
    """Join spill partitions parked in the executing site's DHT temp store.

    Probes and restores are served from the base sink's in-memory
    partition index, so a probe touches only its matches instead of
    rescanning a partition per arriving row. The copy written to the
    site's store — one temp ring key per (side, partition), tag
    ``spill-{side}-p{pid}`` — is the *externally observable* surface: it
    is what the PIER temp-tuple contract exposes to other readers (and
    what tests inspect), it is removed when its partition restores into
    memory, and leftovers are released with the query's other temp keys.
    A partition surfaces one value per *distinct* key, in arrival order:
    the bare join key under its ``_seq`` identity (multiplicities stay in
    the compact index). The column is named once — by the sink's
    ``column`` and the bucket's tag — the way a
    :class:`~repro.pier.rows.RowBatch` names its schema once, so a
    spilled key costs no dict. (A ring handoff re-files a moved value
    under the value itself, so a bucket that churn moved is keyed by
    join key, not by sequence number — as unique, since a bucket holds
    one value per distinct key.) Surfacing is partition-granular: an
    evicted partition (``write_counts``) or a run of keys routed into
    spilled partitions (``route_counts``) takes its fresh keys' ``_seq``
    identities at once, in order, but only *buffers* them per ``(side,
    pid)``; the join's :meth:`flush` at the end of the call writes every
    partition it touched with one :meth:`DhtNetwork.put_local_many`, in
    the order the call first touched them, and a partition restored
    within the call drops its buffer (its bucket would be removed
    anyway). So the store holds exactly what one write per eviction and
    per routed run would have left at every event boundary — same
    values, identities and order — for one write per partition per call.
    The ``operator.spill.*`` counters and the ``join.spill`` span event
    are still fed once per eviction or routed run. Rows spilled
    after the site churned out get no DHT copy — they are counted as
    ``orphan_rows`` (surfaced via ``operator.spill.orphan_rows``) and
    live only in the base sink, which goes with the run's teardown. Like the
    in-memory base sink, this models spill *accounting*, not a real
    memory saving — the simulation keeps all state resident.
    """

    def __init__(self, run: "_QueryRun", site: int, stage_index: int, column: str):
        super().__init__(column, row_bytes=run.executor.cost_model.spill_tuple_bytes())
        self.run = run
        self.site = site
        self.stage_index = stage_index
        self._network = run.executor.network
        self._ring_keys: dict[tuple[str, int], int] = {}
        #: monotone per-sink sequence used as the DHT value identity —
        #: unique across both sides, so a partition that re-spills after
        #: a restore never collides
        self._seq = 0
        #: this call's surfaced ``(seq, key)`` entries not yet written:
        #: side -> pid -> entries, plus ``(ring key, entries)`` in the
        #: order the call first touched each partition (a restore empties
        #: and unlinks its entries; a re-eviction opens new ones)
        self._pending: dict[str, dict[int, list[tuple[int, Any]]]] = {
            "left": {},
            "right": {},
        }
        self._touched: list[tuple[int, list[tuple[int, Any]]]] = []
        # Spill accounting runs on every eviction and routed run —
        # resolve the span and metric counters once instead of attribute
        # hops and a string-keyed registry lookup each time.
        self._span = run.span
        metrics = run.metrics
        self._rows_counter = metrics.counter("operator.spill.rows") if metrics else None
        self._bytes_counter = (
            metrics.counter("operator.spill.bytes") if metrics else None
        )
        self._orphan_counter = (
            metrics.counter("operator.spill.orphan_rows") if metrics else None
        )
        self._restored_counter = (
            metrics.counter("operator.spill.restored_rows") if metrics else None
        )

    def ring_key(self, side: str, pid: int) -> int:
        key = self._ring_keys.get((side, pid))
        if key is None:
            key = temp_ring_key(
                self.run.query_id,
                self.stage_index,
                f"spill-{side}-p{pid}",
                namespace=self.run.executor.temp_namespace,
            )
            self._ring_keys[(side, pid)] = key
            # Registration is idempotent and release tolerates missing
            # keys, so registering at creation (rather than per write)
            # is safe even for a partition that never lands a DHT copy.
            self.run.register_temp_key(self.site, key)
        return key

    def _site_alive(self) -> bool:
        return self.site in self._network.nodes

    def _account_orphans(self, rows: int) -> None:
        # Site churned out mid-query: no DHT copy exists, the rows stay
        # only in the base in-memory sink until the run is torn down.
        self.orphan_rows += rows
        if self._orphan_counter is not None:
            self._orphan_counter.add(rows)

    def _open(self, side: str, pid: int) -> list[tuple[int, Any]]:
        """Start buffering ``(side, pid)``'s surfaced entries for this call."""
        entries: list[tuple[int, Any]] = []
        self._pending[side][pid] = entries
        self._touched.append((self.ring_key(side, pid), entries))
        return entries

    def route_counts(
        self, side: str, routed: list[tuple[int, Any]]
    ) -> list[tuple[int, Any]]:
        if self._span is not None:
            self._span.event(
                "join.spill",
                side=side,
                partitions=sorted({pid for pid, _ in routed}),
                rows=len(routed),
                site=self.site,
            )
        if self._rows_counter is not None:
            self._rows_counter.add(len(routed))
            self._bytes_counter.add(len(routed) * self.row_bytes)
        fresh = super().route_counts(side, routed)
        # Only a key new to its partition is surfaced — multiplicity
        # bumps stay in the compact index. Identities follow ``fresh``
        # order across the partitions the run touched.
        if not self._site_alive():
            self._account_orphans(len(routed))
        elif fresh:
            pending = self._pending[side]
            seq = self._seq
            for pid, key in fresh:
                entries = pending.get(pid)
                if entries is None:
                    entries = self._open(side, pid)
                entries.append((seq, key))
                seq += 1
            self._seq = seq
        return fresh

    def write_counts(
        self, side: str, pid: int, mapping: dict[Any, int], rows: int
    ) -> None:
        if rows:
            if self._span is not None:
                self._span.event(
                    "join.spill",
                    side=side,
                    partitions=[pid],
                    rows=rows,
                    site=self.site,
                )
            if self._rows_counter is not None:
                self._rows_counter.add(rows)
                self._bytes_counter.add(rows * self.row_bytes)
        # One surfaced key per *distinct* key, in arrival order: the
        # evicted mapping is keyed by exactly those. Nothing is parked
        # under ``pid``, so nothing of it is pending either.
        if not self._site_alive():
            self._account_orphans(rows)
        elif mapping:
            seq = self._seq
            self._seq = seq + len(mapping)
            self._open(side, pid).extend(zip(range(seq, self._seq), mapping))
        super().write_counts(side, pid, mapping, rows)

    def take_counts(self, side: str, pid: int) -> dict[Any, int]:
        entries = self._pending[side].pop(pid, None)
        if entries is not None:
            entries.clear()
        if (side, pid) in self._ring_keys and self._site_alive():
            self._network.remove_local(
                self.site, self._ring_keys[(side, pid)], missing_ok=True
            )
        if self._restored_counter is not None:
            self._restored_counter.add(self.partition_rows(side, pid))
        return super().take_counts(side, pid)

    def flush(self) -> None:
        touched = self._touched
        if not touched:
            return
        put_local_many = self._network.put_local_many
        for ring_key, entries in touched:
            if entries:
                put_local_many(self.site, ring_key, entries)
        self._touched = []
        self._pending["left"].clear()
        self._pending["right"].clear()


class _Exchange:
    """One edge of the dataflow: batches from ``source`` to ``target_site``.

    Buffers offered value tuples (one per row, under the edge's fixed
    ``columns`` schema — see :class:`~repro.pier.rows.RowBatch`) into
    fixed-size batches, paces sends ``send_interval`` apart, charges each
    batch on send, and delivers a free end-of-stream control event after
    the last data arrival (the marker piggybacks on the final batch, so
    it costs no extra bytes).
    """

    def __init__(
        self,
        run: "_QueryRun",
        source_site: int,
        target_site: int,
        category: str,
        per_tuple_bytes: int,
        deliver: Callable[[RowBatch], None],
        deliver_eos: Callable[[], None],
        direct: bool = False,
        from_join: bool = False,
        eager: bool = False,
        ready_time: float = 0.0,
        count_entries: bool = False,
        columns: tuple[str, ...] = ("fileID",),
    ):
        self.run = run
        self.source_site = source_site
        self.target_site = target_site
        self.category = category
        self.per_tuple_bytes = per_tuple_bytes
        self.deliver = deliver
        self.deliver_eos = deliver_eos
        self.direct = direct
        self.columns = columns
        #: shipped tuples count as posting entries (rehash and digest
        #: edges; answer edges and the Bloom filter leg ship no entries)
        self.count_entries = count_entries
        #: upstream is a join stage: an empty close breaks the chain
        #: instead of shipping onward
        self.from_join = from_join
        #: answer edges stream eagerly — every offer ships at once, since
        #: batching answers only delays what the user is waiting for
        self.eager = eager
        self.ready_time = ready_time
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
            self._m_batches, self._m_tuples = hot.batch_counters(category)
            self._m_transit = hot.batch_transit
        else:
            self._m_batches = self._m_tuples = self._m_transit = None

    def offer(self, values: list[tuple]) -> None:
        """Queue value tuples (shaped by this edge's ``columns``) to ship."""
        if self.eager:
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
        try:
            shipment = self.run.executor.network.ship_batch(
                self.source_site,
                self.target_site,
                len(batch) * self.per_tuple_bytes,
                category=self.category,
                direct=self.direct,
            )
        except DhtError as error:
            self.run.fail(error)
            return
        self.run.stats.messages += shipment.messages
        self.run.stats.bytes += shipment.bytes
        self.run.pipeline.batches_shipped += 1
        self.batches_sent += 1
        self.tuples_sent += len(batch)
        if self.count_entries:
            self.run.stats.posting_entries_shipped += len(batch)
        hops = 1 if self.direct else shipment.hops
        delay = sum(self.run.executor.hop_delay() for _ in range(hops))
        arrival = max(self.run.sim.now + delay, self.ready_time)
        self._last_arrival = max(self._last_arrival, arrival)
        run = self.run
        if run.span is not None and run.span.recording:
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
                    "tuples": len(batch),
                    "bytes": shipment.bytes,
                    "hops": hops,
                },
            )
        if self._m_batches is not None:
            self._m_batches.add(1)
            self._m_tuples.add(len(batch))
            self._m_transit.observe(arrival - run.sim.now)
        self.run.group.schedule_at(arrival, lambda batch=batch: self._arrive(batch))
        if self._queue:
            self.run.group.schedule(
                self.run.executor.config.send_interval, self._send_head
            )
        else:
            self._sending = False
            if self._closed:
                self._finish_stream()

    def _arrive(self, batch: list[tuple]) -> None:
        self.run.batches_delivered += 1
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

    @property
    def unsent_batches(self) -> int:
        return len(self._queue) + (1 if self._buffer else 0)


class _QueryRun:
    """Everything one pipelined query owns while in flight."""

    def __init__(
        self,
        executor: DataflowExecutor,
        plan: DistributedPlan,
        query_id: int,
        fetch_items: bool,
        stop_after: int | None,
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
            self.span = executor.tracer.begin(
                "pier.dataflow",
                parent=trace_parent,
                query_id=query_id,
                strategy=plan.strategy.name,
                keywords=list(plan.keywords),
            )
        self._stage_spans: list = []
        self.group = executor.sim.group()
        self.batch_size = (
            plan.batch_size if plan.batch_size is not None else executor.config.batch_size
        )
        self.stats = QueryStats(
            strategy=plan.strategy,
            keywords=plan.keywords,
            pipeline=PipelineStats(batch_size=self.batch_size),
        )
        self.query = DataflowQuery(plan, self.stats, stop_after)
        self.submitted_at = executor.sim.now
        self.exchanges: list[_Exchange] = []
        self.joins: list[_JoinStage] = []
        self.batches_delivered = 0
        self.answer_tuples = 0
        self.max_fetch_hops = 0
        self.outstanding_fetches = 0
        self.answers_done = False
        self._temp_keys: set[tuple[int, int]] = set()
        #: ring membership when the run began: unchanged at release means
        #: no temp tuple can have moved off its site
        self._membership_at_start = executor.network.membership_version
        #: Bloom join only: the verification return leg back to the filter
        #: site, and its hop count (added to the critical path when the
        #: leg actually carries candidates)
        self.bloom_return_edge: _Exchange | None = None
        self.bloom_return_hops = 0

    @property
    def pipeline(self) -> PipelineStats:
        return self.stats.pipeline

    # -- assembly --------------------------------------------------------

    def start(self) -> None:
        plan = self.plan
        try:
            ready = self._disseminate()
        except DhtError as error:
            self.fail(error)
            return
        if plan.strategy is JoinStrategy.INVERTED_CACHE:
            self._assemble_inverted_cache(ready)
        elif plan.strategy is JoinStrategy.SEMI_JOIN and len(plan.stages) > 1:
            self._assemble_semi_join_chain(ready)
        elif plan.strategy is JoinStrategy.BLOOM_JOIN and len(plan.stages) > 1:
            self._assemble_bloom_chain(ready)
        else:
            # Single-stage semi/Bloom plans degenerate to the distributed
            # join (nothing to intersect, nothing ships).
            self._assemble_join_chain(ready)

    def _disseminate(self) -> list[float]:
        """Charge plan dissemination; returns the virtual time the plan
        reaches each stage's site.

        The plan travels query node -> site1 -> site2 -> ... because each
        site must know where to rehash next; the hop count of that chain
        is the latency-critical path of dissemination.
        """
        plan = self.plan
        ready: list[float] = []
        elapsed = 0.0
        chain_hops = 0
        if plan.strategy is JoinStrategy.INVERTED_CACHE:
            hops = self._route_hops(plan.query_node, plan.first_site)
            self._charge(
                "pier.query",
                max(1, hops),
                self.executor.cost_model.routed_bytes(
                    self.executor.cost_model.query_plan_bytes, hops
                ),
            )
            chain_hops = hops
            elapsed = self._chain_delay(hops)
            ready = [self.sim.now + elapsed] * len(plan.stages)
        else:
            previous = plan.query_node
            for stage in plan.stages:
                hops = self._route_hops(previous, stage.site)
                self._charge(
                    "pier.query",
                    max(1, hops),
                    self.executor.cost_model.routed_bytes(
                        self.executor.cost_model.query_plan_bytes, hops
                    ),
                )
                chain_hops += hops
                elapsed += self._chain_delay(hops)
                ready.append(self.sim.now + elapsed)
                previous = stage.site
        self.stats.chain_hops = chain_hops
        return ready

    def _chain_delay(self, hops: int) -> float:
        if not self.delay_dissemination:
            return 0.0
        return sum(self.executor.hop_delay() for _ in range(hops))

    def _assemble_join_chain(
        self,
        ready: list[float],
        rehash_tuple: int | None = None,
        rehash_category: str = "pier.rehash",
        project_keys: bool = False,
    ) -> None:
        """Assemble the keyword chain dataflow.

        The default parameters build the distributed join (framed posting
        tuples on the rehash edges); the semi-join variant narrows the
        edges to packed key digests and projects the source down to its
        unique fileIDs before offering — same sites, same joins, ~26x
        fewer bytes per shipped entry.
        """
        plan = self.plan
        cost = self.executor.cost_model
        if rehash_tuple is None:
            rehash_tuple = cost.rehash_tuple_bytes()
        answer_tuple = cost.tuple_bytes(cost.fileid_bytes)
        # A single-stage plan answers straight from the scan, so its
        # result rows are full posting entries, not join survivors — the
        # answer edge carries the wider schema.
        # ``project_keys`` overrides that: a key-projected source ships
        # bare fileIDs whatever the stage count, and the schema must say so.
        single_stage = len(plan.stages) == 1 and not project_keys
        # Build back to front: each stage's output edge must exist first.
        answer = _Exchange(
            self,
            plan.last_site,
            plan.query_node,
            category="pier.answer",
            per_tuple_bytes=answer_tuple,
            deliver=self._deliver_answer,
            deliver_eos=self._answers_finished,
            direct=True,
            from_join=len(plan.stages) > 1,
            eager=True,
            columns=("keyword", "fileID") if single_stage else ("fileID",),
        )
        downstream = answer
        for index in range(len(plan.stages) - 1, 0, -1):
            stage = plan.stages[index]
            join = _JoinStage(self, stage.site, stage.keyword, index, downstream)
            self.joins.insert(0, join)
            downstream = _Exchange(
                self,
                plan.stages[index - 1].site,
                stage.site,
                category=rehash_category,
                per_tuple_bytes=rehash_tuple,
                deliver=join.deliver,
                deliver_eos=join.on_eos,
                from_join=index - 1 > 0,
                ready_time=ready[index],
                count_entries=True,
            )
            self.exchanges.append(downstream)
        self.exchanges.append(answer)
        source_out = downstream
        first = plan.stages[0]

        def activate_source() -> None:
            try:
                rows = self._fetch_stage_local("Inverted", first.site, first.keyword)
            except DhtError as error:
                self.fail(error)
                return
            self.stats.per_stage_entries.append(len(rows))
            if project_keys:
                values = [
                    (key,) for key in dict.fromkeys(row["fileID"] for row in rows)
                ]
            elif single_stage:
                # Full posting tuples: these go straight to the answer
                # edge.
                values = [(row["keyword"], row["fileID"]) for row in rows]
            else:
                values = [(row["fileID"],) for row in rows]
            source_out.offer(values)
            source_out.close()

        self.group.schedule_at(ready[0], activate_source)

    def _assemble_semi_join_chain(self, ready: list[float]) -> None:
        """Semi-join: the join chain over packed key digests."""
        cost = self.executor.cost_model
        self._assemble_join_chain(
            ready,
            rehash_tuple=cost.digest_bytes(1),
            rehash_category="pier.semijoin",
            project_keys=True,
        )

    def _assemble_bloom_chain(self, ready: list[float]) -> None:
        """Bloom join: filter forward, candidate digests after, verify back.

        ``site1 --bloom--> site2 --digest--> ... --digest--> sitek
        --digest--> site1 --answer--> query node``. The probe site keeps
        only keys passing the filter; downstream sites intersect the
        candidate stream exactly; the filter site verifies candidates
        against the rarest list, so Bloom false positives die there.
        Refinement is incremental per batch — every arriving candidate
        batch is probed/intersected immediately and its survivors
        forwarded while upstream batches are still in flight, so the
        first verified answer leaves before the candidate stream drains.
        """
        plan = self.plan
        cost = self.executor.cost_model
        digest_tuple = cost.digest_bytes(1)
        answer = _Exchange(
            self,
            plan.first_site,
            plan.query_node,
            category="pier.answer",
            per_tuple_bytes=cost.tuple_bytes(cost.fileid_bytes),
            deliver=self._deliver_answer,
            deliver_eos=self._answers_finished,
            direct=True,
            from_join=True,
            eager=True,
        )
        self.exchanges.append(answer)
        verifier = _BloomVerifyStage(self, answer)
        return_edge = _Exchange(
            self,
            plan.last_site,
            plan.first_site,
            category="pier.bloom.digest",
            per_tuple_bytes=digest_tuple,
            deliver=verifier.deliver,
            deliver_eos=verifier.on_eos,
            from_join=True,
            count_entries=True,
        )
        self.exchanges.append(return_edge)
        self.bloom_return_edge = return_edge
        try:
            self.bloom_return_hops = self._route_hops(
                plan.last_site, plan.first_site
            )
        except DhtError:
            self.bloom_return_hops = 0  # stats only; the send itself re-routes
        # Exact-intersection stages between the probe site and the return
        # leg, built back to front like the join chain.
        downstream = return_edge
        for index in range(len(plan.stages) - 1, 1, -1):
            stage = plan.stages[index]
            join = _JoinStage(self, stage.site, stage.keyword, index, downstream)
            self.joins.insert(0, join)
            downstream = _Exchange(
                self,
                plan.stages[index - 1].site,
                stage.site,
                category="pier.bloom.digest",
                per_tuple_bytes=digest_tuple,
                deliver=join.deliver,
                deliver_eos=join.on_eos,
                from_join=True,
                ready_time=ready[index],
                count_entries=True,
            )
            self.exchanges.append(downstream)
        probe = _BloomProbeStage(
            self, plan.stages[1].site, plan.stages[1].keyword, downstream
        )
        first = plan.stages[0]
        second = plan.stages[1]

        def activate_source() -> None:
            try:
                rows = self._fetch_stage_local("Inverted", first.site, first.keyword)
            except DhtError as error:
                self.fail(error)
                return
            self.stats.per_stage_entries.append(len(rows))
            rare = list(dict.fromkeys(row["fileID"] for row in rows))
            verifier.rare_keys = set(rare)
            bloom = bloom_for_keys(rare, plan.bloom_fp_rate)
            # The filter leg: one routed message carrying the bit array
            # (it represents the whole rarest list, but ships no entries).
            try:
                shipment = self.executor.network.ship_batch(
                    first.site,
                    second.site,
                    bloom.size_bytes,
                    category="pier.bloom.filter",
                )
            except DhtError as error:
                self.fail(error)
                return
            self.stats.messages += shipment.messages
            self.stats.bytes += shipment.bytes
            self.stats.filter_bytes += bloom.size_bytes
            self.pipeline.batches_shipped += 1
            delay = sum(self.executor.hop_delay() for _ in range(shipment.hops))
            arrival = max(self.sim.now + delay, ready[1])
            self.group.schedule_at(arrival, lambda: probe.deliver(bloom))

        self.group.schedule_at(ready[0], activate_source)

    def _assemble_inverted_cache(self, ready: list[float]) -> None:
        plan = self.plan
        cost = self.executor.cost_model
        answer = _Exchange(
            self,
            plan.first_site,
            plan.query_node,
            category="pier.answer",
            per_tuple_bytes=cost.tuple_bytes(cost.fileid_bytes),
            deliver=self._deliver_answer,
            deliver_eos=self._answers_finished,
            direct=True,
            from_join=True,
            eager=True,
        )
        self.exchanges.append(answer)

        def activate_site() -> None:
            try:
                rows = self._fetch_stage_local(
                    "InvertedCache", plan.first_site, plan.stages[0].keyword
                )
            except DhtError as error:
                self.fail(error)
                return
            self.stats.per_stage_entries.append(len(rows))
            operator = Scan(rows)
            for keyword in plan.keywords[1:]:
                operator = SubstringFilter(operator, column="fulltext", needle=keyword)
            survivors = dict.fromkeys(row["fileID"] for row in operator)
            answer.offer([(key,) for key in survivors])
            answer.close()

        self.group.schedule_at(ready[0], activate_site)

    def _fetch_stage_local(self, table: str, site: int, keyword: str) -> list[Row]:
        return self.catalog_table(table).fetch_local(site, keyword)

    def catalog_table(self, name: str):
        return self.executor.catalog.table(name)

    # -- answers ---------------------------------------------------------

    def _deliver_answer(self, batch: RowBatch) -> None:
        if self.query.done:
            return
        if not self.fetch_items:
            # Query-result boundary: the only place answer tuples become
            # dict rows when Item fetching is off.
            self._results_ready(batch.to_rows(), len(batch))
            return
        try:
            items, fetch_hops = self._fetch_items(batch.column("fileID"))
        except DhtError as error:
            self.fail(error)
            return
        self.outstanding_fetches += 1
        delay = sum(self.executor.hop_delay() for _ in range(fetch_hops + 1))
        self.group.schedule(
            delay,
            lambda items=items, count=len(batch): self._finish_fetch(items, count),
        )

    def _finish_fetch(self, items: list[Row], answer_count: int) -> None:
        self.outstanding_fetches -= 1
        self._results_ready(items, answer_count)

    def _fetch_items(self, file_ids: list) -> tuple[list[Row], int]:
        """Fetch the Item tuples of one answer batch, charging every message.

        Takes bare fileID values (compact batches never materialise
        fileID dicts). Returns (item rows, max routing hops across the
        parallel fetches — the one that bounds the batch's latency).
        """
        cost = self.executor.cost_model
        items = self.catalog_table("Item")
        query_node = self.plan.query_node
        results: list[Row] = []
        batch_max_hops = 0
        for file_id in file_ids:
            host = items.host_of(file_id)
            hops = self._route_hops(query_node, host)
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
        if (
            self.query.stop_after is not None
            and self.answer_tuples >= self.query.stop_after
        ):
            self._terminate_early()
            return
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
        site, which runs its stage and comes up empty; an empty *join*
        output breaks the chain — downstream stages never activate, and
        the query node receives one empty answer message.
        """
        if exchange.category == "pier.answer" or exchange.from_join:
            # An empty scan on a single-stage plan answers directly; an
            # empty join output breaks the chain.
            self._finalize_empty()
            return
        # Empty scan output on a multi-stage plan: ship one empty batch so
        # the next stage still runs (and is charged).
        exchange.empty_shipped = True
        exchange._queue.append([])
        exchange._pump()

    def _finalize_empty(self) -> None:
        if self.query.done:
            return
        cost = self.executor.cost_model
        self._charge("pier.answer", 1, cost.message_bytes(0))
        self.group.schedule(self.executor.hop_delay(), self._complete_empty)

    def _complete_empty(self) -> None:
        self.answers_done = True
        self._maybe_complete()

    # -- termination -----------------------------------------------------

    def _terminate_early(self) -> None:
        in_flight = sum(e.batches_sent for e in self.exchanges) - self.batches_delivered
        queued = sum(e.unsent_batches for e in self.exchanges)
        self.pipeline.batches_cancelled = max(0, in_flight) + queued
        self.pipeline.early_terminated = True
        self.group.cancel()
        self.complete()

    def complete(self) -> None:
        if self.query.done:
            return
        self.query.done = True
        self.pipeline.completion_time = self.sim.now - self.submitted_at
        self.stats.results = len(self.query.rows)
        self.stats.join_matches = self.answer_tuples
        self.stats.critical_path_hops = self.stats.chain_hops + 1
        if (
            self.bloom_return_edge is not None
            and self.bloom_return_edge.batches_sent > 0
        ):
            # The Bloom join's verification leg extends the data path
            # beyond the dissemination chain (candidates travel back to
            # the filter site before the answer leaves).
            self.stats.critical_path_hops += self.bloom_return_hops
        if self.fetch_items and self.answer_tuples > 0:
            self.stats.critical_path_hops += self.max_fetch_hops + 1
        self._aggregate_spill_stats()
        self._release_temp_keys()
        if self.span is not None:
            for span in self._stage_spans:
                span.finish()  # idempotent: closes only never-drained stages
            self.span.finish(
                bytes=self.stats.bytes,
                messages=self.stats.messages,
                results=self.stats.results,
                batches=self.pipeline.batches_shipped,
                spilled_tuples=self.pipeline.spilled_tuples,
                early_terminated=self.pipeline.early_terminated,
            )
        if self.metrics is not None:
            self.metrics.counter("dataflow.queries").add(1)
            self.metrics.counter(
                "dataflow.strategy", labels={"strategy": self.plan.strategy.name}
            ).add(1)
            self.metrics.histogram(
                "dataflow.completion_vtime", reservoir_size=4096
            ).observe(self.pipeline.completion_time)
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
        self._release_temp_keys()
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

        Edges, stages and sinks all point back at the run, so a finished
        run is a reference cycle until these lists go; dropping them lets
        the whole chain (edge -> stage -> edge ...) die by reference count
        the moment the query is done, collector or no collector.
        """
        self.exchanges = []
        self.joins = []
        self._stage_spans = []
        self.bloom_return_edge = None
        self.on_first_answer = self.on_complete = self.on_error = None

    # -- plumbing --------------------------------------------------------

    def _aggregate_spill_stats(self) -> None:
        """Fold every budgeted join's spill accounting into the stats.

        Populates the legacy pipeline counters plus ``stats.spill`` —
        runs without a memory budget keep ``stats.spill = None``.
        """
        spill: SpillStats | None = None
        for join in self.joins:
            shj = join.shj
            if shj.spill_sink is None:
                continue
            self.pipeline.spilled_tuples += shj.spilled_rows
            self.pipeline.spill_reads += shj.spill_reads
            if spill is None:
                spill = SpillStats()
            spill.merge(spill_stats_from_join(shj))
        if spill is not None:
            self.stats.spill = spill
            if self.metrics is not None:
                self.metrics.counter("operator.spill.reads").add(spill.spill_reads)
                self.metrics.counter("operator.spill.reread_bytes").add(
                    spill.reread_bytes
                )
                self.metrics.counter("operator.spill.partition_evictions").add(
                    spill.partition_evictions
                )
                self.metrics.counter("operator.spill.partition_restores").add(
                    spill.partition_restores
                )
                self.metrics.counter("operator.spill.role_reversals").add(
                    spill.role_reversals
                )

    def register_temp_key(self, site: int, key: int) -> None:
        self._temp_keys.add((site, key))

    def _release_temp_keys(self) -> None:
        """Remove this run's temp tuples from whichever store holds them.

        A live site holds its temp tuples itself, unless a node joined as
        its predecessor mid-query and claimed the keys it now owns out of
        the site's store — and wherever later joins and leaves move such
        a bucket, it stays with the key's owner — so once the ring has
        changed under the run, a live site's keys are released at the
        site and at the owner. A site that left gracefully handed
        everything to its successor (which may have handed it on): a
        departed site's keys are released at every live node, the rare
        path. The spill sinks' parked state (orphan rows included) goes
        with the joins in :meth:`_teardown`.
        """
        network = self.executor.network
        nodes = network.nodes
        churned = network.membership_version != self._membership_at_start
        for site, key in self._temp_keys:
            if site not in nodes:
                holders = nodes
            elif churned:
                holders = (site, network.owner_of(key))
            else:
                holders = (site,)
            for holder in holders:
                network.remove_local(holder, key)
        self._temp_keys.clear()

    def _route_hops(self, origin: int, key_owner: int) -> int:
        """Overlay hops to route from ``origin`` to ``key_owner``'s id."""
        if origin == key_owner:
            return 0
        return self.executor.network.lookup(key_owner, origin=origin).hops

    def _charge(self, category: str, messages: int, byte_count: int) -> None:
        self.stats.messages += messages
        self.stats.bytes += byte_count
        self.executor.network.transport.charge(category, messages, byte_count)


class _BloomProbeStage:
    """Probe site of the Bloom join: local postings vs the arriving filter.

    Receives the Bloom filter built from the rarest posting list and
    streams digests of the *probable* matches (true matches plus the
    filter's false positives) downstream. False positives can only add
    digest bytes here — the verification stage removes them exactly.
    """

    def __init__(self, run: _QueryRun, site: int, keyword: str, out: _Exchange):
        self.run = run
        self.site = site
        self.keyword = keyword
        self.out = out

    def deliver(self, bloom) -> None:
        if self.run.query.done:
            return
        try:
            rows = self.run._fetch_stage_local("Inverted", self.site, self.keyword)
        except DhtError as error:
            self.run.fail(error)
            return
        self.run.stats.per_stage_entries.append(len(rows))
        hot = self.run.hot
        started = perf_counter() if hot is not None else 0.0
        # Key-level Bloom probe, the whole posting list in one call: no
        # candidate dict per posting row.
        candidates = dict.fromkeys(bloom.matching([row["fileID"] for row in rows]))
        if hot is not None:
            hot.bloom_probe_seconds.observe(perf_counter() - started)
            hot.bloom_probe_rows.add(len(rows))
            hot.bloom_probe_candidates.add(len(candidates))
        if self.run.span is not None:
            self.run.span.child(
                "stage.bloom_probe",
                site=self.site,
                keyword=self.keyword,
                rows=len(rows),
                candidates=len(candidates),
            ).finish()
        self.out.offer([(key,) for key in candidates])
        self.out.close()


class _BloomVerifyStage:
    """Filter site, second visit: exact verification of candidate batches.

    Intersects every arriving candidate batch with the rarest list's key
    set — incrementally, per batch — and streams verified answers out
    immediately, so the first answer can leave while later candidate
    batches are still in flight.
    """

    def __init__(self, run: _QueryRun, out: _Exchange):
        self.run = run
        self.out = out
        #: set by the source stage when it builds the filter
        self.rare_keys: set = set()
        self.emitted: set = set()
        self.span = None

    def deliver(self, batch: RowBatch) -> None:
        if self.run.query.done:
            return
        run = self.run
        if self.span is None and run.span is not None:
            self.span = run.span.child("stage.bloom_verify")
            run._stage_spans.append(self.span)
        hot = run.hot
        started = perf_counter() if hot is not None else 0.0
        rare_keys = self.rare_keys
        emitted = self.emitted
        survivors: list[tuple] = []
        for (key,) in batch.values:
            if key in rare_keys and key not in emitted:
                emitted.add(key)
                survivors.append((key,))
        if hot is not None:
            hot.bloom_verify_seconds.observe(perf_counter() - started)
            hot.bloom_verify_rows.add(len(batch))
            hot.bloom_verify_survivors.add(len(survivors))
        if survivors:
            self.out.offer(survivors)

    def on_eos(self) -> None:
        if self.span is not None:
            self.span.finish(verified=len(self.emitted))
        if self.run.query.done:
            return
        self.out.close()


class _JoinStage:
    """One join site: incremental SHJ of arriving batches vs local postings."""

    def __init__(
        self,
        run: _QueryRun,
        site: int,
        keyword: str,
        index: int,
        out: _Exchange,
    ):
        self.run = run
        self.site = site
        self.keyword = keyword
        self.index = index
        self.out = out
        self.activated = False
        self.emitted: set[object] = set()
        config = run.executor.config
        budget = config.memory_budget
        sink = _DhtSpillSink(run, site, index, "fileID") if budget else None
        self.shj = SymmetricHashJoin(
            column="fileID",
            memory_budget=budget,
            spill_sink=sink,
            num_partitions=config.spill_partitions,
        )
        self.span = None

    def activate(self) -> None:
        self.activated = True
        rows = self.run._fetch_stage_local("Inverted", self.site, self.keyword)
        self.run.stats.per_stage_entries.append(len(rows))
        run = self.run
        if run.span is not None:
            self.span = run.span.child(
                "stage.join",
                site=self.site,
                keyword=self.keyword,
                stage=self.index,
                build_rows=len(rows),
            )
            run._stage_spans.append(self.span)
        if run.hot is not None:
            run.hot.join_build_rows.add(len(rows))
        self.shj.insert_keys("right", [row["fileID"] for row in rows])

    def deliver(self, batch: RowBatch) -> None:
        if self.run.query.done:
            return
        if not self.activated:
            try:
                self.activate()
            except DhtError as error:
                self.run.fail(error)
                return
        hot = self.run.hot
        started = perf_counter() if hot is not None else 0.0
        # Key-only hot path: the batch probes and builds on bare fileIDs
        # in one call, no dict per row.
        keys = [key for (key,) in batch.values]
        emitted = self.emitted
        survivors: list[tuple] = []
        for key, matches in zip(keys, self.shj.insert_keys("left", keys)):
            if matches and key not in emitted:
                emitted.add(key)
                survivors.append((key,))
        if hot is not None:
            hot.join_seconds.observe(perf_counter() - started)
            hot.join_probe_rows.add(len(batch))
            hot.join_survivor_rows.add(len(survivors))
        if survivors:
            self.out.offer(survivors)

    def on_eos(self) -> None:
        if self.span is not None:
            self.span.finish(
                survivors=len(self.emitted),
                spilled_rows=self.shj.spilled_rows,
                spill_reads=self.shj.spill_reads,
            )
        if self.run.query.done:
            return
        self.out.close()

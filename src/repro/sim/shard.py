"""Ring-sharded simulation kernel with conservative-lookahead windows.

The single-heap :class:`~repro.sim.engine.Simulator` processes one event
at a time; at hundreds of thousands of peers the heap becomes the whole
story. This module partitions the identifier ring into ``num_shards``
contiguous *region shards*, each running its own private event loop, and
synchronizes them with the classic conservative-lookahead protocol
(Chandy/Misra/Bryant in windowed form):

* **The invariant.** Every cross-shard interaction is a message with
  delay ``>= lookahead`` — the minimum latency the
  :class:`~repro.net.Transport` can draw for an inter-region hop
  (:meth:`~repro.net.Transport.min_hop_delay`). Intra-shard work may use
  any delay.
* **The window.** Let ``t_i`` be shard ``i``'s next pending time
  (folding in the arrival times of any in-flight messages destined to
  it). Shard ``i`` may safely process every event strictly before
  ``min(min_{j != i} t_j, t_i + lookahead) + lookahead``: a direct
  message from shard ``j`` arrives at ``>= t_j + lookahead``, and a
  chain that *starts* at ``i`` (``i -> j -> i``) cannot return before
  ``t_i + 2 * lookahead``. This per-shard bound is never smaller than
  the classic global ``t_min + lookahead`` window, and it lets a lone
  active shard advance two lookaheads per round — sparse phases collapse
  toward the true cross-shard dependency count instead of paying one
  synchronization per lookahead of virtual time.
* **Determinism.** Shard RNGs are spawned from one seed with stable
  labels; shards drain each window in pinned order ``0..S-1``; and the
  cross-shard messages are merged in sorted ``(arrival, src_shard, seq)``
  order before delivery, so re-runs and the two backends schedule
  identical FIFO-tied sequences.
* **The IPC batching invariant (process backend).** Each window costs
  exactly one round trip per *stepped* shard: the parent sends every
  pending inbound block together with the drain bound, and the worker
  replies with its outgoing messages packed as one serialized block per
  destination shard plus its next event time. A block is serialized
  once, in the worker that produced it; the parent forwards the raw
  bytes without deserializing. Because global message sequence numbers
  are assigned in pinned shard order, sorting a destination's merged
  inbound by ``(arrival, src_shard, position-within-block)`` reproduces
  the global ``(arrival, src_shard, seq)`` merge order bit-for-bit.

A sharded run is a picklable :class:`ShardProgram` per shard, executed by
:func:`run_sharded` under a chosen backend: ``round_robin`` (sequential,
measures per-shard busy time so aggregate capacity is still meaningful on
one core) or ``process`` (one persistent OS process per shard, true
parallelism on multi-core hosts; cross-shard messages travel as packed
pickle blocks over pipes). A program talks to other shards only through
``ShardContext.send`` payloads, so nothing it holds ever has to cross a
pipe.
"""

from __future__ import annotations

import math
import pickle
import random
import time as _time
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable

from repro.common.errors import ShardWorkerError
from repro.common.ids import KEY_SPACE
from repro.common.rng import make_rng, spawn_rng
from repro.sim.engine import Simulator

__all__ = [
    "ShardContext",
    "ShardProgram",
    "ShardReport",
    "ShardRunReport",
    "ShardWorkerError",
    "run_sharded",
    "shard_of_key",
]

_INF = math.inf


def shard_of_key(key: int, num_shards: int) -> int:
    """Region shard owning ring position ``key`` (contiguous partition).

    The ring ``[0, KEY_SPACE)`` splits into ``num_shards`` equal arcs;
    a DHT node (or stored key) belongs to the arc containing its id.
    Contiguity matters: Chord-style routing and successor replication
    mostly touch ring-adjacent nodes, so region sharding keeps the bulk
    of traffic intra-shard.
    """
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    return (key % KEY_SPACE) * num_shards // KEY_SPACE


def _plan_bounds(
    tops: list[float], lookahead: float, until: float | None
) -> list[float]:
    """Exclusive per-shard drain bounds for one synchronization window.

    ``tops[i]`` is shard i's effective next-event time (``inf`` when it
    has nothing pending). Shard i may run strictly before
    ``min(min_{j != i} tops[j], tops[i] + lookahead) + lookahead`` — see
    the module docstring for why that is safe — clamped to ``until``.
    The exclusive end is realized with ``nextafter`` because
    :meth:`Simulator.run` treats its ``until`` inclusively and a message
    may arrive exactly at the bound.
    """
    lowest = second = _INF
    lowest_at = -1
    for index, top in enumerate(tops):
        if top < lowest:
            second = lowest
            lowest = top
            lowest_at = index
        elif top < second:
            second = top
    bounds: list[float] = []
    nextafter = math.nextafter
    for index, top in enumerate(tops):
        others = second if index == lowest_at else lowest
        limit = others if others < top + lookahead else top + lookahead
        bound = nextafter(limit + lookahead, -_INF)
        if until is not None and until < bound:
            bound = until
        bounds.append(bound)
    return bounds


# ----------------------------------------------------------------------
# Portable shard programs (round-robin and process backends)
# ----------------------------------------------------------------------


class ShardContext:
    """What a :class:`ShardProgram` sees: its clock, RNG, and mailbox.

    The context is backend-neutral — under the process backend it lives
    inside the worker process, so programs never hold references that
    would have to cross a pipe. Cross-shard communication is payload
    data only, delivered to the destination program's ``on_message``.
    """

    def __init__(
        self,
        shard_id: int,
        num_shards: int,
        lookahead: float,
        rng: random.Random,
    ):
        self.shard_id = shard_id
        self.num_shards = num_shards
        self.lookahead = lookahead
        self.rng = rng
        self.sim = Simulator()
        #: payload messages produced this window, drained by the backend
        self._outgoing: list[tuple[float, int, Any]] = []
        self._program: "ShardProgram | None" = None
        #: the program's bound ``on_message`` — cached so local loopback
        #: and inbound delivery cost one C-level ``partial`` call per
        #: message instead of a lambda frame plus attribute walks
        self._handler: Callable[["ShardContext", Any], None] | None = None

    def bind(self, program: "ShardProgram") -> None:
        self._program = program
        self._handler = program.on_message

    @property
    def now(self) -> float:
        return self.sim.now

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        self.sim.schedule(delay, callback)

    def send(self, dst_shard: int, delay: float, payload: Any) -> None:
        """Send ``payload`` to ``dst_shard``; local sends loop back."""
        if dst_shard == self.shard_id:
            handler = self._handler
            if handler is None:
                handler = self._handler = self._program.on_message
            self.sim.schedule(delay, partial(handler, self, payload))
            return
        if delay < self.lookahead:
            raise ValueError(
                f"cross-shard delay {delay} violates lookahead {self.lookahead}"
            )
        self._outgoing.append((self.sim.now + delay, dst_shard, payload))


class ShardProgram:
    """A per-shard actor: seed events in ``start``, react in ``on_message``.

    Subclasses must be constructible inside a worker process (the
    ``factory`` passed to :func:`run_sharded` builds one per shard) and
    must confine all cross-shard effects to ``ctx.send`` payloads.
    ``digest()`` returns a picklable summary merged into the run report
    — determinism checks compare digests across shard counts/backends.
    """

    def start(self, ctx: ShardContext) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def on_message(self, ctx: ShardContext, payload: Any) -> None:  # pragma: no cover
        raise NotImplementedError

    def digest(self) -> Any:
        return None


@dataclass
class ShardReport:
    """One shard's outcome: events drained, wall-clock busy time, digest."""

    shard_id: int
    processed: int
    busy_seconds: float
    final_time: float
    digest: Any = None
    #: process backend only: wall seconds this shard's worker spent
    #: packing outbound message blocks / unpacking inbound ones
    ipc_serialize_seconds: float = 0.0
    ipc_deserialize_seconds: float = 0.0

    @property
    def events_per_second(self) -> float:
        """Events per second of *busy* time (this shard's drain rate)."""
        if self.busy_seconds <= 0:
            return 0.0
        return self.processed / self.busy_seconds


@dataclass
class ShardRunReport:
    """Aggregate outcome of :func:`run_sharded`."""

    num_shards: int
    backend: str
    lookahead: float
    shards: list[ShardReport] = field(default_factory=list)
    windows: int = 0
    wall_seconds: float = 0.0
    cross_messages: int = 0

    @property
    def processed(self) -> int:
        return sum(s.processed for s in self.shards)

    @property
    def final_time(self) -> float:
        return max((s.final_time for s in self.shards), default=0.0)

    @property
    def aggregate_events_per_second(self) -> float:
        """Sum of per-shard busy-time drain rates.

        This is the kernel's *capacity*: what the shard set sustains when
        every shard drains concurrently. Under the sequential round-robin
        backend shards time-share one core, so wall-clock throughput is
        ``processed / wall_seconds`` instead — both are reported and the
        benchmark records both.
        """
        return sum(s.events_per_second for s in self.shards)

    @property
    def wall_events_per_second(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.processed / self.wall_seconds

    @property
    def ipc_serialize_seconds(self) -> float:
        return sum(s.ipc_serialize_seconds for s in self.shards)

    @property
    def ipc_deserialize_seconds(self) -> float:
        return sum(s.ipc_deserialize_seconds for s in self.shards)

    def digests(self) -> list[Any]:
        return [s.digest for s in self.shards]


def _run_round_robin(
    factory: Callable[[int, int, random.Random], ShardProgram],
    num_shards: int,
    lookahead: float,
    seed: int,
    until: float | None,
) -> ShardRunReport:
    root = make_rng(seed)
    contexts: list[ShardContext] = []
    programs: list[ShardProgram] = []
    for shard_id in range(num_shards):
        rng = spawn_rng(root, f"shard.{shard_id}")
        ctx = ShardContext(shard_id, num_shards, lookahead, rng)
        program = factory(shard_id, num_shards, rng)
        ctx.bind(program)
        contexts.append(ctx)
        programs.append(program)
    report = ShardRunReport(num_shards=num_shards, backend="round_robin", lookahead=lookahead)
    perf = _time.perf_counter
    wall_start = perf()
    busy = [0.0] * num_shards
    for ctx, program in zip(contexts, programs):
        program.start(ctx)
    sims = [ctx.sim for ctx in contexts]
    handlers = [partial(ctx._handler, ctx) for ctx in contexts]
    # Per-destination inboxes of (arrival, src, seq, payload), kept
    # sorted; indexes[d] marks the consumed prefix. Inbox entries fire
    # through Simulator.run_with_inbox — the bulk path that skips
    # per-message heap-entry/closure costs — so seq (globally unique,
    # assigned in pinned drain order) both pins the (arrival, src_shard,
    # seq) merge order and keeps payloads out of tuple comparisons.
    inboxes: list[list[tuple[float, int, int, Any]]] = [[] for _ in range(num_shards)]
    indexes = [0] * num_shards
    fresh: list[list[tuple[float, int, int, Any]]] = [[] for _ in range(num_shards)]
    msg_seq = 0

    def collect(src: int) -> None:
        nonlocal msg_seq
        outgoing = contexts[src]._outgoing
        if outgoing:
            for arrival, dst, payload in outgoing:
                fresh[dst].append((arrival, src, msg_seq, payload))
                msg_seq += 1
            outgoing.clear()

    for shard_id in range(num_shards):  # messages sent during start()
        collect(shard_id)
    while True:
        for dst in range(num_shards):
            if fresh[dst]:
                inbox = inboxes[dst]
                if indexes[dst]:
                    del inbox[: indexes[dst]]
                    indexes[dst] = 0
                inbox.extend(fresh[dst])
                inbox.sort()  # timsort: sorted leftover + new batch
                fresh[dst].clear()
        tops = []
        for shard_id in range(num_shards):
            sim = sims[shard_id]
            top = sim._queue[0][0] if sim._queue else _INF
            inbox = inboxes[shard_id]
            if indexes[shard_id] < len(inbox):
                head = inbox[indexes[shard_id]][0]
                if head < top:
                    top = head
            tops.append(top)
        t_min = min(tops)
        if t_min == _INF:
            break
        if until is not None and t_min > until:
            for sim in sims:
                if sim.now < until:
                    sim.now = until
            break
        if num_shards == 1:
            start = perf()
            _, indexes[0] = sims[0].run_with_inbox(
                inboxes[0], indexes[0], handlers[0], until
            )
            busy[0] += perf() - start
            collect(0)
            report.windows += 1
            if not fresh[0]:
                break
            continue
        bounds = _plan_bounds(tops, lookahead, until)
        for shard_id in range(num_shards):  # pinned order
            if tops[shard_id] == _INF:
                continue
            start = perf()
            _, indexes[shard_id] = sims[shard_id].run_with_inbox(
                inboxes[shard_id],
                indexes[shard_id],
                handlers[shard_id],
                bounds[shard_id],
            )
            busy[shard_id] += perf() - start
            collect(shard_id)
        report.windows += 1
    report.wall_seconds = perf() - wall_start
    report.cross_messages = msg_seq
    for shard_id, (ctx, program) in enumerate(zip(contexts, programs)):
        report.shards.append(
            ShardReport(
                shard_id=shard_id,
                processed=ctx.sim.processed,
                busy_seconds=busy[shard_id],
                final_time=ctx.sim.now,
                digest=program.digest(),
            )
        )
    return report


# ----------------------------------------------------------------------
# Process backend: persistent workers, one round trip per window
# ----------------------------------------------------------------------


def _process_worker(conn, factory, shard_id, num_shards, lookahead, seed) -> None:
    """One shard's event loop inside its own (persistent) OS process.

    Protocol, one message pair per window:

    * recv ``("step", blocks, bound)`` — ``blocks`` is a list of
      ``(src_shard, raw, count)`` inbound message blocks (each ``raw`` a
      pickle of that source's ``[(arrival, payload), ...]`` in production
      order); deliver them, drain to ``bound``, then
    * send ``("out", out_blocks, top)`` — ``out_blocks`` packs this
      window's outbound messages as ``(dst_shard, raw, count,
      min_arrival)`` per destination, serialized once; ``top`` is the
      next local event time folding undelivered inbox arrivals (None
      when fully idle). The very first message after ``start()`` has the
      same shape, so messages sent during program setup are windowed
      like any others.

    Inbound messages merge into a worker-held sorted inbox drained via
    :meth:`Simulator.run_with_inbox` — no per-message scheduling — as
    ``(arrival, src, epoch, position, payload)``: ``position`` is the
    index within the block (each source's production order) and
    ``epoch`` counts delivery rounds, so for one source an earlier
    window's message sorts before a same-arrival later one. That makes
    the sort exactly the global ``(arrival, src_shard, seq)`` merge
    order, with a unique int prefix keeping payloads out of
    comparisons.

    ``("stop", park_at)`` parks the clock at ``park_at`` (None: leave it)
    and answers with the final report. Any exception is
    reported as ``("error", text)`` so the parent can raise a clean
    :class:`ShardWorkerError` instead of hanging on a dead pipe.
    """
    try:
        root = make_rng(seed)
        rng = root
        for i in range(num_shards):
            spawned = spawn_rng(root, f"shard.{i}")
            if i == shard_id:
                rng = spawned
        ctx = ShardContext(shard_id, num_shards, lookahead, rng)
        program = factory(shard_id, num_shards, rng)
        ctx.bind(program)
        program.start(ctx)
        sim = ctx.sim
        handler = partial(ctx._handler, ctx)
        perf = _time.perf_counter
        dumps = pickle.dumps
        loads = pickle.loads
        busy = serialize = deserialize = 0.0
        inbox: list[tuple[float, int, int, int, Any]] = []
        inbox_index = 0
        epoch = 0

        def pack_outgoing() -> list[tuple[int, bytes, int, float]]:
            nonlocal serialize
            outgoing = ctx._outgoing
            out_blocks: list[tuple[int, bytes, int, float]] = []
            if outgoing:
                start = perf()
                by_dst: dict[int, list[tuple[float, Any]]] = {}
                for arrival, dst, payload in outgoing:
                    bucket = by_dst.get(dst)
                    if bucket is None:
                        bucket = by_dst[dst] = []
                    bucket.append((arrival, payload))
                outgoing.clear()
                for dst in sorted(by_dst):
                    messages = by_dst[dst]
                    out_blocks.append(
                        (
                            dst,
                            dumps(messages, protocol=pickle.HIGHEST_PROTOCOL),
                            len(messages),
                            min(m[0] for m in messages),
                        )
                    )
                serialize += perf() - start
            return out_blocks

        def next_top() -> float | None:
            top = sim._queue[0][0] if sim._queue else None
            if inbox_index < len(inbox):
                head = inbox[inbox_index][0]
                if top is None or head < top:
                    top = head
            return top

        conn.send(("out", pack_outgoing(), next_top()))
        while True:
            command = conn.recv()
            op = command[0]
            if op == "step":
                blocks, bound = command[1], command[2]
                if blocks:
                    start = perf()
                    if inbox_index:
                        del inbox[:inbox_index]
                        inbox_index = 0
                    epoch += 1
                    extend = inbox.extend
                    for src, raw, _count in blocks:
                        extend(
                            (arrival, src, epoch, position, payload)
                            for position, (arrival, payload) in enumerate(loads(raw))
                        )
                    inbox.sort()
                    deserialize += perf() - start
                start = perf()
                _, inbox_index = sim.run_with_inbox(inbox, inbox_index, handler, bound)
                busy += perf() - start
                conn.send(("out", pack_outgoing(), next_top()))
            elif op == "stop":
                final_until = command[1]
                if final_until is not None and sim.now < final_until:
                    sim.now = final_until
                conn.send(
                    (
                        "report",
                        sim.processed,
                        busy,
                        sim.now,
                        program.digest(),
                        serialize,
                        deserialize,
                    )
                )
                conn.close()
                return
    except EOFError:  # parent tore the pipe down; exit quietly
        return
    except Exception as exc:
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except Exception:
            pass
        return


class _WorkerPool:
    """Owns the shard worker processes and their pipes.

    Guarantees teardown: :meth:`close` (run from ``finally`` in
    :func:`_run_process`) closes every pipe — waking workers blocked in
    ``recv`` — then joins, escalating to terminate/kill for stragglers,
    so neither a mid-run exception in the parent nor a dead worker
    leaves orphaned forks behind. Pipe failures surface as
    :class:`ShardWorkerError` with the worker's exit code.
    """

    def __init__(self, factory, num_shards: int, lookahead: float, seed: int):
        import multiprocessing as mp

        context = mp.get_context("fork")
        self.pipes = []
        self.workers = []
        try:
            for shard_id in range(num_shards):
                parent_conn, child_conn = context.Pipe()
                worker = context.Process(
                    target=_process_worker,
                    args=(child_conn, factory, shard_id, num_shards, lookahead, seed),
                    daemon=True,
                )
                worker.start()
                child_conn.close()
                self.pipes.append(parent_conn)
                self.workers.append(worker)
        except BaseException:
            self.close()
            raise

    def __enter__(self) -> "_WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def send(self, shard_id: int, message: tuple) -> None:
        try:
            self.pipes[shard_id].send(message)
        except (BrokenPipeError, EOFError, OSError) as exc:
            self._fail(shard_id, exc)

    def recv(self, shard_id: int) -> tuple:
        try:
            reply = self.pipes[shard_id].recv()
        except (EOFError, OSError) as exc:
            self._fail(shard_id, exc)
        if reply[0] == "error":
            self._fail(shard_id, None, detail=reply[1])
        return reply

    def _fail(self, shard_id: int, exc, detail: str | None = None):
        worker = self.workers[shard_id]
        worker.join(timeout=1)
        exitcode = worker.exitcode
        self.close()
        reason = detail if detail is not None else f"pipe failed: {exc!r}"
        raise ShardWorkerError(
            f"shard {shard_id} worker failed ({reason}; exitcode={exitcode}); "
            "all workers terminated"
        ) from exc

    def close(self) -> None:
        for conn in self.pipes:
            try:
                conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
        for worker in self.workers:
            worker.join(timeout=2)
        for worker in self.workers:
            if worker.is_alive():
                worker.terminate()
        for worker in self.workers:
            if worker.is_alive():  # pragma: no cover - terminate stragglers
                worker.join(timeout=5)
                if worker.is_alive():
                    worker.kill()
                    worker.join(timeout=5)


def _run_process(
    factory: Callable[[int, int, random.Random], ShardProgram],
    num_shards: int,
    lookahead: float,
    seed: int,
    until: float | None,
) -> ShardRunReport:
    report = ShardRunReport(num_shards=num_shards, backend="process", lookahead=lookahead)
    perf = _time.perf_counter
    wall_start = perf()
    total_messages = 0
    with _WorkerPool(factory, num_shards, lookahead, seed) as pool:
        tops = [_INF] * num_shards
        #: per-destination inbound blocks awaiting the next step, and the
        #: earliest arrival among them (folded into the window planning,
        #: since the destination's reported top predates these messages)
        pending_blocks: list[list[tuple[int, bytes, int]]] = [
            [] for _ in range(num_shards)
        ]
        pending_min = [_INF] * num_shards
        # The handshake has step-reply shape: it carries any messages the
        # programs sent during start(), windowed like all later traffic.
        for shard_id in range(num_shards):
            reply = pool.recv(shard_id)
            tops[shard_id] = _INF if reply[2] is None else reply[2]
            for dst, raw, count, min_arrival in reply[1]:
                pending_blocks[dst].append((shard_id, raw, count))
                if min_arrival < pending_min[dst]:
                    pending_min[dst] = min_arrival
                total_messages += count
        # Clocks park at ``until`` only when it cut the run short, as in
        # the round-robin backend (a run that drains first keeps its clocks).
        park_at = None
        while True:
            effective = [
                tops[i] if tops[i] < pending_min[i] else pending_min[i]
                for i in range(num_shards)
            ]
            t_min = min(effective)
            if t_min == _INF:
                break
            if until is not None and t_min > until:
                park_at = until
                break
            if num_shards == 1:
                # Every send loops back: one step drains the shard, and
                # lookahead may be 0 (the planned bound would then never
                # pass the first event).
                bounds = [until]
            else:
                bounds = _plan_bounds(effective, lookahead, until)
            stepped = []
            for shard_id in range(num_shards):
                if effective[shard_id] == _INF:
                    continue
                pool.send(
                    shard_id, ("step", pending_blocks[shard_id], bounds[shard_id])
                )
                pending_blocks[shard_id] = []
                pending_min[shard_id] = _INF
                stepped.append(shard_id)
            # Collect in pinned shard order: global message sequence
            # numbers are implicitly assigned by this order, which is
            # what makes the per-destination (arrival, src, position)
            # sort reproduce the global merge order.
            for shard_id in stepped:
                reply = pool.recv(shard_id)
                tops[shard_id] = _INF if reply[2] is None else reply[2]
                for dst, raw, count, min_arrival in reply[1]:
                    pending_blocks[dst].append((shard_id, raw, count))
                    if min_arrival < pending_min[dst]:
                        pending_min[dst] = min_arrival
                    total_messages += count
            report.windows += 1
        for shard_id in range(num_shards):
            pool.send(shard_id, ("stop", park_at))
        for shard_id in range(num_shards):
            reply = pool.recv(shard_id)
            report.shards.append(
                ShardReport(
                    shard_id=shard_id,
                    processed=reply[1],
                    busy_seconds=reply[2],
                    final_time=reply[3],
                    digest=reply[4],
                    ipc_serialize_seconds=reply[5],
                    ipc_deserialize_seconds=reply[6],
                )
            )
    report.wall_seconds = perf() - wall_start
    report.cross_messages = total_messages
    return report


def run_sharded(
    factory: Callable[[int, int, random.Random], ShardProgram],
    num_shards: int,
    lookahead: float,
    seed: int = 0,
    backend: str = "round_robin",
    until: float | None = None,
) -> ShardRunReport:
    """Run one :class:`ShardProgram` per shard to completion.

    ``factory(shard_id, num_shards, rng)`` builds each shard's program;
    the RNG is spawned deterministically from ``seed`` with the same
    labels regardless of backend, so ``round_robin`` and ``process``
    runs of the same program are bit-identical. The ``process`` backend
    forks one persistent worker per shard (POSIX only) and exchanges
    packed message blocks over pipes — one round trip per window; use it
    on multi-core hosts, and ``round_robin`` everywhere else — the
    report's per-shard busy rates make the two comparable. A worker that
    dies or raises mid-run surfaces as :class:`ShardWorkerError` after
    every other worker has been torn down.
    """
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    if num_shards > 1 and lookahead <= 0:
        raise ValueError(
            f"lookahead must be positive with {num_shards} shards, got {lookahead}"
        )
    if backend == "round_robin":
        return _run_round_robin(factory, num_shards, lookahead, seed, until)
    if backend == "process":
        return _run_process(factory, num_shards, lookahead, seed, until)
    raise ValueError(f"unknown backend {backend!r} (round_robin or process)")

"""Event loop with a virtual clock.

A minimal but complete discrete-event engine: the heap holds plain
``(time, seq, event)`` tuples — ordering is decided entirely by the
``(time, seq)`` prefix, so ties are FIFO and the slotted :class:`Event`
handles are never compared — and ``run`` pops them in time order and
advances the clock. Everything the deployment simulation does — message
delivery, query timeouts, churn — is scheduled here, so experiments are
fully deterministic and run in virtual (not wall-clock) time.

The engine keeps two O(1) counters alongside the heap: the number of
*live* (scheduled, not yet fired or cancelled) events, which backs
:attr:`Simulator.pending`, and the number of cancelled entries still
sitting in the heap. Cancelled entries are skipped lazily when popped;
when they outnumber the live ones the heap is compacted in one pass so a
cancel-heavy workload (e.g. mass early termination of pipelined queries)
cannot leave the heap dominated by corpses.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable

#: event lifecycle states (module-level ints: cheaper than an Enum in the
#: engine's hot loop, and they never leave this module)
_PENDING, _FIRED, _CANCELLED = 0, 1, 2

#: compact the heap only once this many cancelled entries have piled up —
#: below that, the O(n) rebuild costs more than lazily skipping them
_COMPACT_MIN = 64

#: process-wide profiler hook (see :mod:`repro.obs.profile`): simulators
#: snapshot it at construction, so installing a profiler affects every
#: simulator built afterwards — including ones experiments build
#: internally — while the default hot loop pays one ``is None`` check
_profiler = None


def install_profiler(profiler) -> None:
    """Set (or clear, with None) the profiler new simulators pick up."""
    global _profiler
    _profiler = profiler


def installed_profiler():
    """The currently installed process-wide profiler, or None."""
    return _profiler


class Event:
    """Handle for one scheduled callback.

    A slotted record of ``(time, seq, callback)`` plus lifecycle state.
    Handles are deliberately *unordered*: heap ordering is carried by the
    ``(time, seq)`` tuple prefix of each heap entry, never by comparing
    handles, so creating one costs a plain ``__init__`` and no generated
    comparison methods.
    """

    __slots__ = ("time", "seq", "callback", "_sim", "_group", "_state")

    def __init__(self, time: float, seq: int, callback: Callable[[], None], sim: "Simulator"):
        self.time = time
        self.seq = seq
        self.callback = callback
        self._sim = sim
        self._group: "EventGroup | None" = None
        self._state = _PENDING

    @property
    def cancelled(self) -> bool:
        """True once :meth:`cancel` took effect (never for fired events)."""
        return self._state == _CANCELLED

    def cancel(self) -> None:
        """Mark the event so the engine skips it when popped.

        A no-op after the event has fired or was already cancelled, so
        callbacks may safely cancel their own (already popped) handle.
        The callback is dropped at once: a cancelled entry can sit in the
        heap for a long time, and must not keep alive whatever its
        callback closes over (a whole cancelled query, say).
        """
        if self._state == _PENDING:
            self._state = _CANCELLED
            self.callback = None
            self._sim._on_cancel(self)


class Simulator:
    """Virtual-time event loop.

    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(5.0, lambda: fired.append(sim.now))
    >>> sim.run()
    1
    >>> fired
    [5.0]
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._queue: list[tuple[float, int, Event]] = []
        self._next_seq = 0
        self._processed = 0
        #: scheduled, not yet fired or cancelled — backs O(1) ``pending``
        self._live = 0
        #: cancelled entries still physically in the heap
        self._cancelled_in_heap = 0
        #: sampled wall-clock profiler, or None (snapshot of the module
        #: hook; assignable per-simulator)
        self.profiler = _profiler

    def _push(self, time: float, callback: Callable[[], None]) -> Event:
        seq = self._next_seq
        self._next_seq = seq + 1
        event = Event(time, seq, callback, self)
        heapq.heappush(self._queue, (time, seq, event))
        self._live += 1
        return event

    def schedule(self, delay: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` to fire ``delay`` time units from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        return self._push(self.now + delay, callback)

    def schedule_at(self, time: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` at an absolute virtual time.

        The event fires at exactly ``time`` — not ``now + (time - now)``,
        which can differ by an ulp. Cross-shard delivery relies on this:
        an arrival time computed on the source shard must reproduce
        bit-identically on the destination.
        """
        if time < self.now:
            raise ValueError(
                f"cannot schedule into the past (time={time} < now={self.now})"
            )
        return self._push(time, callback)

    def run(self, until: float | None = None, max_events: int | None = None) -> int:
        """Drain the event queue.

        Stops when the queue is empty, when virtual time would pass
        ``until``, or after ``max_events`` callbacks. Returns the number of
        events processed by this call.
        """
        processed = 0
        queue = self._queue
        heappop = heapq.heappop
        profiler = self.profiler
        while queue:
            if max_events is not None and processed >= max_events:
                break
            time = queue[0][0]
            if until is not None and time > until:
                self.now = until
                break
            event = heappop(queue)[2]
            if event._state != _PENDING:
                self._cancelled_in_heap -= 1
                continue
            event._state = _FIRED
            self._live -= 1
            group = event._group
            if group is not None:
                group._events.pop(event.seq, None)
            self.now = time
            if profiler is None:
                event.callback()
            else:
                profiler.run_sampled(event.callback)
            processed += 1
        self._processed += processed
        return processed

    def run_with_inbox(
        self,
        inbox: list,
        start: int,
        handler: Callable[[Any], None],
        until: float | None = None,
    ) -> tuple[int, int]:
        """Drain the heap merged with a pre-sorted batch of deliveries.

        ``inbox[start:]`` holds tuples whose first element is the arrival
        time (ascending) and whose last element is a payload; each fires
        as ``handler(payload)`` at its arrival time, interleaved with
        heap events in time order. This is the sharded backends' bulk
        path for cross-shard messages: a sorted batch skips per-message
        ``schedule_at`` entirely — no :class:`Event` allocation, no
        heap traffic, no per-message closure — while local events keep
        full heap semantics (cancellation, groups).

        When an inbox arrival ties a heap event exactly, the inbox entry
        fires first. Heap FIFO seq cannot order these ties (inbox entries
        never entered the heap); any fixed rule is deterministic, and
        both sharded backends share this one.

        Returns ``(processed, next_index)`` — consumption resumes from
        ``next_index`` after the bound; entries beyond it stay pending
        and must be folded into the shard's next-event time.
        """
        processed = 0
        queue = self._queue
        heappop = heapq.heappop
        profiler = self.profiler
        index = start
        end = len(inbox)
        while True:
            entry = None
            if index < end:
                entry = inbox[index]
                if queue and queue[0][0] < entry[0]:
                    entry = None
            if entry is not None:
                time = entry[0]
                if until is not None and time > until:
                    self.now = until
                    break
                index += 1
                self.now = time
                if profiler is None:
                    handler(entry[-1])
                else:
                    profiler.run_sampled(lambda: handler(entry[-1]))
                processed += 1
                continue
            if not queue:
                break
            time = queue[0][0]
            if until is not None and time > until:
                self.now = until
                break
            event = heappop(queue)[2]
            if event._state != _PENDING:
                self._cancelled_in_heap -= 1
                continue
            event._state = _FIRED
            self._live -= 1
            group = event._group
            if group is not None:
                group._events.pop(event.seq, None)
            self.now = time
            if profiler is None:
                event.callback()
            else:
                profiler.run_sampled(event.callback)
            processed += 1
        self._processed += processed
        return processed, index

    def step(self) -> bool:
        """Process exactly one event. Returns False if the queue was empty."""
        return self.run(max_events=1) == 1

    @property
    def pending(self) -> int:
        """Number of not-yet-cancelled events still queued (O(1))."""
        return self._live

    @property
    def processed(self) -> int:
        """Total events processed over the simulator's lifetime."""
        return self._processed

    def group(self) -> "EventGroup":
        """A new cancellable group of events on this simulator."""
        return EventGroup(self)

    # -- internal bookkeeping ---------------------------------------------

    def _on_cancel(self, event: Event) -> None:
        """Counter upkeep for one cancellation; compacts when worthwhile.

        Compaction triggers when cancelled entries outnumber the live
        ones: one O(n) rebuild halves the heap, so its amortised cost per
        cancelled event is O(1) and mass cancellations cannot leave the
        heap dominated by corpses until they happen to be popped.
        """
        self._live -= 1
        self._cancelled_in_heap += 1
        group = event._group
        if group is not None:
            group._events.pop(event.seq, None)
        if (
            self._cancelled_in_heap > _COMPACT_MIN
            and self._cancelled_in_heap * 2 > len(self._queue)
        ):
            # In-place: ``run`` may be mid-drain holding a reference to
            # this exact list, so the object must never be swapped out.
            self._queue[:] = [
                entry for entry in self._queue if entry[2]._state == _PENDING
            ]
            heapq.heapify(self._queue)
            self._cancelled_in_heap = 0


class EventGroup:
    """A cancellable set of scheduled events.

    Groups model one logical activity's in-flight work — e.g. every batch
    of a pipelined query — so early termination can cancel *all* of it in
    one call. The engine discards each event from its group as it fires
    (a seq-keyed dict removal — no per-event closure is allocated);
    :meth:`cancel` marks the remainder so the engine skips them, and a
    cancelled group silently refuses new work (a late callback scheduling
    a follow-up after cancellation is a no-op, not a resurrection).

    >>> sim = Simulator()
    >>> group = sim.group()
    >>> fired = []
    >>> _ = group.schedule(1.0, lambda: fired.append("a"))
    >>> _ = group.schedule(2.0, lambda: fired.append("b"))
    >>> _ = sim.run(until=1.5)
    >>> group.cancel()
    1
    >>> _ = sim.run()
    >>> fired
    ['a']
    """

    __slots__ = ("sim", "cancelled", "_events")

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.cancelled = False
        self._events: dict[int, Event] = {}  # seq -> event, still pending

    def schedule(self, delay: float, callback: Callable[[], None]) -> Event | None:
        """Schedule ``callback`` in this group; None if already cancelled."""
        if self.cancelled:
            return None
        event = self.sim.schedule(delay, callback)
        event._group = self
        self._events[event.seq] = event
        return event

    def schedule_at(self, time: float, callback: Callable[[], None]) -> Event | None:
        """Schedule at an absolute virtual time; None if already cancelled."""
        if self.cancelled:
            return None
        event = self.sim.schedule_at(time, callback)
        event._group = self
        self._events[event.seq] = event
        return event

    def cancel(self) -> int:
        """Cancel every still-pending event; returns how many were live."""
        self.cancelled = True
        events = list(self._events.values())
        self._events.clear()
        for event in events:
            event.cancel()
        return len(events)

    @property
    def pending(self) -> int:
        """Events scheduled through this group that have not yet fired."""
        return len(self._events)


class Process:
    """Convenience base for simulation actors that hold a Simulator handle."""

    def __init__(self, sim: Simulator):
        self.sim = sim

    def after(self, delay: float, callback: Callable[[], None]) -> Event:
        return self.sim.schedule(delay, callback)


def run_callbacks(callbacks: list[Callable[[], Any]]) -> list[Any]:
    """Run plain callbacks immediately; helper for non-simulated paths."""
    return [callback() for callback in callbacks]

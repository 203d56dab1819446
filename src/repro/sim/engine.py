"""Event loop with a virtual clock.

A minimal but complete discrete-event engine: the heap holds plain
``(time, seq, callback, group)`` tuples — ordering is decided entirely by
the unique ``(time, seq)`` prefix, so ties are FIFO and no other field is
ever compared — and ``run`` pops them in time order and advances the
clock. Everything the deployment simulation does — message delivery,
query timeouts, churn — is scheduled here, so experiments are fully
deterministic and run in virtual (not wall-clock) time.

Events are cancelled by group only: the simulation cancels to drop a
whole query's in-flight dataflow, never one event. An ungrouped entry is
``(time, seq, callback, None)``. A grouped entry is ``(time, seq, None,
group)``, and its callback lives only in the group's seq-keyed dict,
which the engine pops on fire; :meth:`EventGroup.cancel` clears that
dict, so a cancelled entry left in the heap is a corpse that keeps
nothing alive (not a whole finished query, say).

The engine keeps two O(1) counters alongside the heap: the number of
*live* (scheduled, not yet fired or cancelled) events, which backs
:attr:`Simulator.pending`, and the number of corpses still sitting in the
heap. Corpses are skipped lazily when popped; when they outnumber the
live ones the heap is compacted in one pass so a cancel-heavy workload
(e.g. mass early termination of pipelined queries) cannot leave the heap
dominated by them.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable

#: compact the heap only once this many cancelled entries have piled up —
#: below that, the O(n) rebuild costs more than lazily skipping them
_COMPACT_MIN = 64


class Simulator:
    """Virtual-time event loop.

    >>> sim = Simulator()
    >>> fired = []
    >>> sim.schedule(5.0, lambda: fired.append(sim.now))
    >>> sim.run()
    1
    >>> fired
    [5.0]
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        #: ``(time, seq, callback, group)`` heap entries (module docstring)
        self._queue: list[tuple[float, int, Any, "EventGroup | None"]] = []
        self._next_seq = 0
        self._processed = 0
        #: scheduled, not yet fired or cancelled — backs O(1) ``pending``
        self._live = 0
        #: cancelled entries still physically in the heap
        self._cancelled_in_heap = 0

    def _push(self, time: float, callback: Any, group: "EventGroup | None") -> int:
        seq = self._next_seq
        self._next_seq = seq + 1
        heapq.heappush(self._queue, (time, seq, callback, group))
        self._live += 1
        return seq

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` to fire ``delay`` time units from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        self._push(self.now + delay, callback, None)

    def schedule_at(self, time: float, callback: Callable[[], None]) -> None:
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
        self._push(time, callback, None)

    def run(self, until: float | None = None, max_events: int | None = None) -> int:
        """Drain the event queue.

        Stops when the queue is empty, when virtual time would pass
        ``until``, or after ``max_events`` callbacks. Returns the number of
        events processed by this call.
        """
        processed = 0
        queue = self._queue
        heappop = heapq.heappop
        while queue:
            if max_events is not None and processed >= max_events:
                break
            time = queue[0][0]
            if until is not None and time > until:
                self.now = until
                break
            _, seq, callback, group = heappop(queue)
            if group is not None:
                callback = group._callbacks.pop(seq, None)
                if callback is None:
                    self._cancelled_in_heap -= 1
                    continue
            self._live -= 1
            self.now = time
            callback()
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
        ``schedule_at`` entirely — no heap entry, no heap traffic, no
        per-message closure — while local events keep full heap
        semantics (groups and their cancellation).

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
                handler(entry[-1])
                processed += 1
                continue
            if not queue:
                break
            time = queue[0][0]
            if until is not None and time > until:
                self.now = until
                break
            _, seq, callback, group = heappop(queue)
            if group is not None:
                callback = group._callbacks.pop(seq, None)
                if callback is None:
                    self._cancelled_in_heap -= 1
                    continue
            self._live -= 1
            self.now = time
            callback()
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

    def _on_cancel(self, count: int) -> None:
        """Counter upkeep for ``count`` new corpses; compacts when worthwhile.

        Compaction triggers when cancelled entries outnumber the live
        ones: one O(n) rebuild halves the heap, so its amortised cost per
        cancelled event is O(1) and mass cancellations cannot leave the
        heap dominated by corpses until they happen to be popped.
        """
        self._live -= count
        self._cancelled_in_heap += count
        if (
            self._cancelled_in_heap > _COMPACT_MIN
            and self._cancelled_in_heap * 2 > len(self._queue)
        ):
            # In-place: ``run`` may be mid-drain holding a reference to
            # this exact list, so the object must never be swapped out.
            self._queue[:] = [
                entry
                for entry in self._queue
                if entry[3] is None or entry[1] in entry[3]._callbacks
            ]
            heapq.heapify(self._queue)
            self._cancelled_in_heap = 0


class EventGroup:
    """A cancellable set of scheduled events.

    Groups model one logical activity's in-flight work — e.g. every batch
    of a pipelined query — so early termination can cancel *all* of it in
    one call. The group holds its pending callbacks keyed by heap seq;
    the engine pops each as it fires, and :meth:`cancel` clears the rest
    so the engine skips their heap entries. A cancelled group silently
    refuses new work (a late callback scheduling a follow-up after
    cancellation is a no-op, not a resurrection).

    >>> sim = Simulator()
    >>> group = sim.group()
    >>> fired = []
    >>> group.schedule(1.0, lambda: fired.append("a"))
    >>> group.schedule(2.0, lambda: fired.append("b"))
    >>> _ = sim.run(until=1.5)
    >>> group.cancel()
    1
    >>> _ = sim.run()
    >>> fired
    ['a']
    """

    __slots__ = ("sim", "cancelled", "_callbacks")

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.cancelled = False
        self._callbacks: dict[int, Callable[[], None]] = {}  # seq -> pending

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` in this group; a no-op once cancelled."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        self.schedule_at(self.sim.now + delay, callback)

    def schedule_at(self, time: float, callback: Callable[[], None]) -> None:
        """Schedule at an absolute virtual time; a no-op once cancelled."""
        if self.cancelled:
            return
        sim = self.sim
        if time < sim.now:
            raise ValueError(
                f"cannot schedule into the past (time={time} < now={sim.now})"
            )
        self._callbacks[sim._push(time, None, self)] = callback

    def cancel(self) -> int:
        """Cancel every still-pending event; returns how many were live."""
        self.cancelled = True
        count = len(self._callbacks)
        self._callbacks.clear()
        if count:
            self.sim._on_cancel(count)
        return count

    @property
    def pending(self) -> int:
        """Events scheduled through this group that have not yet fired."""
        return len(self._callbacks)

"""Unit tests for the discrete-event engine."""

import random
import weakref

import pytest

from repro.sim.engine import _COMPACT_MIN, Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(3.0, lambda: fired.append("late"))
        sim.schedule(1.0, lambda: fired.append("early"))
        sim.run()
        assert fired == ["early", "late"]

    def test_ties_fire_fifo(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append("first"))
        sim.schedule(1.0, lambda: fired.append("second"))
        sim.run()
        assert fired == ["first", "second"]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        times = []
        sim.schedule(2.5, lambda: times.append(sim.now))
        sim.run()
        assert times == [2.5]

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        fired = []
        sim.schedule_at(5.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [5.0]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(-1.0, lambda: None)

    def test_nested_scheduling(self):
        sim = Simulator()
        fired = []

        def outer():
            fired.append(("outer", sim.now))
            sim.schedule(1.0, lambda: fired.append(("inner", sim.now)))

        sim.schedule(1.0, outer)
        sim.run()
        assert fired == [("outer", 1.0), ("inner", 2.0)]


class TestRunControl:
    def test_run_until_stops_clock(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(10.0, lambda: fired.append(10))
        processed = sim.run(until=5.0)
        assert processed == 1
        assert fired == [1]
        assert sim.now == 5.0

    def test_run_resumes_after_until(self):
        sim = Simulator()
        fired = []
        sim.schedule(10.0, lambda: fired.append(10))
        sim.run(until=5.0)
        sim.run()
        assert fired == [10]

    def test_max_events(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule(float(i + 1), lambda: None)
        assert sim.run(max_events=3) == 3
        assert sim.pending == 2

    def test_step(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        assert sim.step() is True
        assert sim.step() is False

    def test_cancelled_events_skipped(self):
        sim = Simulator()
        group = sim.group()
        fired = []
        group.schedule(1.0, lambda: fired.append("cancelled"))
        sim.schedule(2.0, lambda: fired.append("kept"))
        group.cancel()
        sim.run()
        assert fired == ["kept"]

    def test_processed_counter(self):
        sim = Simulator()
        for i in range(4):
            sim.schedule(float(i), lambda: None)
        sim.run()
        assert sim.processed == 4

    def test_empty_run_returns_zero(self):
        assert Simulator().run() == 0

    def test_max_events_counts_fired_events_not_corpses(self):
        sim = Simulator()
        doomed = sim.group()
        fired = []
        for index in range(6):
            owner = doomed if index % 2 else sim
            owner.schedule(float(index), lambda index=index: fired.append(index))
        doomed.cancel()
        assert sim.run(max_events=2) == 2
        assert fired == [0, 2]
        assert sim.pending == 1

    def test_step_fires_the_next_live_event_past_corpses(self):
        sim = Simulator()
        doomed = sim.group()
        fired = []
        doomed.schedule(1.0, lambda: fired.append("corpse"))
        sim.schedule(2.0, lambda: fired.append("live"))
        doomed.cancel()
        assert sim.step() is True
        assert fired == ["live"] and sim.now == 2.0

    def test_step_over_only_corpses_reports_empty_and_drains_them(self):
        sim = Simulator()
        doomed = sim.group()
        for delay in (1.0, 2.0):
            doomed.schedule(delay, lambda: None)
        doomed.cancel()
        assert sim.step() is False
        assert sim._queue == [] and sim._cancelled_in_heap == 0
        assert sim.now == 0.0


class TestEdgeCases:
    def test_cancel_after_pop_is_harmless(self):
        sim = Simulator()
        group = sim.group()
        fired = []
        group.schedule(1.0, lambda: fired.append("once"))
        sim.run()
        assert group.cancel() == 0  # already popped and executed: a no-op
        sim.run()
        assert fired == ["once"]
        assert sim.pending == 0

    def test_cancel_during_own_callback(self):
        sim = Simulator()
        group = sim.group()
        fired = []

        def self_cancelling():
            fired.append(sim.now)
            # popped already: only the later sibling is left to cancel
            assert group.cancel() == 1

        group.schedule(1.0, self_cancelling)
        group.schedule(2.0, lambda: fired.append("sibling"))
        sim.run()
        assert fired == [1.0]
        assert sim.pending == 0

    def test_fifo_ties_among_many(self):
        sim = Simulator()
        fired = []
        for index in range(10):
            sim.schedule(5.0, lambda index=index: fired.append(index))
        sim.run()
        assert fired == list(range(10))

    def test_fifo_ties_with_interleaved_cancellation(self):
        sim = Simulator()
        doomed = sim.group()
        fired = []
        for index in range(5):
            owner = doomed if index in (1, 3) else sim
            owner.schedule(5.0, lambda index=index: fired.append(index))
        doomed.cancel()
        sim.run()
        assert fired == [0, 2, 4]

    def test_ties_scheduled_mid_run_fire_after_earlier_peers(self):
        sim = Simulator()
        fired = []

        def first():
            fired.append("first")
            sim.schedule(0.0, lambda: fired.append("nested"))

        sim.schedule(1.0, first)
        sim.schedule(1.0, lambda: fired.append("second"))
        sim.run()
        assert fired == ["first", "second", "nested"]

    def test_schedule_at_in_the_past_rejected(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        assert sim.now == 5.0
        with pytest.raises(ValueError):
            sim.schedule_at(2.0, lambda: None)

    def test_schedule_at_now_is_allowed(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        fired = []
        sim.schedule_at(5.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [5.0]

    def test_pending_excludes_cancelled(self):
        sim = Simulator()
        kept, doomed = sim.group(), sim.group()
        kept.schedule(1.0, lambda: None)
        doomed.schedule(2.0, lambda: None)
        doomed.cancel()
        assert sim.pending == 1
        assert kept.cancelled is False and kept.pending == 1


def live_entries(sim):
    """Ground truth for ``pending``: heap entries that will still fire —
    ungrouped ones, and grouped ones whose group still holds their seq."""
    return sum(
        1
        for _, seq, _, group in sim._queue
        if group is None or seq in group._callbacks
    )


class TestPendingCounter:
    """``pending`` is a maintained counter — it must stay exact through
    every combination of fire and group-cancel."""

    def test_pending_tracks_cancel_heavy_group_workload(self):
        sim = Simulator()
        groups = [sim.group() for _ in range(4)]
        for index in range(100):
            groups[index % 4].schedule(float(index % 13) + 1.0, lambda: None)
        for i in range(20):
            sim.schedule(float(i) + 0.5, lambda: None)
        assert sim.pending == 120 == live_entries(sim)
        # Fire a few, then mass-cancel one whole group: only the members
        # it still holds are counted, never the ones that already fired.
        assert sim.run(max_events=30) == 30
        survivors_in_group = groups[0].pending
        assert 0 < survivors_in_group < 25
        assert groups[0].cancel() == survivors_in_group
        expected = 90 - survivors_in_group
        assert sim.pending == expected == live_entries(sim)
        # Fire a few more and re-check, then drain completely.
        fired = sim.run(max_events=7)
        assert fired == 7
        assert sim.pending == expected - 7 == live_entries(sim)
        sim.run()
        assert sim.pending == 0
        assert all(group.pending == 0 for group in groups)

    def test_mixed_group_cancel_workload_counts_exactly(self):
        """The deployment's usage mix: a quarter of the events go through
        32 groups, eight groups are mass-cancelled, and the run stops at
        a horizon before draining. Every count stays exact throughout."""
        rng = random.Random(7)
        sim = Simulator()
        groups = [sim.group() for _ in range(32)]
        for index in range(16_384):
            delay = rng.random() * 10.0
            if index & 3 == 0:
                groups[(index >> 2) & 31].schedule(delay, lambda: None)
            else:
                sim.schedule(delay, lambda: None)
        assert [group.pending for group in groups] == [128] * 32
        cancelled = sum(group.cancel() for group in groups[:8])
        assert cancelled == 8 * 128
        assert sim.pending == 16_384 - cancelled == live_entries(sim)
        early = sim.run(until=5.0)
        assert sim.pending == 16_384 - cancelled - early == live_entries(sim)
        assert early + sim.run() == 16_384 - cancelled == sim.processed
        assert sim.pending == 0

    def test_double_cancel_decrements_once(self):
        sim = Simulator()
        group = sim.group()
        group.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert group.cancel() == 1
        assert group.cancel() == 0
        assert sim.pending == 1 == live_entries(sim)

    def test_cancel_leaves_other_groups_pending_exact(self):
        sim = Simulator()
        doomed, kept = sim.group(), sim.group()
        doomed.schedule(1.0, lambda: None)
        kept.schedule(1.0, lambda: None)
        kept.schedule(2.0, lambda: None)
        assert doomed.cancel() == 1
        assert kept.pending == 2
        assert kept.cancel() == 2
        assert sim.pending == 0 == live_entries(sim)


class TestHeapCompaction:
    def test_mass_cancellation_compacts_the_heap(self):
        sim = Simulator()
        doomed = sim.group()
        for i in range(900):
            doomed.schedule(float(i), lambda: None)
        for i in range(100):
            sim.schedule(float(i), lambda: None)
        assert doomed.cancel() == 900
        # The heap must not keep ~900 corpses around: compaction kicks in
        # once cancelled entries outnumber live ones.
        assert len(sim._queue) <= 200
        assert sim.pending == 100 == live_entries(sim)
        assert sim.run() == 100

    def test_compaction_during_run_keeps_draining(self):
        """Cancelling en masse from inside a callback (the early-termination
        pattern) must not detach the heap the running loop is draining."""
        sim = Simulator()
        doomed = sim.group()
        fired = []
        for i in range(300):
            doomed.schedule(5.0 + i, lambda i=i: fired.append(i))

        def terminate():
            doomed.cancel()
            sim.schedule(1.0, lambda: fired.append("after-compaction"))

        sim.schedule(1.0, terminate)
        sim.run()
        assert fired == ["after-compaction"]
        assert sim.pending == 0

    def test_cancel_drops_callbacks_while_corpses_stay_queued(self):
        """A cancelled entry can sit in the heap for a long time: it must
        not keep its callback, or whatever that closes over, alive."""

        class Batch:
            def __call__(self):
                raise AssertionError("a cancelled batch fired")

        sim = Simulator()
        group = sim.group()
        batch = Batch()
        alive = weakref.ref(batch)
        group.schedule(1.0, batch)
        del batch
        assert alive() is not None  # the group holds it while pending
        group.cancel()
        assert len(sim._queue) == 1  # too few corpses to compact
        assert alive() is None
        assert sim.run() == 0
        assert sim._queue == []


    def test_no_compaction_at_the_threshold(self):
        sim = Simulator()
        doomed = sim.group()
        for i in range(_COMPACT_MIN):
            doomed.schedule(float(i), lambda: None)
        doomed.cancel()
        assert len(sim._queue) == _COMPACT_MIN
        assert sim._cancelled_in_heap == _COMPACT_MIN
        assert sim.run() == 0
        assert sim._cancelled_in_heap == 0

    def test_one_corpse_past_the_threshold_compacts(self):
        sim = Simulator()
        doomed = sim.group()
        for i in range(_COMPACT_MIN + 1):
            doomed.schedule(float(i), lambda: None)
        sim.schedule(0.5, lambda: None)
        doomed.cancel()
        assert len(sim._queue) == 1
        assert sim._cancelled_in_heap == 0
        assert sim.pending == 1 == live_entries(sim)

    def test_no_compaction_while_live_entries_dominate(self):
        sim = Simulator()
        doomed = sim.group()
        for i in range(2 * _COMPACT_MIN):
            doomed.schedule(float(i), lambda: None)
        for i in range(2 * _COMPACT_MIN):
            sim.schedule(float(i), lambda: None)
        doomed.cancel()
        assert len(sim._queue) == 4 * _COMPACT_MIN
        assert sim.pending == 2 * _COMPACT_MIN == live_entries(sim)

    def test_compaction_keeps_time_then_fifo_order_among_survivors(self):
        sim = Simulator()
        doomed, kept = sim.group(), sim.group()
        fired = []
        times = [float(-index % 7) for index in range(5 * _COMPACT_MIN)]
        for index, time in enumerate(times):
            owner = (sim, kept, doomed, doomed, doomed)[index % 5]
            owner.schedule(time, lambda index=index: fired.append(index))
        doomed.cancel()
        assert len(sim._queue) == 2 * _COMPACT_MIN  # compacted
        sim.run()
        survivors = [index for index in range(len(times)) if index % 5 < 2]
        assert fired == sorted(survivors, key=lambda index: (times[index], index))


class TestEventGroup:
    def test_cancel_kills_only_pending_events(self):
        sim = Simulator()
        group = sim.group()
        fired = []
        group.schedule(1.0, lambda: fired.append("a"))
        group.schedule(3.0, lambda: fired.append("b"))
        sim.run(until=2.0)
        assert group.pending == 1
        assert group.cancel() == 1
        sim.run()
        assert fired == ["a"]

    def test_cancelled_group_refuses_new_work(self):
        sim = Simulator()
        group = sim.group()
        group.cancel()
        assert group.schedule(1.0, lambda: None) is None
        assert group.pending == 0
        sim.run()

    def test_fired_events_leave_the_group(self):
        sim = Simulator()
        group = sim.group()
        for delay in (1.0, 2.0, 3.0):
            group.schedule(delay, lambda: None)
        assert group.pending == 3
        sim.run()
        assert group.pending == 0
        assert group.cancel() == 0

    def test_groups_are_independent(self):
        sim = Simulator()
        doomed, kept = sim.group(), sim.group()
        fired = []
        doomed.schedule(1.0, lambda: fired.append("doomed"))
        kept.schedule(1.0, lambda: fired.append("kept"))
        doomed.cancel()
        sim.run()
        assert fired == ["kept"]

    def test_schedule_at_uses_absolute_time(self):
        sim = Simulator()
        group = sim.group()
        fired = []
        sim.schedule(2.0, lambda: group.schedule_at(5.0, lambda: fired.append(sim.now)))
        sim.run()
        assert fired == [5.0]

    def test_callback_scheduling_into_cancelled_group_is_noop(self):
        sim = Simulator()
        group = sim.group()
        fired = []

        def reschedule():
            group.cancel()
            assert group.schedule(1.0, lambda: fired.append("late")) is None

        group.schedule(1.0, reschedule)
        sim.run()
        assert fired == []


class TestEventRecords:
    """A heap entry is a plain ``(time, seq, callback, group)`` tuple; a
    grouped entry's callback lives only in its group."""

    def test_ungrouped_entry_holds_its_callback(self):
        sim = Simulator()

        def callback():
            pass

        sim.schedule(1.5, callback)
        assert sim._queue == [(1.5, 0, callback, None)]

    def test_grouped_entry_holds_only_its_group(self):
        sim = Simulator()
        group = sim.group()

        def callback():
            pass

        group.schedule(1.5, callback)
        [(time, seq, held, owner)] = sim._queue
        assert (time, held, owner) == (1.5, None, group)
        assert group._callbacks == {seq: callback}

    def test_no_schedule_call_returns_a_handle(self):
        sim = Simulator()
        group = sim.group()
        assert sim.schedule(1.0, lambda: None) is None
        assert sim.schedule_at(2.0, lambda: None) is None
        assert group.schedule(1.0, lambda: None) is None
        assert group.schedule_at(2.0, lambda: None) is None
        assert sim.pending == 4

    def test_a_fired_grouped_callback_is_released(self):
        class Batch:
            def __call__(self):
                pass

        sim = Simulator()
        group = sim.group()
        batch = Batch()
        alive = weakref.ref(batch)
        group.schedule(1.0, batch)
        del batch
        assert sim.run() == 1
        assert group.pending == 0
        assert alive() is None

    def test_a_firing_callback_is_no_longer_pending(self):
        sim = Simulator()
        group = sim.group()
        seen = []
        group.schedule(1.0, lambda: seen.append((group.pending, sim.pending)))
        group.schedule(2.0, lambda: None)
        sim.run(max_events=1)
        assert seen == [(1, 1)]

    def test_a_raising_callback_leaves_the_counters_exact(self):
        sim = Simulator()
        group = sim.group()
        fired = []

        def boom():
            raise RuntimeError("boom")

        group.schedule(1.0, boom)
        group.schedule(2.0, lambda: fired.append("next"))
        with pytest.raises(RuntimeError):
            sim.run()
        assert group.pending == 1
        assert sim.pending == 1 == live_entries(sim)
        assert sim.run() == 1
        assert fired == ["next"]


def deliver_into(fired):
    return lambda payload: fired.append(payload)


class TestRunWithInbox:
    """The sharded backends' bulk path: a pre-sorted inbox merged with
    the heap, with the heap's group semantics intact."""

    def test_inbox_and_heap_interleave_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(("heap", sim.now)))
        sim.schedule(3.0, lambda: fired.append(("heap", sim.now)))
        inbox = [(0.5, "a"), (2.0, "b"), (4.0, "c")]

        def handler(payload):
            fired.append((payload, sim.now))

        assert sim.run_with_inbox(inbox, 0, handler) == (5, 3)
        assert fired == [
            ("a", 0.5),
            ("heap", 1.0),
            ("b", 2.0),
            ("heap", 3.0),
            ("c", 4.0),
        ]
        assert sim.processed == 5

    def test_inbox_entry_fires_before_a_tied_heap_event(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append("heap"))
        sim.run_with_inbox([(1.0, "inbox")], 0, deliver_into(fired))
        assert fired == ["inbox", "heap"]

    def test_payload_is_the_last_field_and_start_skips_the_prefix(self):
        sim = Simulator()
        fired = []
        inbox = [(1.0, 0, "consumed"), (2.0, 1, "x"), (3.0, 2, "y")]
        assert sim.run_with_inbox(inbox, 1, deliver_into(fired)) == (2, 3)
        assert fired == ["x", "y"]

    def test_until_stops_both_sources_and_resumes_from_the_index(self):
        sim = Simulator()
        fired = []
        sim.schedule(6.0, lambda: fired.append("heap"))
        inbox = [(1.0, "a"), (5.0, "b"), (7.0, "c")]
        handler = deliver_into(fired)
        processed, index = sim.run_with_inbox(inbox, 0, handler, until=4.0)
        assert (processed, index, sim.now) == (1, 1, 4.0)
        processed, index = sim.run_with_inbox(inbox, index, handler, until=6.5)
        assert (processed, index, sim.now) == (2, 2, 6.5)
        assert sim.run_with_inbox(inbox, index, handler) == (1, 3)
        assert fired == ["a", "b", "heap", "c"]
        assert sim.pending == 0

    def test_cancelled_group_entries_are_skipped_and_not_counted(self):
        sim = Simulator()
        doomed, kept = sim.group(), sim.group()
        fired = []
        doomed.schedule(1.0, lambda: fired.append("doomed"))
        kept.schedule(2.0, lambda: fired.append("kept"))
        doomed.schedule(3.0, lambda: fired.append("doomed"))
        assert doomed.cancel() == 2
        assert sim.run_with_inbox([(2.5, "inbox")], 0, deliver_into(fired)) == (2, 1)
        assert fired == ["kept", "inbox"]
        assert sim.pending == 0 and sim._cancelled_in_heap == 0
        assert kept.pending == 0

    def test_a_handler_can_cancel_a_group_mid_drain(self):
        sim = Simulator()
        doomed = sim.group()
        fired = []
        for i in range(3 * _COMPACT_MIN):
            doomed.schedule(2.0 + i, lambda: fired.append("doomed"))

        def handler(payload):
            fired.append(payload)
            doomed.cancel()  # compacts the heap the loop is draining
            sim.schedule(1.0, lambda: fired.append("after"))

        assert sim.run_with_inbox([(1.0, "stop"), (5.0, "late")], 0, handler) == (4, 2)
        assert fired == ["stop", "after", "late", "after"]
        assert sim.pending == 0

    def test_an_empty_inbox_drains_the_heap_like_run(self):
        def build():
            sim = Simulator()
            group = sim.group()
            fired = []
            for index in range(12):
                owner = group if index % 3 == 0 else sim
                owner.schedule(float(index % 4), lambda index=index: fired.append(index))
            return sim, fired

        via_run, run_fired = build()
        via_inbox, inbox_fired = build()
        via_run.run()
        assert via_inbox.run_with_inbox([], 0, deliver_into([])) == (12, 0)
        assert inbox_fired == run_fired
        assert via_inbox.now == via_run.now


class TestEventGroupBounds:
    def test_a_group_rejects_a_negative_delay(self):
        sim = Simulator()
        with pytest.raises(ValueError, match="into the past"):
            sim.group().schedule(-0.5, lambda: None)

    def test_a_group_rejects_an_absolute_time_in_the_past(self):
        sim = Simulator()
        sim.schedule(2.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError, match="into the past"):
            sim.group().schedule_at(1.0, lambda: None)
        assert sim.pending == 0

"""Tests for the virtual-time tracer (repro.obs.trace)."""

import json

import pytest

from repro.obs.trace import Span, Tracer, validate_chrome_trace
from repro.sim.engine import Simulator


class TestSpanTree:
    def test_parent_links_and_nesting(self):
        tracer = Tracer()
        root = tracer.begin("race", at=0.0, terms=["montia"])
        walk = root.child("requery.attempt", at=5.0, attempt=1)
        walk.event("dht.lookup", hops=3)
        walk.finish(at=7.0)
        root.finish(at=8.0, winner="pier")
        assert root.parent is None and walk.parent is root
        assert [child.name for child in root.children] == ["requery.attempt"]
        assert [child.name for child in walk.children] == ["dht.lookup"]
        assert tracer.roots == [root]
        assert len(tracer) == 3

    def test_simulator_clock_drives_timestamps(self):
        sim = Simulator()
        tracer = Tracer()
        tracer.bind_clock(lambda: sim.now)
        span = tracer.begin("query")
        sim.schedule(2.5, lambda: span.finish())
        sim.run()
        assert span.start == 0.0
        assert span.end == 2.5
        assert span.duration == 2.5

    def test_finish_is_idempotent(self):
        tracer = Tracer()
        span = tracer.begin("s", at=1.0)
        span.finish(at=2.0)
        span.finish(at=99.0, late="attr")
        assert span.end == 2.0
        assert span.attrs["late"] == "attr"  # attrs still merge

    def test_events_are_instant(self):
        tracer = Tracer()
        root = tracer.begin("root", at=0.0)
        tracer.bind_clock(lambda: 3.0)
        marker = root.event("first_answer", tuples=2)
        assert marker.start == marker.end == 3.0
        assert marker.duration == 0.0

    def test_context_manager_finishes(self):
        tracer = Tracer()
        with tracer.begin("scoped", at=0.0) as span:
            pass
        assert span.finished

    def test_finish_open_closes_stragglers(self):
        tracer = Tracer()
        tracer.begin("a", at=0.0)
        tracer.begin("b", at=1.0).finish(at=2.0)
        tracer.bind_clock(lambda: 5.0)
        assert tracer.finish_open() == 1
        assert all(span.finished for span in tracer.spans)
        assert tracer.spans[0].end == 5.0

    def test_complete_equals_child_plus_finish(self):
        tracer = Tracer()
        root = tracer.begin("race", at=0.0)
        fast = root.complete("exchange.batch", start=1.0, end=2.5, tuples=4)
        slow = root.child("exchange.batch", at=1.0, tuples=4).finish(at=2.5)
        assert fast.tree() == slow.tree()
        assert fast.parent is root and fast in root.children
        assert fast.finished and fast.duration == 1.5

    def test_complete_defaults_to_clock_instant(self):
        sim = Simulator()
        tracer = Tracer()
        tracer.bind_clock(lambda: sim.now)
        sim.schedule(4.0, lambda: tracer.complete("tick"))
        sim.run()
        (span,) = tracer.roots
        assert span.start == span.end == 4.0

    def test_head_sampling_keeps_every_nth_root(self):
        tracer = Tracer(sample_every=3)
        kept = []
        for index in range(9):
            root = tracer.begin("race", at=float(index), q=index)
            child = root.child("walk", at=float(index))
            child.event("lookup", hops=2)
            root.finish(at=float(index) + 1.0)
            if root.recording:
                kept.append(index)
        assert kept == [0, 3, 6]
        assert [span.attrs["q"] for span in tracer.roots] == [0, 3, 6]
        # Sampled trees are complete; unsampled ones left nothing behind.
        assert len(tracer.spans) == 9
        assert all(root.children for root in tracer.roots)

    def test_unsampled_roots_absorb_all_recording(self):
        tracer = Tracer(sample_every=2)
        tracer.begin("keep", at=0.0)
        dropped = tracer.begin("drop", at=1.0)
        assert not dropped.recording
        assert dropped.child("c") is dropped
        assert dropped.event("e") is dropped
        assert dropped.complete("x", start=0.0, end=1.0) is dropped
        assert dropped.finish(at=9.0) is dropped
        # A child begun under the null parent is absorbed too (the
        # dataflow receives the null span as its trace parent).
        assert tracer.begin("nested", parent=dropped) is dropped
        assert tracer.complete("nested", parent=dropped) is dropped
        assert [span.name for span in tracer.spans] == ["keep"]

    def test_sample_every_one_records_everything(self):
        tracer = Tracer(sample_every=1)
        for index in range(4):
            tracer.begin("r", at=float(index))
        assert len(tracer.roots) == 4

    def test_rejects_nonpositive_sample_every(self):
        with pytest.raises(ValueError):
            Tracer(sample_every=0)

    def test_tree_shape_is_golden_friendly(self):
        tracer = Tracer()
        root = tracer.begin("race", at=0.0, zebra=1, apple=2)
        root.finish(at=1.0)
        tree = root.tree()
        assert list(tree["attrs"]) == ["apple", "zebra"]  # sorted keys
        assert tree == {
            "name": "race",
            "start": 0.0,
            "end": 1.0,
            "attrs": {"apple": 2, "zebra": 1},
            "children": [],
        }


class TestExports:
    def build(self):
        tracer = Tracer()
        first = tracer.begin("query", at=0.0, strategy="SEMI_JOIN")
        first.child("stage.join", at=1.0).finish(at=2.0)
        first.finish(at=3.0)
        second = tracer.begin("query", at=1.5)
        second.finish(at=2.5)
        return tracer

    def test_chrome_trace_is_valid_and_microsecond(self):
        tracer = self.build()
        document = tracer.to_chrome_trace()
        validate_chrome_trace(document)
        json.dumps(document)  # round-trips
        events = document["traceEvents"]
        assert [event["ph"] for event in events] == ["X"] * 3
        assert events[0]["ts"] == 0.0
        assert events[0]["dur"] == pytest.approx(3_000_000)
        assert events[1]["ts"] == pytest.approx(1_000_000)

    def test_chrome_trace_tracks_per_root(self):
        tracer = self.build()
        events = tracer.to_chrome_trace()["traceEvents"]
        # Root 1 and its child share a track; root 2 gets its own.
        assert events[0]["tid"] == events[1]["tid"]
        assert events[2]["tid"] != events[0]["tid"]

    def test_attrs_coerced_to_json_safe(self):
        tracer = Tracer()
        span = tracer.begin("s", at=0.0, obj=object(), seq=(1, "two", object()))
        span.finish(at=1.0)
        document = tracer.to_chrome_trace()
        json.dumps(document)
        args = document["traceEvents"][0]["args"]
        assert isinstance(args["obj"], str)
        assert args["seq"][0] == 1 and isinstance(args["seq"][2], str)


class TestValidator:
    def test_rejects_missing_keys(self):
        with pytest.raises(ValueError, match="missing required key"):
            validate_chrome_trace({"traceEvents": [{"name": "x", "ph": "X"}]})

    def test_rejects_unknown_phase(self):
        event = {"name": "x", "ph": "Z", "ts": 0, "dur": 0, "pid": 1, "tid": 1}
        with pytest.raises(ValueError, match="unknown phase"):
            validate_chrome_trace({"traceEvents": [event]})

    def test_rejects_negative_duration(self):
        event = {"name": "x", "ph": "X", "ts": 0, "dur": -1, "pid": 1, "tid": 1}
        with pytest.raises(ValueError, match="negative duration"):
            validate_chrome_trace({"traceEvents": [event]})

    def test_rejects_non_object_document(self):
        with pytest.raises(ValueError):
            validate_chrome_trace([])
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": "nope"})


class TestSpanAttrsAndValidation:
    def test_attrs_written_through_the_property_reach_the_tree(self):
        tracer = Tracer()
        span = tracer.begin("s", at=0.0)
        span.attrs["rows"] = 3
        span.attrs["site"] = "n1"
        span.finish(at=1.0)
        assert span.tree()["attrs"] == {"rows": 3, "site": "n1"}

    def test_rejects_an_event_that_is_not_an_object(self):
        with pytest.raises(ValueError, match="is not an object"):
            validate_chrome_trace({"traceEvents": [["X", 0, 1]]})

    def test_rejects_a_non_numeric_timestamp(self):
        event = {"name": "x", "ph": "X", "ts": "0", "dur": 1, "pid": 1, "tid": 1}
        with pytest.raises(ValueError, match="ts must be numeric"):
            validate_chrome_trace({"traceEvents": [event]})

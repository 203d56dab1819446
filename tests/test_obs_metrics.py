"""Tests for the labelled counter registry."""

from repro.obs.metrics import MetricsRegistry


class TestLabelledSeries:
    def test_labels_make_distinct_series(self):
        registry = MetricsRegistry()
        registry.counter("picks", labels={"strategy": "SEMI_JOIN"}).add(2)
        registry.counter("picks", labels={"strategy": "BLOOM_JOIN"}).add(1)
        registry.counter("picks").add(5)
        assert registry.counter("picks", labels={"strategy": "SEMI_JOIN"}).value == 2
        assert registry.counter("picks").value == 5
        assert len(registry.counters) == 3

    def test_label_order_is_canonical(self):
        registry = MetricsRegistry()
        registry.counter("c", labels={"b": "2", "a": "1"}).add(1)
        registry.counter("c", labels={"a": "1", "b": "2"}).add(1)
        assert len(registry.counters) == 1
        (key,) = registry.counters
        assert key == 'c{a="1",b="2"}'

    def test_an_unlabelled_series_is_stored_under_its_bare_name(self):
        registry = MetricsRegistry()
        counter = registry.counter("hybrid.races")
        assert list(registry.counters) == ["hybrid.races"]
        assert counter.name == "hybrid.races"

    def test_empty_labels_are_the_unlabelled_series(self):
        registry = MetricsRegistry()
        registry.counter("c", labels={}).add(2)
        registry.counter("c", labels=None).add(3)
        assert registry.counter("c").value == 5
        assert len(registry.counters) == 1

    def test_label_values_render_as_text(self):
        registry = MetricsRegistry()
        registry.counter("c", labels={"shard": 3, "hot": True}).add(1)
        assert list(registry.counters) == ['c{hot="True",shard="3"}']
        assert registry.counter("c", labels={"shard": "3", "hot": "True"}).value == 1


class TestHandles:
    def test_a_handle_is_the_stored_counter(self):
        """Callers resolve a series once and keep the handle: adding
        through it must show in the registry."""
        registry = MetricsRegistry()
        handle = registry.counter("dataflow.strategy", labels={"strategy": "SEMI_JOIN"})
        handle.add(4)
        assert registry.counters['dataflow.strategy{strategy="SEMI_JOIN"}'] is handle
        assert registry.counter("dataflow.strategy", labels={"strategy": "SEMI_JOIN"}).value == 4

    def test_registries_share_no_counters(self):
        first, second = MetricsRegistry(), MetricsRegistry()
        first.counter("a").add(1)
        assert second.counters == {}
        assert second.counter("a").value == 0

    def test_a_family_sums_by_key_prefix(self):
        """``bench`` totals a labelled family by summing the counters whose
        key starts with its name."""
        registry = MetricsRegistry()
        registry.counter("operator.join.probe_rows", labels={"site": "a"}).add(3)
        registry.counter("operator.join.probe_rows", labels={"site": "b"}).add(4)
        registry.counter("operator.join.build_rows").add(100)
        total = sum(
            counter.value
            for key, counter in registry.counters.items()
            if key.startswith("operator.join.probe_rows")
        )
        assert total == 7

"""Tests for the labelled metrics registry and its exporters."""

import json
import math

import pytest

from repro.obs.metrics import (
    MetricsRegistry,
    sanitize_name,
    split_series_key,
    validate_prometheus,
)


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

    def test_split_series_key_inverts_encoding(self):
        assert split_series_key('c{a="1",b="2"}') == ("c", {"a": "1", "b": "2"})
        assert split_series_key("plain") == ("plain", {})

    def test_gauges_and_histograms_accept_labels(self):
        registry = MetricsRegistry()
        registry.gauge("depth", labels={"site": "3"}).set(7)
        registry.histogram("lat", labels={"op": "join"}).observe(0.5)
        assert registry.gauge("depth", labels={"site": "3"}).value == 7
        assert registry.histogram("lat", labels={"op": "join"}).count == 1

    def test_summary_still_works_through_base_registry(self):
        registry = MetricsRegistry()
        registry.counter("c", labels={"x": "1"}).add(3)
        summary = registry.summary()
        assert summary['c{x="1"}'] == 3


class TestPrometheusExport:
    def test_output_passes_grammar_validator(self):
        registry = MetricsRegistry()
        registry.counter("dataflow.batches", labels={"category": "pier.rehash"}).add(4)
        registry.gauge("sim.events_pending").set(17)
        histogram = registry.histogram("operator.join.seconds", reservoir_size=64)
        for value in (0.1, 0.2, 0.3):
            histogram.observe(value)
        text = registry.to_prometheus()
        validate_prometheus(text)

    def test_counters_get_total_suffix_and_type_line(self):
        registry = MetricsRegistry()
        registry.counter("hybrid.races").add(9)
        text = registry.to_prometheus()
        assert "# TYPE repro_hybrid_races_total counter" in text
        assert "repro_hybrid_races_total 9" in text

    def test_histograms_export_as_summaries(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat")
        histogram.extend([1.0, 2.0, 3.0, 4.0])
        text = registry.to_prometheus(prefix="")
        validate_prometheus(text)
        assert "# TYPE lat summary" in text
        assert 'lat{quantile="0.5"} 2.0' in text
        assert "lat_sum 10.0" in text
        assert "lat_count 4" in text

    def test_empty_histogram_skips_quantiles_but_exports_count(self):
        registry = MetricsRegistry()
        registry.histogram("quiet")
        text = registry.to_prometheus()
        validate_prometheus(text)
        assert "quantile" not in text
        assert "repro_quiet_count 0" in text

    def test_type_line_emitted_once_per_base_name(self):
        registry = MetricsRegistry()
        registry.counter("picks", labels={"s": "A"}).add(1)
        registry.counter("picks", labels={"s": "B"}).add(1)
        text = registry.to_prometheus()
        assert text.count("# TYPE repro_picks_total counter") == 1

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        registry.counter("c", labels={"q": 'say "hi"\nok'}).add(1)
        text = registry.to_prometheus()
        validate_prometheus(text)
        assert r"say \"hi\"\nok" in text

    def test_nan_and_inf_render_validly(self):
        registry = MetricsRegistry()
        registry.gauge("weird").set(math.nan)
        registry.gauge("hot").set(math.inf)
        text = registry.to_prometheus()
        validate_prometheus(text)
        assert "repro_weird NaN" in text
        assert "repro_hot +Inf" in text

    def test_dotted_names_sanitised(self):
        assert sanitize_name("dht.route_cache.hits") == "dht_route_cache_hits"
        assert sanitize_name("9lives") == "_9lives"


class TestJsonExport:
    def test_snapshot_structure(self):
        registry = MetricsRegistry()
        registry.counter("c").add(2)
        registry.gauge("g").set(1.5)
        registry.histogram("h").extend([1.0, 3.0])
        snapshot = registry.to_json()
        json.dumps(snapshot)  # serialisable
        assert snapshot["counters"] == {"c": 2}
        assert snapshot["gauges"] == {"g": 1.5}
        entry = snapshot["histograms"]["h"]
        assert entry["count"] == 2
        assert entry["sum"] == 4.0
        assert entry["mean"] == 2.0
        assert entry["quantiles"]["0.5"] == 1.0

    def test_empty_histogram_has_null_stats(self):
        registry = MetricsRegistry()
        registry.histogram("h")
        entry = registry.to_json()["histograms"]["h"]
        assert entry["count"] == 0
        assert entry["mean"] is None and entry["min"] is None


class TestValidator:
    def test_accepts_real_prometheus_sample(self):
        validate_prometheus(
            "# HELP http_requests_total The total number of HTTP requests.\n"
            "# TYPE http_requests_total counter\n"
            'http_requests_total{method="post",code="200"} 1027 1395066363000\n'
            'http_requests_total{method="post",code="400"}    3 1395066363000\n'
            .replace("}    3", "} 3")
        )

    def test_rejects_bad_sample_line(self):
        with pytest.raises(ValueError, match="malformed sample"):
            validate_prometheus("9bad_name 1\n")
        with pytest.raises(ValueError, match="malformed sample"):
            validate_prometheus("name{unquoted=value} 1\n")
        with pytest.raises(ValueError, match="malformed sample"):
            validate_prometheus("name one\n")

    def test_rejects_bad_comment(self):
        with pytest.raises(ValueError, match="malformed comment"):
            validate_prometheus("# TYPE name mystery\n")


def test_blank_lines_between_families_are_valid():
    validate_prometheus("# TYPE a gauge\na 1\n\n   \n# TYPE b gauge\nb 2\n")

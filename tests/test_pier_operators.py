"""Unit tests for the local physical operators."""

from repro.obs.metrics import MetricsRegistry
from repro.pier.operators import (
    Metered,
    Projection,
    Scan,
    Selection,
    SubstringFilter,
    SymmetricHashJoin,
)

from oracle import nested_loop_join


def rows_of(values):
    return [{"k": value} for value in values]


class TestMetered:
    def test_transparent_passthrough(self):
        registry = MetricsRegistry()
        wrapped = Metered(Scan(rows_of([1, 2, 3])), registry, "scan")
        assert wrapped.rows() == rows_of([1, 2, 3])

    def test_counts_rows_and_samples_latency(self):
        registry = MetricsRegistry()
        Metered(Scan(rows_of(range(10))), registry, "scan").rows()
        assert registry.counter("scan.rows").value == 10
        histogram = registry.histogram("scan.seconds")
        assert histogram.count == 10
        assert histogram.minimum >= 0.0

    def test_labels_make_per_site_series(self):
        registry = MetricsRegistry()
        for site in ("1", "2"):
            Metered(
                Scan(rows_of([1])), registry, "scan", labels={"site": site}
            ).rows()
        assert registry.counter("scan.rows", labels={"site": "1"}).value == 1
        assert registry.counter("scan.rows", labels={"site": "2"}).value == 1

    def test_reservoir_bounds_retention(self):
        registry = MetricsRegistry()
        Metered(
            Scan(rows_of(range(5_000))), registry, "scan", reservoir_size=64
        ).rows()
        histogram = registry.histogram("scan.seconds")
        assert histogram.count == 5_000
        assert len(histogram.samples) == 64

    def test_composes_with_plain_stats_registry(self):
        from repro.sim.stats import StatsRegistry

        registry = StatsRegistry()
        Metered(Scan(rows_of([1, 2])), registry, "scan").rows()
        assert registry.counter("scan.rows").value == 2


class TestScan:
    def test_yields_rows(self):
        assert Scan(rows_of([1, 2])).rows() == rows_of([1, 2])

    def test_len(self):
        assert len(Scan(rows_of([1, 2, 3]))) == 3

    def test_reiterable(self):
        scan = Scan(rows_of([1]))
        assert scan.rows() == scan.rows()


class TestSelection:
    def test_filters(self):
        out = Selection(Scan(rows_of([1, 2, 3])), lambda r: r["k"] > 1).rows()
        assert out == rows_of([2, 3])

    def test_empty_input(self):
        assert Selection(Scan([]), lambda r: True).rows() == []


class TestProjection:
    def test_keeps_columns(self):
        rows = [{"a": 1, "b": 2}]
        assert Projection(Scan(rows), ("a",)).rows() == [{"a": 1}]

    def test_deduplicates(self):
        rows = [{"a": 1, "b": 2}, {"a": 1, "b": 3}]
        assert Projection(Scan(rows), ("a",)).rows() == [{"a": 1}]


class TestSubstringFilter:
    def test_case_insensitive_by_default(self):
        rows = [{"fulltext": "Britney Spears - Toxic.mp3"}]
        assert SubstringFilter(Scan(rows), "fulltext", "TOXIC").rows() == rows

    def test_case_sensitive_option(self):
        rows = [{"fulltext": "Toxic"}]
        out = SubstringFilter(
            Scan(rows), "fulltext", "toxic", case_sensitive=True
        ).rows()
        assert out == []

    def test_no_match(self):
        rows = [{"fulltext": "something"}]
        assert SubstringFilter(Scan(rows), "fulltext", "absent").rows() == []

    def test_chained_filters_conjunctive(self):
        rows = [
            {"fulltext": "britney toxic"},
            {"fulltext": "britney lucky"},
        ]
        op = SubstringFilter(
            SubstringFilter(Scan(rows), "fulltext", "britney"),
            "fulltext",
            "toxic",
        )
        assert op.rows() == [{"fulltext": "britney toxic"}]


class TestHashJoin:
    """Fixed equi-join answers, from the production join and from the
    nested-loop reference the differential tests compare it with."""

    def test_basic_join(self):
        left = [{"id": 1, "l": "a"}]
        right = [{"id": 1, "r": "b"}, {"id": 2, "r": "c"}]
        expected = [{"id": 1, "l": "a", "r": "b"}]
        assert SymmetricHashJoin(Scan(left), Scan(right), "id").rows() == expected
        assert nested_loop_join(left, right, "id") == expected

    def test_duplicate_matches_multiply(self):
        left = [{"id": 1, "l": "a"}, {"id": 1, "l": "b"}]
        right = [{"id": 1, "r": "x"}]
        assert len(SymmetricHashJoin(Scan(left), Scan(right), "id").rows()) == 2
        assert len(nested_loop_join(left, right, "id")) == 2

    def test_empty_sides(self):
        for left, right in (([], rows_of([1])), (rows_of([1]), [])):
            assert SymmetricHashJoin(Scan(left), Scan(right), "k").rows() == []
            assert nested_loop_join(left, right, "k") == []


class TestSymmetricHashJoin:
    def test_same_result_as_nested_loop_reference(self):
        left = [{"id": i, "l": i} for i in range(10)]
        right = [{"id": i, "r": i} for i in range(5, 15)]
        shj = {
            tuple(sorted(row.items()))
            for row in SymmetricHashJoin(Scan(left), Scan(right), "id")
        }
        reference = {
            tuple(sorted(row.items()))
            for row in nested_loop_join(left, right, "id")
        }
        assert shj == reference

    def test_streams_with_unbalanced_inputs(self):
        left = [{"id": 1, "l": "a"}]
        right = [{"id": i, "r": i} for i in range(100)]
        out = SymmetricHashJoin(Scan(left), Scan(right), "id").rows()
        assert len(out) == 1

    def test_peak_table_sizes_tracked(self):
        join = SymmetricHashJoin(
            Scan(rows_of(range(10))), Scan(rows_of(range(10))), "k"
        )
        join.rows()
        assert join.peak_left_table == 10
        assert join.peak_right_table == 10

    def test_duplicate_join_keys(self):
        left = [{"id": 1, "l": "a"}, {"id": 1, "l": "b"}]
        right = [{"id": 1, "r": "x"}, {"id": 1, "r": "y"}]
        assert len(SymmetricHashJoin(Scan(left), Scan(right), "id").rows()) == 4

"""Unit tests for the local physical operators."""

from repro.pier.operators import Scan, SubstringFilter, SymmetricHashJoin

from oracle import nested_loop_join


def rows_of(values):
    return [{"k": value} for value in values]


def join_size(left, right):
    """Matches completed when ``right`` is built and ``left`` probes it —
    and, a symmetric join giving both the same, the other way round."""

    def probe(build_side, build, probe_side, keys):
        join = SymmetricHashJoin(column="k")
        join.insert_keys(build_side, build)
        return sum(join.insert_keys(probe_side, keys))

    size = probe("right", right, "left", left)
    assert size == probe("left", left, "right", right)
    return size


class TestScan:
    def test_yields_rows(self):
        assert Scan(rows_of([1, 2])).rows() == rows_of([1, 2])

    def test_len(self):
        assert len(Scan(rows_of([1, 2, 3]))) == 3

    def test_reiterable(self):
        scan = Scan(rows_of([1]))
        assert scan.rows() == scan.rows()


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
    """Fixed equi-join sizes, from the production join on key multisets
    and from the nested-loop reference the differential tests compare it
    with."""

    def test_basic_join(self):
        left, right = [1], [1, 2]
        assert join_size(left, right) == 1
        assert nested_loop_join(rows_of(left), rows_of(right), "k") == [{"k": 1}]

    def test_duplicate_matches_multiply(self):
        left, right = [1, 1], [1]
        assert join_size(left, right) == 2
        assert len(nested_loop_join(rows_of(left), rows_of(right), "k")) == 2

    def test_empty_sides(self):
        for left, right in (([], [1]), ([1], [])):
            assert join_size(left, right) == 0
            assert nested_loop_join(rows_of(left), rows_of(right), "k") == []


class TestSymmetricHashJoin:
    def test_same_result_as_nested_loop_reference(self):
        left, right = list(range(10)), list(range(5, 15))
        join = SymmetricHashJoin(column="k")
        join.insert_keys("right", right)
        matched = [
            key for key, count in zip(left, join.insert_keys("left", left)) if count
        ]
        reference = nested_loop_join(rows_of(left), rows_of(right), "k")
        assert rows_of(matched) == reference

    def test_streams_with_unbalanced_inputs(self):
        assert join_size([1], list(range(100))) == 1

    def test_peak_table_sizes_tracked(self):
        join = SymmetricHashJoin(column="k")
        join.insert_keys("left", range(10))
        join.insert_keys("right", range(10))
        assert join.peak_left_table == 10
        assert join.peak_right_table == 10

    def test_duplicate_join_keys(self):
        assert join_size([1, 1], [1, 1]) == 4

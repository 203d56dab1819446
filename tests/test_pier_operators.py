"""Unit tests for the local physical operators."""

from zlib import crc32

from hypothesis import given, strategies as st

from repro.pier import operators
from repro.pier.operators import JoinProbe, StoredHashJoin, SubstringFilter

from oracle import nested_loop_join


def rows_of(values):
    return [{"k": value} for value in values]


def join_size(left, right):
    """Arriving ``left`` keys the site built on ``right`` keeps — the rows
    of the nested-loop join of ``left`` with ``right``'s distinct keys."""
    return len(JoinProbe(StoredHashJoin(right)).probe(left))


class TestSubstringFilter:
    """The filter reads a plain row list, as the InvertedCache stage
    hands it the rows its site scanned."""

    def test_case_insensitive_by_default(self):
        rows = [{"fulltext": "Britney Spears - Toxic.mp3"}]
        assert SubstringFilter(rows, "fulltext", "TOXIC").rows() == rows

    def test_case_sensitive_option(self):
        rows = [{"fulltext": "Toxic"}]
        out = SubstringFilter(rows, "fulltext", "toxic", case_sensitive=True).rows()
        assert out == []

    def test_no_match(self):
        rows = [{"fulltext": "something"}]
        assert SubstringFilter(rows, "fulltext", "absent").rows() == []

    def test_empty_row_list(self):
        assert SubstringFilter([], "fulltext", "toxic").rows() == []

    def test_keeps_matching_rows_in_order(self):
        rows = [
            {"fulltext": "b toxic", "fileID": "2"},
            {"fulltext": "lucky", "fileID": "3"},
            {"fulltext": "a TOXIC", "fileID": "1"},
        ]
        out = SubstringFilter(rows, "fulltext", "toxic").rows()
        assert [row["fileID"] for row in out] == ["2", "1"]

    def test_reads_its_row_list_again_on_each_pass(self):
        rows = [{"fulltext": "toxic"}, {"fulltext": "lucky"}]
        op = SubstringFilter(rows, "fulltext", "toxic")
        assert op.rows() == op.rows() == [{"fulltext": "toxic"}]

    def test_matches_a_non_string_column_by_its_text(self):
        rows = [{"fulltext": 2004}, {"fulltext": 1999}]
        assert SubstringFilter(rows, "fulltext", "200").rows() == [{"fulltext": 2004}]

    def test_chained_filters_conjunctive(self):
        rows = [
            {"fulltext": "britney toxic"},
            {"fulltext": "britney lucky"},
        ]
        op = SubstringFilter(
            SubstringFilter(rows, "fulltext", "britney"),
            "fulltext",
            "toxic",
        )
        assert op.rows() == [{"fulltext": "britney toxic"}]

    @given(
        texts=st.lists(st.text(alphabet="abAB ", max_size=6), max_size=12),
        needle=st.text(alphabet="abAB", min_size=1, max_size=3),
    )
    def test_equals_a_case_folded_substring_scan(self, texts, needle):
        rows = [{"fulltext": text} for text in texts]
        expected = [row for row in rows if needle.lower() in row["fulltext"].lower()]
        assert SubstringFilter(rows, "fulltext", needle).rows() == expected


class TestHashJoin:
    """Fixed equi-join sizes, from the production join and from the
    nested-loop reference the differential tests compare it with."""

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


class TestStoredHashJoin:
    def test_same_result_as_nested_loop_reference(self):
        left, right = list(range(10)), list(range(5, 15))
        matched = JoinProbe(StoredHashJoin(right)).probe(left)
        reference = nested_loop_join(rows_of(left), rows_of(right), "k")
        assert rows_of(matched) == reference

    def test_streams_with_unbalanced_inputs(self):
        assert join_size([1], list(range(100))) == 1
        assert join_size(list(range(100)), [1]) == 1

    def test_duplicate_stored_keys_match_once(self):
        """A stage forwards the key of a match, so a key stored twice
        keeps an arrival once: the semi-join, not the product."""
        assert join_size([1, 1], [1, 1]) == 2

    def test_probes_are_independent_calls(self):
        site = JoinProbe(StoredHashJoin([1, 2, 3]))
        assert site.probe([3, 4]) == [3]
        assert site.probe([1, 3]) == [1, 3]

    def test_an_int_and_its_string_form_are_different_keys(self):
        """Keys match by equality, never by their printed form — also when
        the budget has evicted the partitions they land in."""
        for budget in (None, 1):
            site = JoinProbe(StoredHashJoin([1, "2"], memory_budget=budget))
            assert site.probe(["1", 2, 1, "2"]) == [1, "2"]


def test_partition_ids_hold_after_the_memo_is_cleared(monkeypatch):
    """The per-fan-out memo is bounded: when it fills it is dropped, and
    every key still lands in the partition its CRC32 names."""
    monkeypatch.setattr(operators, "_partition_memos", {})
    monkeypatch.setattr(operators, "_PARTITION_MEMO_MAX", 4)
    keys = [f"file{index:02d}" for index in range(10)]
    expected = [crc32(key.encode()) % 8 for key in keys]
    assert [operators.spill_partition(key, 8) for key in keys] == expected
    assert len(operators._partition_memos[8]) <= 4
    assert [operators.spill_partition(key, 8) for key in keys] == expected

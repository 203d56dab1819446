"""Unit tests for the compact batch-row representation."""

import pytest

from repro.pier.operators import SpillSink, SymmetricHashJoin
from repro.pier.rows import RowBatch


class TestRowBatch:
    def test_single_column_roundtrip(self):
        batch = RowBatch(("fileID",), [("a",), ("b",), ("c",)])
        assert len(batch) == 3
        assert batch.columns == ("fileID",)
        assert batch.column("fileID") == ["a", "b", "c"]
        assert batch.to_rows() == [{"fileID": "a"}, {"fileID": "b"}, {"fileID": "c"}]

    def test_from_rows_packs_in_schema_order(self):
        rows = [{"keyword": "k", "fileID": "f1"}, {"keyword": "k", "fileID": "f2"}]
        batch = RowBatch.from_rows(("fileID", "keyword"), rows)
        assert batch.values == [("f1", "k"), ("f2", "k")]
        assert batch.column("keyword") == ["k", "k"]
        assert batch.to_rows() == [
            {"fileID": "f1", "keyword": "k"},
            {"fileID": "f2", "keyword": "k"},
        ]

    def test_iteration_yields_value_tuples(self):
        batch = RowBatch(("fileID",), [("x",), ("y",)])
        assert [key for (key,) in batch] == ["x", "y"]

    def test_unknown_column_raises(self):
        batch = RowBatch(("fileID",), [("x",)])
        with pytest.raises(ValueError):
            batch.column("missing")

    def test_empty_batch(self):
        batch = RowBatch(("fileID",), [])
        assert len(batch) == 0
        assert not batch.to_rows()


class TestKeyOnlyJoin:
    def test_key_inserts_count_matches_symmetrically(self):
        shj = SymmetricHashJoin(column="k")
        assert shj.insert_left_key("a") == 0
        assert shj.insert_right_key("a") == 1
        assert shj.insert_right_key("a") == 1
        assert shj.insert_left_key("a") == 2  # both right copies match
        assert shj.insert_left_key("b") == 0

    def test_key_mode_spills_and_reads_back(self):
        shj = SymmetricHashJoin(column="k", memory_budget=2, spill_sink=SpillSink("k"))
        for key in ("a", "b", "c"):
            shj.insert_right_key(key)
        assert shj.spilled_rows > 0
        # Probes still see spilled right-side keys, exactly once each.
        assert shj.insert_left_key("a") == 1
        assert shj.insert_left_key("c") == 1
        assert shj.insert_left_key("zz") == 0
        assert shj.spill_reads > 0

    def test_peaks_track_in_memory_rows_in_key_mode(self):
        shj = SymmetricHashJoin(column="k")
        for index in range(5):
            shj.insert_right_key(index)
        shj.insert_left_key(0)
        assert shj.peak_right_table == 5
        assert shj.peak_left_table == 1

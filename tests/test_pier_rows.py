"""Unit tests for the compact batch-row representation and the key-only
join a stage runs over its keys."""

import pytest

from repro.pier.operators import JoinProbe, StoredHashJoin
from repro.pier.rows import RowBatch


class TestRowBatch:
    def test_single_column_roundtrip(self):
        batch = RowBatch(("fileID",), [("a",), ("b",), ("c",)])
        assert len(batch) == 3
        assert batch.columns == ("fileID",)
        assert batch.column("fileID") == ["a", "b", "c"]
        assert batch.to_rows() == [{"fileID": "a"}, {"fileID": "b"}, {"fileID": "c"}]

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
    """A join site works on bare keys: it builds on its list's keys and a
    probe returns the arriving keys it holds, no row dict on either side."""

    def test_key_mode_spills_and_reads_back(self):
        join = JoinProbe(StoredHashJoin(["a", "b", "c"], memory_budget=2))
        assert join.build.partition_evictions > 0
        # Probes still see evicted keys, each kept once.
        assert join.probe(["a", "c", "zz", "a"]) == ["a", "c", "a"]
        assert join.reads > 0

    def test_peaks_track_in_memory_rows_in_key_mode(self):
        """The build is the site's whole list, held once: its resident
        rows are the peak, and a probe never adds to them."""
        free = StoredHashJoin(list(range(5)))
        JoinProbe(free).probe([0, 7])
        assert free.resident_rows == 5
        tight = StoredHashJoin(list(range(5)), memory_budget=2, num_partitions=5)
        JoinProbe(tight).probe(list(range(10)))
        assert tight.resident_rows <= 2
        assert tight.resident_rows + sum(tight.evicted.values()) == 5

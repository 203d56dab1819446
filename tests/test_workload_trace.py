"""Tests for trace records and persistence."""

import math

from repro.workload.trace import (
    QueryObservation,
    TraceBundle,
    load_trace,
    save_trace,
)


def observation(query_id=0, single=5, union=9, latency=12.5):
    return QueryObservation(
        query_id=query_id,
        terms=("alpha", "beta"),
        results_single=single,
        results_union=union,
        distinct_single=min(single, 3),
        distinct_union=min(union, 4),
        average_replication=1.5,
        first_result_latency=latency,
    )


class TestTraceBundle:
    def test_num_queries(self):
        bundle = TraceBundle(observations=[observation(0), observation(1)])
        assert bundle.num_queries == 2


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        bundle = TraceBundle(
            replica_distribution={"a.mp3": 3, "b.mp3": 1},
            observations=[observation(0), observation(1, single=0)],
            metadata={"seed": 42, "scale": "small"},
        )
        path = tmp_path / "bundle.json"
        save_trace(bundle, path)
        loaded = load_trace(path)
        assert loaded.replica_distribution == bundle.replica_distribution
        assert loaded.observations == bundle.observations
        assert loaded.metadata == bundle.metadata

    def test_terms_roundtrip_as_tuples(self, tmp_path):
        bundle = TraceBundle(observations=[observation()])
        path = tmp_path / "bundle.json"
        save_trace(bundle, path)
        loaded = load_trace(path)
        assert isinstance(loaded.observations[0].terms, tuple)

    def test_infinite_latency_roundtrip(self, tmp_path):
        bundle = TraceBundle(observations=[observation(latency=math.inf)])
        path = tmp_path / "bundle.json"
        save_trace(bundle, path)
        loaded = load_trace(path)
        assert math.isinf(loaded.observations[0].first_result_latency)

    def test_missing_metadata_defaults(self, tmp_path):
        path = tmp_path / "bundle.json"
        path.write_text('{"replica_distribution": {}, "observations": []}')
        loaded = load_trace(path)
        assert loaded.metadata == {}

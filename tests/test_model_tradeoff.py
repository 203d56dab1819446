"""Tests for the trace-driven recall/overhead model."""

import pytest

from repro.model.analytical import SystemParameters, pf_gnutella
from repro.model.tradeoff import (
    QueryMatches,
    TraceModel,
    average_qdr,
    average_qr,
    publishing_fraction,
)


@pytest.fixture()
def params():
    return SystemParameters(n=1_000, n_horizon=100)


def make_queries():
    return [
        QueryMatches(query_id=0, matches={"rare": 1}),
        QueryMatches(query_id=1, matches={"popular": 100}),
        QueryMatches(query_id=2, matches={"rare": 1, "popular": 100}),
    ]


class TestPublishingFraction:
    def test_basic(self):
        replication = {"a": 1, "b": 2, "c": 5}
        assert publishing_fraction(replication, {"a", "b"}) == pytest.approx(2 / 3)

    def test_ignores_unknown_published_names(self):
        assert publishing_fraction({"a": 1}, {"zzz"}) == 0.0

    def test_empty_replication(self):
        assert publishing_fraction({}, {"a"}) == 0.0


class TestAverageQr:
    def test_no_publishing_equals_horizon(self):
        queries = make_queries()
        assert average_qr(queries, set(), 0.1) == pytest.approx(0.1)

    def test_full_publishing_is_perfect(self):
        queries = make_queries()
        assert average_qr(queries, {"rare", "popular"}, 0.1) == pytest.approx(1.0)

    def test_union_policy_gain_proportional_to_replica_share(self):
        queries = [QueryMatches(0, {"rare": 1, "popular": 99})]
        qr = average_qr(queries, {"rare"}, 0.1)
        assert qr == pytest.approx(0.1 + 0.9 * 0.01)

    def test_skips_empty_queries(self):
        queries = [QueryMatches(0, {}), QueryMatches(1, {"rare": 1})]
        assert average_qr(queries, {"rare"}, 0.1) == pytest.approx(1.0)

    def test_rejects_bad_horizon(self):
        with pytest.raises(ValueError):
            average_qr([], set(), 1.5)


class TestAverageQdr:
    def test_matches_equation_one(self, params):
        queries = [QueryMatches(0, {"rare": 1, "popular": 100})]
        expected = (1.0 + pf_gnutella(100, params)) / 2
        assert average_qdr(queries, {"rare"}, params) == pytest.approx(expected)

    def test_publishing_popular_item_adds_little(self, params):
        queries = [QueryMatches(0, {"popular": 500})]
        nothing = average_qdr(queries, set(), params)
        published = average_qdr(queries, {"popular"}, params)
        assert published == 1.0
        assert nothing > 0.99  # flooding already finds it

    def test_publishing_rare_item_adds_much(self, params):
        queries = [QueryMatches(0, {"rare": 1})]
        nothing = average_qdr(queries, set(), params)
        published = average_qdr(queries, {"rare"}, params)
        assert published - nothing > 0.8


class TestTraceModel:
    def make_model(self, params):
        replication = {"rare": 1, "mid": 3, "popular": 100}
        queries = [
            QueryMatches(0, {"rare": 1}),
            QueryMatches(1, {"mid": 3, "popular": 100}),
        ]
        return TraceModel(replication, queries, params)

    def test_perfect_published(self, params):
        model = self.make_model(params)
        assert model.perfect_published(1) == {"rare"}
        assert model.perfect_published(3) == {"rare", "mid"}
        assert model.perfect_published(0) == set()

    def test_sweep_shape(self, params):
        model = self.make_model(params)
        sweeps = model.sweep_thresholds([0, 1, 3], [0.05, 0.30])
        assert set(sweeps) == {0.05, 0.30}
        rows = sweeps[0.05]
        assert [row[0] for row in rows] == [0, 1, 3]
        # publishing fraction and recalls monotone in threshold
        assert [row[1] for row in rows] == sorted(row[1] for row in rows)
        assert [row[2] for row in rows] == sorted(row[2] for row in rows)
        assert [row[3] for row in rows] == sorted(row[3] for row in rows)

    def test_sweep_threshold_zero_recall_is_horizon(self, params):
        model = self.make_model(params)
        sweeps = model.sweep_thresholds([0], [0.05])
        assert sweeps[0.05][0][2] == pytest.approx(0.05)

"""Tests for query workload generation."""

import random

import pytest

from repro.common.errors import WorkloadError
from repro.workload.library import CatalogItem, ContentLibrary
from repro.workload.queries import QueryWorkload, _query_for_item, generate_workload


@pytest.fixture(scope="module")
def library():
    return ContentLibrary.generate(
        num_items=300, vocabulary_size=400, max_replicas=40, rng=91
    )


class TestGenerateWorkload:
    def test_count(self, library):
        workload = generate_workload(library, 100, rng=92)
        assert len(workload) == 100

    def test_terms_come_from_target(self, library):
        workload = generate_workload(library, 100, rng=93)
        for query in workload:
            if not query.target_filename:
                continue  # a miss query
            target = query.target_filename.lower()
            for term in query.terms:
                assert term in target

    def test_miss_queries_present(self, library):
        workload = generate_workload(library, 300, rng=94)
        misses = [q for q in workload if q.target_filename == ""]
        assert 5 <= len(misses) <= 40  # MISS_FRACTION of 300 is 18

    def test_miss_queries_match_nothing(self, library):
        workload = generate_workload(library, 200, rng=95)
        names = [item.filename.lower() for item in library.items]
        for query in workload:
            if query.target_filename:
                continue
            assert not any(
                all(t in name for t in query.terms) for name in names
            )

    def test_family_queries_use_family_terms(self, library):
        workload = generate_workload(library, 200, rare_boost=1.0, rng=96)
        family_terms = {item.family_terms for item in library.family_items}
        family_queries = [q for q in workload if q.terms in family_terms]
        hits = [q for q in workload if q.target_filename]
        assert len(family_queries) == len(hits) > 150

    def test_max_terms_respected(self, library):
        workload = generate_workload(
            library, 100, rare_boost=0.0, max_terms=2, rng=97
        )
        assert all(len(q.terms) <= 2 for q in workload)

    def test_rejects_bad_arguments(self, library):
        with pytest.raises(WorkloadError):
            generate_workload(library, 0)
        with pytest.raises(WorkloadError):
            generate_workload(library, 10, rare_boost=2.0)

    def test_deterministic_given_seed(self, library):
        a = generate_workload(library, 50, rng=98)
        b = generate_workload(library, 50, rng=98)
        assert [q.terms for q in a] == [q.terms for q in b]

    def test_distinct_terms_helper(self, library):
        workload = generate_workload(library, 50, rng=99)
        terms = workload.distinct_terms()
        assert terms == {t for q in workload for t in q.terms}

    def test_query_str(self, library):
        workload = generate_workload(library, 5, rng=100)
        query = workload.queries[0]
        assert str(query) == " ".join(query.terms)


def test_an_item_without_keywords_cannot_be_queried():
    item = CatalogItem(index=0, filename="the of - mp3.mp3", filesize=1, replication=1)
    with pytest.raises(WorkloadError, match="no indexable keywords"):
        _query_for_item(0, item, max_terms=3, rng=random.Random(1))

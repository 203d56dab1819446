"""Tests for vocabulary and filename generation."""

import pytest

from repro.piersearch.tokenizer import extract_keywords
from repro.workload import filenames
from repro.workload.filenames import FilenameGenerator, Vocabulary


@pytest.fixture(scope="module")
def vocabulary():
    return Vocabulary(500, rng=71)


class TestVocabulary:
    def test_size(self, vocabulary):
        assert len(vocabulary) == 500

    def test_terms_distinct(self, vocabulary):
        assert len(set(vocabulary.terms)) == 500

    def test_rejects_tiny_vocabulary(self):
        with pytest.raises(ValueError):
            Vocabulary(5)

    def test_sample_term_skews_popular(self, vocabulary):
        draws = [vocabulary.sample_term() for _ in range(3000)]
        top = vocabulary.terms[0]
        bottom = vocabulary.terms[-1]
        assert draws.count(top) > draws.count(bottom)

    def test_sample_terms_distinct(self, vocabulary):
        terms = vocabulary.sample_terms(10)
        assert len(set(terms)) == 10

    def test_sample_terms_rejects_too_many(self, vocabulary):
        with pytest.raises(ValueError):
            vocabulary.sample_terms(501)

    def test_sample_tail_terms_avoid_head(self, vocabulary):
        head = set(vocabulary.terms[:125])
        for _ in range(50):
            for term in vocabulary.sample_tail_terms(2):
                assert term not in head

    def test_deterministic_given_seed(self):
        assert Vocabulary(100, rng=5).terms == Vocabulary(100, rng=5).terms


class TestFilenameGenerator:
    def test_unique_filenames(self, vocabulary):
        generator = FilenameGenerator(vocabulary, rng=72)
        names = [generator.generate() for _ in range(500)]
        assert len(set(names)) == 500

    def test_has_extension(self, vocabulary):
        generator = FilenameGenerator(vocabulary, rng=72)
        name = generator.generate()
        assert "." in name

    def test_term_count_in_bounds(self, vocabulary):
        generator = FilenameGenerator(vocabulary, rng=73)
        for _ in range(100):
            keywords = extract_keywords(generator.generate())
            assert 2 <= len(keywords) <= 6

    def test_generate_with_prefix(self, vocabulary):
        generator = FilenameGenerator(vocabulary, rng=74)
        name = generator.generate_with_prefix(["alpha", "beta"], extra_terms=2)
        assert name.startswith("alpha beta - ")

    def test_prefix_names_unique(self, vocabulary):
        generator = FilenameGenerator(vocabulary, rng=74)
        names = {
            generator.generate_with_prefix(["alpha", "beta"]) for _ in range(50)
        }
        assert len(names) == 50


class TestExhaustion:
    def test_too_many_tail_terms_rejected(self):
        vocabulary = Vocabulary(10, rng=1)
        with pytest.raises(ValueError, match="tail terms"):
            vocabulary.sample_tail_terms(9)  # the tail past a 25 % head is 8

    def test_a_tiny_vocabulary_runs_out_of_names(self, monkeypatch):
        monkeypatch.setattr(filenames, "MIN_TERMS", 1)
        monkeypatch.setattr(filenames, "MAX_TERMS", 1)
        generator = FilenameGenerator(Vocabulary(10, rng=1), rng=2)
        with pytest.raises(RuntimeError, match="vocabulary too small"):
            for _ in range(200):
                generator.generate()

    def test_a_prefix_family_runs_out_of_names(self):
        generator = FilenameGenerator(Vocabulary(10, rng=1), rng=2)
        with pytest.raises(RuntimeError, match="vocabulary too small"):
            for _ in range(200):
                generator.generate_with_prefix(["darel"], extra_terms=1)

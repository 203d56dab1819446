"""Tests for the rare-item identification schemes."""

import math

import pytest

from repro.hybrid.rare_items import (
    PerfectScheme,
    RandomScheme,
    SamplingScheme,
    TermFrequencyScheme,
    TermPairFrequencyScheme,
    published_for_budget,
)

REPLICATION = {
    "alpha beta - gamma.mp3": 1,
    "alpha beta - delta.mp3": 1,
    "epsilon zeta - eta.mp3": 2,
    "theta iota - kappa.mp3": 40,
    "theta iota - lamda.mp3": 60,
}
FILENAMES = list(REPLICATION)


class TestPerfectScheme:
    def test_scores_are_true_replication(self):
        scores = PerfectScheme(REPLICATION).rarity_scores(FILENAMES)
        assert scores["alpha beta - gamma.mp3"] == 1.0
        assert scores["theta iota - lamda.mp3"] == 60.0


class TestRandomScheme:
    def test_scores_in_unit_interval(self):
        scores = RandomScheme(rng=1).rarity_scores(FILENAMES)
        assert all(0 <= s <= 1 for s in scores.values())

    def test_deterministic_given_seed(self):
        assert RandomScheme(rng=2).rarity_scores(FILENAMES) == RandomScheme(
            rng=2
        ).rarity_scores(FILENAMES)


class TestTermFrequencyScheme:
    def test_rare_term_gives_low_score(self):
        scheme = TermFrequencyScheme()
        scheme.observe_corpus(REPLICATION)
        scores = scheme.rarity_scores(FILENAMES)
        assert scores["alpha beta - gamma.mp3"] < scores["theta iota - kappa.mp3"]

    def test_a_filename_of_stop_words_gets_no_score(self):
        scheme = TermFrequencyScheme()
        scheme.observe_corpus(REPLICATION)
        scores = scheme.rarity_scores(["the of.mp3", "alpha beta - gamma.mp3"])
        assert list(scores) == ["alpha beta - gamma.mp3"]

    def test_weighting_by_replicas(self):
        scheme = TermFrequencyScheme()
        scheme.observe_filename("solo track.mp3", weight=10)
        assert scheme.term_counts["solo"] == 10

    def test_distinct_terms_counted(self):
        scheme = TermFrequencyScheme()
        scheme.observe_corpus(REPLICATION)
        assert scheme.distinct_terms > 5

    def test_popular_keyword_masks_rare_item(self):
        """The TF weakness the paper notes: a rare item sharing a popular
        keyword everywhere gets a popular-looking minimum."""
        scheme = TermFrequencyScheme()
        scheme.observe_filename("common hit.mp3", weight=100)
        scheme.observe_filename("common rareword.mp3", weight=1)
        scores = scheme.rarity_scores(["common rareword.mp3"])
        # min() picks rareword, so TF still catches this one...
        assert scores["common rareword.mp3"] == 1.0
        # ...but an item whose terms are all individually popular hides:
        scheme.observe_filename("common hit remix.mp3", weight=1)
        scores = scheme.rarity_scores(["common hit remix.mp3"])
        assert scores["common hit remix.mp3"] > 1.0


class TestTermPairFrequencyScheme:
    def test_pairs_resist_popular_keywords(self):
        scheme = TermPairFrequencyScheme()
        scheme.observe_filename("common hit.mp3", weight=100)
        scheme.observe_filename("common rare.mp3", weight=1)
        scores = scheme.rarity_scores(["common rare.mp3"])
        assert scores["common rare.mp3"] == 1.0

    def test_single_term_filenames_unscored(self):
        scheme = TermPairFrequencyScheme()
        scheme.observe_filename("solo.mp3")
        assert "solo.mp3" not in scheme.rarity_scores(["solo.mp3"])

    def test_distinct_pairs_counted(self):
        scheme = TermPairFrequencyScheme()
        scheme.observe_corpus(REPLICATION)
        assert scheme.distinct_pairs > 0

    def test_only_adjacent_pairs_kept(self):
        scheme = TermPairFrequencyScheme()
        scheme.observe_filename("one two three.mp3")
        assert ("one", "two") in scheme.pair_counts
        assert ("one", "three") not in scheme.pair_counts


class TestSamplingScheme:
    def test_full_sample_equals_perfect(self):
        sam = SamplingScheme(REPLICATION, 1.0, rng=3)
        perfect = PerfectScheme(REPLICATION)
        assert sam.rarity_scores(FILENAMES) == perfect.rarity_scores(FILENAMES)

    def test_zero_sample_sees_nothing(self):
        sam = SamplingScheme(REPLICATION, 0.0, rng=3)
        assert all(s == 0.0 for s in sam.rarity_scores(FILENAMES).values())

    def test_estimate_is_lower_bound(self):
        sam = SamplingScheme(REPLICATION, 0.5, rng=4)
        scores = sam.rarity_scores(FILENAMES)
        for name, score in scores.items():
            assert score <= REPLICATION[name]

    def test_name_includes_rate(self):
        assert SamplingScheme(REPLICATION, 0.15).name == "SAM(15%)"

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            SamplingScheme(REPLICATION, 1.5)


class TestPublishedForBudget:
    def test_budget_count(self):
        scores = PerfectScheme(REPLICATION).rarity_scores(FILENAMES)
        published = published_for_budget(scores, FILENAMES, 0.4, rng=5)
        assert len(published) == 2

    def test_budget_zero_and_one(self):
        scores = PerfectScheme(REPLICATION).rarity_scores(FILENAMES)
        assert published_for_budget(scores, FILENAMES, 0.0, rng=5) == set()
        assert published_for_budget(scores, FILENAMES, 1.0, rng=5) == set(FILENAMES)

    def test_lowest_scores_first(self):
        scores = PerfectScheme(REPLICATION).rarity_scores(FILENAMES)
        published = published_for_budget(scores, FILENAMES, 0.4, rng=5)
        assert published == {"alpha beta - gamma.mp3", "alpha beta - delta.mp3"}

    def test_unscored_items_last(self):
        scores = {"a": 1.0}
        published = published_for_budget(scores, ["a", "b", "c"], 1 / 3, rng=6)
        assert published == {"a"}

    def test_rejects_bad_budget(self):
        with pytest.raises(ValueError):
            published_for_budget({}, [], 1.5)

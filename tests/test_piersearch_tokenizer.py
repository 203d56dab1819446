"""Unit tests for tokenization, stop words and matching."""

from repro.piersearch.tokenizer import (
    STOP_WORDS,
    extract_keywords,
    tokenize,
)


class TestTokenize:
    def test_lowercases(self):
        assert tokenize("Britney SPEARS") == ["britney", "spears"]

    def test_splits_on_punctuation(self):
        assert tokenize("a-b_c.d") == ["a", "b", "c", "d"]

    def test_keeps_digits(self):
        assert tokenize("track 03") == ["track", "03"]

    def test_empty_string(self):
        assert tokenize("") == []


class TestExtractKeywords:
    def test_drops_stop_words(self):
        assert "mp3" not in extract_keywords("song of the year.mp3")
        assert "the" not in extract_keywords("song of the year.mp3")

    def test_drops_single_characters(self):
        assert extract_keywords("a b cd") == ["cd"]

    def test_preserves_order_and_dedupes(self):
        assert extract_keywords("toxic britney toxic") == ["toxic", "britney"]

    def test_typical_filename(self):
        keywords = extract_keywords("Britney Spears - Toxic.mp3")
        assert keywords == ["britney", "spears", "toxic"]

    def test_all_stopwords_yields_empty(self):
        assert extract_keywords("the of and.mp3") == []


class TestStopWords:
    def test_filesharing_specific_words_present(self):
        assert "mp3" in STOP_WORDS
        assert "the" in STOP_WORDS

    def test_frozen(self):
        assert isinstance(STOP_WORDS, frozenset)

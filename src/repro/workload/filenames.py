"""Term vocabulary and filename synthesis.

Filenames in filesharing networks are short (a handful of terms) and term
frequencies are heavily skewed: the paper's trace had 38,900 distinct
terms and 193,104 distinct adjacent term pairs over hundreds of thousands
of files, with popular keywords (artist names) appearing in thousands of
filenames. We synthesise pronounceable pseudo-words so generated names
look like ``"darel montia - klorena velid.mp3"``, draw terms Zipf-skewed,
and build filenames of 2-6 indexable terms.
"""

from __future__ import annotations

import random

from repro.common.rng import make_rng
from repro.common.zipf import ZipfSampler

_ONSETS = ["b", "br", "d", "dr", "f", "g", "gr", "k", "kl", "l", "m", "n", "p",
           "pr", "r", "s", "st", "t", "tr", "v", "z", "sh", "ch"]
_VOWELS = ["a", "e", "i", "o", "u", "ai", "ea", "io"]
_CODAS = ["", "", "l", "n", "r", "s", "t", "d", "m"]

_EXTENSIONS = [".mp3", ".avi", ".mpg", ".zip", ".ogg"]


def _pseudo_word(rng: random.Random) -> str:
    """A pronounceable 2-3 syllable pseudo-word."""
    syllables = rng.randint(2, 3)
    parts = []
    for _ in range(syllables):
        parts.append(rng.choice(_ONSETS) + rng.choice(_VOWELS) + rng.choice(_CODAS))
    return "".join(parts)


class Vocabulary:
    """A fixed set of distinct terms with Zipf-skewed draw frequencies."""

    def __init__(self, size: int, alpha: float = 1.0, rng: random.Random | int | None = None):
        if size < 10:
            raise ValueError(f"vocabulary needs >= 10 terms, got {size}")
        self.rng = make_rng(rng)
        self.alpha = alpha
        terms: list[str] = []
        seen: set[str] = set()
        while len(terms) < size:
            word = _pseudo_word(self.rng)
            if word in seen or len(word) < 3:
                continue
            seen.add(word)
            terms.append(word)
        self.terms = terms
        self._sampler = ZipfSampler(size, alpha, rng=self.rng)

    def __len__(self) -> int:
        return len(self.terms)

    def sample_term(self) -> str:
        """Draw one term with Zipf-skewed probability (rank 1 most likely)."""
        return self.terms[self._sampler.sample() - 1]

    def sample_terms(self, count: int) -> list[str]:
        """Draw ``count`` distinct terms (without replacement)."""
        if count > len(self.terms):
            raise ValueError(f"cannot draw {count} distinct terms from {len(self.terms)}")
        chosen: list[str] = []
        seen: set[str] = set()
        while len(chosen) < count:
            term = self.sample_term()
            if term in seen:
                continue
            seen.add(term)
            chosen.append(term)
        return chosen

    def sample_tail_terms(self, count: int, head_skip: float = 0.25) -> list[str]:
        """Draw ``count`` distinct terms uniformly from the unpopular tail.

        Skips the top ``head_skip`` fraction of ranks. Used to name rare
        content: obscure sources are identified by terms that rarely
        appear elsewhere.
        """
        start = int(len(self.terms) * head_skip)
        pool = self.terms[start:]
        if count > len(pool):
            raise ValueError(f"cannot draw {count} tail terms from {len(pool)}")
        return self.rng.sample(pool, count)


class FilenameGenerator:
    """Builds unique filenames of 2-6 indexable terms over a vocabulary."""

    def __init__(
        self,
        vocabulary: Vocabulary,
        min_terms: int = 2,
        max_terms: int = 6,
        rng: random.Random | int | None = None,
    ):
        if min_terms < 1 or max_terms < min_terms:
            raise ValueError(f"bad term bounds [{min_terms}, {max_terms}]")
        self.vocabulary = vocabulary
        self.min_terms = min_terms
        self.max_terms = max_terms
        self.rng = make_rng(rng)
        self._used: set[str] = set()

    def generate(self) -> str:
        """One unique filename, e.g. ``"darel montia - klorena.mp3"``."""
        for _ in range(1000):
            count = self.rng.randint(self.min_terms, self.max_terms)
            terms = self.vocabulary.sample_terms(count)
            split = max(1, count // 2)
            head = " ".join(terms[:split])
            tail = " ".join(terms[split:])
            name = f"{head} - {tail}" if tail else head
            name += self.rng.choice(_EXTENSIONS)
            if name not in self._used:
                self._used.add(name)
                return name
        raise RuntimeError("could not generate a unique filename; vocabulary too small")

    def generate_with_prefix(self, prefix_terms: list[str], extra_terms: int = 2) -> str:
        """A unique filename starting with ``prefix_terms``.

        Used to build *families* of related items — e.g. several rare
        recordings by the same obscure artist — whose filenames share a
        leading term pair, as real filesharing corpora do.
        """
        for _ in range(1000):
            extras = self.vocabulary.sample_terms(max(1, extra_terms))
            name = " ".join(prefix_terms) + " - " + " ".join(extras)
            name += self.rng.choice(_EXTENSIONS)
            if name not in self._used:
                self._used.add(name)
                return name
        raise RuntimeError("could not generate a unique filename; vocabulary too small")

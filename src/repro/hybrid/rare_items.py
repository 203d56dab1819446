"""Rare-item identification schemes (Section 5).

Each scheme assigns every distinct item a *rarity score* — its local
estimate of how rare the item is (lower = rarer). Publishing with a
threshold then means publishing all items whose score falls at or below
it; publishing with a *budget* (Figures 13-15's x-axis) means publishing
the fraction of items with the lowest scores.

Schemes:

* **Perfect** — oracle: score = true replica count. Upper bound.
* **Random** — score is random noise. Lower bound.
* **TF** (Term Frequency) — score = the item's minimum term frequency,
  over term statistics gathered from observed results traffic.
* **TPF** (Term Pair Frequency) — like TF but over adjacent ordered term
  pairs, which resists popular keywords appearing in rare items.
* **SAM** (Sampling) — score = a lower-bound replica count estimated by
  sampling a fraction of nodes. SAM(100%) equals Perfect and SAM(0%)
  degenerates to Random, exactly as Figure 15's legend indicates.

QRS (Query Results Size), the scheme the Section 7 deployment runs, is
not scored here: it is a publish rule applied to each flood's result set
as it arrives, :meth:`repro.hybrid.ultrapeer.HybridUltrapeer.observe_query_results`.
"""

from __future__ import annotations

import math
import random
from collections import Counter

from repro.common.rng import make_rng
from repro.piersearch.tokenizer import extract_keywords


class RareItemScheme:
    """Interface: map item filenames to rarity scores (lower = rarer)."""

    name = "abstract"

    def rarity_scores(self, filenames: list[str]) -> dict[str, float]:
        raise NotImplementedError


def published_for_budget(
    scores: dict[str, float],
    filenames: list[str],
    budget_fraction: float,
    rng: random.Random | int | None = None,
) -> set[str]:
    """Publish the ``budget_fraction`` of items with the lowest scores.

    Ties (very common: many schemes give integral scores) are broken
    randomly so budget curves are smooth, mirroring the paper's practice
    of tuning each scheme's threshold to hit a target publishing budget.
    Unscored items (score = inf) are only published if the budget exceeds
    the scored population.
    """
    if not 0.0 <= budget_fraction <= 1.0:
        raise ValueError(f"budget must be in [0,1], got {budget_fraction}")
    rng = make_rng(rng)
    count = int(round(budget_fraction * len(filenames)))
    jittered = sorted(
        filenames, key=lambda name: (scores.get(name, math.inf), rng.random())
    )
    return set(jittered[:count])


class PerfectScheme(RareItemScheme):
    """Oracle baseline: knows the true replica count of every item."""

    name = "Perfect"

    def __init__(self, replication: dict[str, int]):
        self.replication = replication

    def rarity_scores(self, filenames: list[str]) -> dict[str, float]:
        return {name: float(self.replication.get(name, 0)) for name in filenames}


class RandomScheme(RareItemScheme):
    """Lower-bound baseline: publishes items irrespective of rarity."""

    name = "Random"

    def __init__(self, rng: random.Random | int | None = None):
        self.rng = make_rng(rng)

    def rarity_scores(self, filenames: list[str]) -> dict[str, float]:
        return {name: self.rng.random() for name in filenames}


class TermFrequencyScheme(RareItemScheme):
    """TF: an item is rare if any of its terms is rare.

    Term statistics come from filenames observed in results traffic —
    each observation is one result occurrence, so popular (highly
    replicated) items contribute proportionally more, as they would to a
    real ultrapeer watching ~30,000 results/hour.
    """

    name = "TF"

    def __init__(self) -> None:
        self.term_counts: Counter[str] = Counter()

    def observe_filename(self, filename: str, weight: int = 1) -> None:
        for term in extract_keywords(filename):
            self.term_counts[term] += weight

    def observe_corpus(self, replication: dict[str, int]) -> None:
        """Bulk-train from a replica distribution (filename -> count)."""
        for filename, replicas in replication.items():
            self.observe_filename(filename, weight=replicas)

    @property
    def distinct_terms(self) -> int:
        return len(self.term_counts)

    def rarity_scores(self, filenames: list[str]) -> dict[str, float]:
        scores: dict[str, float] = {}
        for name in filenames:
            keywords = extract_keywords(name)
            if not keywords:
                continue
            scores[name] = float(min(self.term_counts.get(term, 0) for term in keywords))
        return scores


class TermPairFrequencyScheme(RareItemScheme):
    """TPF: like TF but over ordered adjacent term pairs.

    Individual terms suffer popularity skew (a rare item may contain a
    popular keyword); adjacent pairs are far more selective. Only
    adjacent ordered pairs are kept, as the paper does, to bound memory.
    """

    name = "TPF"

    def __init__(self) -> None:
        self.pair_counts: Counter[tuple[str, str]] = Counter()

    def observe_filename(self, filename: str, weight: int = 1) -> None:
        keywords = extract_keywords(filename)
        for left, right in zip(keywords, keywords[1:]):
            self.pair_counts[(left, right)] += weight

    def observe_corpus(self, replication: dict[str, int]) -> None:
        for filename, replicas in replication.items():
            self.observe_filename(filename, weight=replicas)

    @property
    def distinct_pairs(self) -> int:
        return len(self.pair_counts)

    def rarity_scores(self, filenames: list[str]) -> dict[str, float]:
        scores: dict[str, float] = {}
        for name in filenames:
            keywords = extract_keywords(name)
            pairs = list(zip(keywords, keywords[1:]))
            if not pairs:
                # Single-term filenames have no pairs; fall back to unscored.
                continue
            scores[name] = float(min(self.pair_counts.get(pair, 0) for pair in pairs))
        return scores


class SamplingScheme(RareItemScheme):
    """SAM: estimate replica counts from a node sample.

    Sampling ``fraction`` of nodes sees each replica independently with
    probability ``fraction``, so the observed count is a binomial
    lower-bound estimate of the true count. With fraction 1.0 this is the
    Perfect scheme; with fraction 0.0 every estimate is zero and the
    scheme cannot rank items (Random behaviour under budgeted publishing).
    """

    name = "SAM"

    def __init__(
        self,
        replication: dict[str, int],
        sample_fraction: float,
        rng: random.Random | int | None = None,
    ):
        if not 0.0 <= sample_fraction <= 1.0:
            raise ValueError(f"sample_fraction must be in [0,1], got {sample_fraction}")
        self.replication = replication
        self.sample_fraction = sample_fraction
        self.rng = make_rng(rng)
        self.name = f"SAM({int(round(sample_fraction * 100))}%)"

    def rarity_scores(self, filenames: list[str]) -> dict[str, float]:
        scores: dict[str, float] = {}
        for name in filenames:
            replicas = self.replication.get(name, 0)
            if self.sample_fraction >= 1.0:
                observed = replicas
            elif self.sample_fraction <= 0.0:
                observed = 0
            else:
                observed = sum(
                    1 for _ in range(replicas) if self.rng.random() < self.sample_fraction
                )
            scores[name] = float(observed)
        return scores

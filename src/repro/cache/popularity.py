"""Streaming query-popularity estimation.

Two complementary sketches feed the caching subsystem:

* :class:`SpaceSavingCounter` — the space-saving top-k algorithm
  [Metwally et al., ICDT 2005]: bounded memory, never undercounts by more
  than the smallest tracked count, exact for items that dominate the
  stream. This is the long-run view ("what has been popular overall").
* :class:`SlidingWindowCounter` — bucketed counts over the most recent
  ``window`` observations. This is the recency view ("what is popular
  right now"), which is what admission control and the partial-flooding
  threshold should react to: filesharing popularity is bursty and old
  hits should stop influencing decisions.

:class:`PopularityEstimator` combines both behind one ``observe`` call and
is shared by the result cache (admission) and the hybrid ultrapeer
(query snooping).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Hashable, Iterable
from dataclasses import dataclass, field

from repro.piersearch.tokenizer import extract_keywords


def query_key(terms: Iterable[str]) -> tuple[str, ...]:
    """Canonical cache/popularity key for a conjunctive keyword query.

    Terms are tokenized exactly as the publisher and search engine do, then
    deduplicated and sorted — conjunctive semantics make term order
    irrelevant, so "foo bar" and "bar foo" share one cache entry. Queries
    with no indexable keyword map to the empty tuple (never cached).
    """
    keywords: set[str] = set()
    for term in terms:
        keywords.update(extract_keywords(term))
    return tuple(sorted(keywords))


class SpaceSavingCounter:
    """Bounded-memory top-k frequency counting (space-saving algorithm).

    Tracks at most ``capacity`` distinct keys. When a new key arrives at a
    full table, the minimum-count entry is evicted and the newcomer
    inherits its count (recorded as that key's maximum overestimation
    error). ``estimate`` therefore never undercounts a tracked key's true
    frequency, and ``guaranteed`` never overcounts it.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._counts: dict[Hashable, int] = {}
        self._errors: dict[Hashable, int] = {}

    def observe(self, key: Hashable, count: int = 1) -> None:
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        if key in self._counts:
            self._counts[key] += count
            return
        if len(self._counts) < self.capacity:
            self._counts[key] = count
            self._errors[key] = 0
            return
        victim = min(self._counts, key=lambda k: self._counts[k])
        inherited = self._counts.pop(victim)
        self._errors.pop(victim)
        self._counts[key] = inherited + count
        self._errors[key] = inherited

    def estimate(self, key: Hashable) -> int:
        """Upper-bound estimate of ``key``'s stream count (0 if untracked)."""
        return self._counts.get(key, 0)

    def guaranteed(self, key: Hashable) -> int:
        """Lower-bound count: estimate minus the inherited error."""
        return self._counts.get(key, 0) - self._errors.get(key, 0)

    def top(self, n: int) -> list[tuple[Hashable, int]]:
        """The ``n`` highest-estimate keys, most popular first."""
        ranked = sorted(self._counts.items(), key=lambda kv: (-kv[1], repr(kv[0])))
        return ranked[:n]

    def __len__(self) -> int:
        return len(self._counts)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._counts


class SlidingWindowCounter:
    """Per-key counts over the last ``window`` observations.

    The window is approximated with ``buckets`` sub-counters rotated every
    ``window // buckets`` observations, so memory and rotation cost stay
    bounded while old observations age out in at most one bucket-width.
    """

    def __init__(self, window: int = 512, buckets: int = 8):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        buckets = max(1, min(buckets, window))
        self.window = window
        self.bucket_width = max(1, window // buckets)
        self._buckets: deque[dict[Hashable, int]] = deque([{}])
        self._num_buckets = buckets
        self._in_current = 0
        self.observed = 0  # lifetime observations

    def observe(self, key: Hashable, count: int = 1) -> None:
        if self._in_current >= self.bucket_width:
            self._buckets.append({})
            if len(self._buckets) > self._num_buckets:
                self._buckets.popleft()
            self._in_current = 0
        current = self._buckets[-1]
        current[key] = current.get(key, 0) + count
        self._in_current += count
        self.observed += count

    def estimate(self, key: Hashable) -> int:
        """Observations of ``key`` within (approximately) the window."""
        return sum(bucket.get(key, 0) for bucket in self._buckets)

    @property
    def total(self) -> int:
        """Total observations currently inside the window."""
        return sum(sum(bucket.values()) for bucket in self._buckets)


@dataclass
class PopularityEstimator:
    """Combined long-run + recent popularity view over one key stream.

    ``capacity`` bounds the space-saving table; ``window`` sets how many
    recent observations the recency view covers. Both views see every
    ``observe`` call, so one estimator can simultaneously drive cache
    admission (recent counts) and partial-flooding TTLs (recent frequency).
    """

    capacity: int = 64
    window: int = 512
    buckets: int = 8
    topk: SpaceSavingCounter = field(init=False)
    recent: SlidingWindowCounter = field(init=False)

    def __post_init__(self) -> None:
        self.topk = SpaceSavingCounter(self.capacity)
        self.recent = SlidingWindowCounter(self.window, self.buckets)

    def observe(self, key: Hashable, count: int = 1) -> None:
        self.topk.observe(key, count)
        self.recent.observe(key, count)

    def count(self, key: Hashable) -> int:
        """Long-run (space-saving) count estimate."""
        return self.topk.estimate(key)

    def recent_count(self, key: Hashable) -> int:
        """Observations of ``key`` within the sliding window."""
        return self.recent.estimate(key)

    def frequency(self, key: Hashable) -> float:
        """Fraction of recent observations that were ``key`` (in [0, 1])."""
        total = self.recent.total
        if total == 0:
            return 0.0
        return self.recent.estimate(key) / total

    def is_popular(self, key: Hashable, min_recent: int = 2) -> bool:
        """Whether ``key`` recurred recently (admission-style predicate)."""
        return self.recent.estimate(key) >= min_recent

    def top(self, n: int) -> list[tuple[Hashable, int]]:
        return self.topk.top(n)

    @property
    def observed(self) -> int:
        """Lifetime observation count."""
        return self.recent.observed

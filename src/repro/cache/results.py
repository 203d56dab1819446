"""Byte-budgeted LRU query-result cache for hybrid ultrapeers.

A hybrid ultrapeer that re-issues timed-out leaf queries through
PIERSearch pays ~20 KB per distributed-join query (Section 7). Popular
queries repeat, and their answers are stable between publish rounds — so
an ultrapeer-side result cache converts the popular mass of the workload
into local hits, exactly the "popular queries get cheaper with load"
behaviour the hybrid design is built around.

The cache is budgeted in *bytes*, not entries: entry footprints are
estimated with the same :class:`~repro.common.units.CostModel` the rest of
the system charges wire costs with, so the budget is commensurable with
the bandwidth numbers experiments report. When the budget overflows the
least recently used entry goes; entries never expire and every answer
that fits is admitted.

Entries are keyed by :func:`query_key` and the cache never tokenises:
callers normalise a query once and pass the key.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass

from repro.common.units import CostModel, DEFAULT_COST_MODEL
from repro.piersearch.tokenizer import extract_keywords

#: bookkeeping bytes per cache entry (key, counters, timestamps)
ENTRY_OVERHEAD_BYTES = 96


def query_key(terms: Iterable[str]) -> tuple[str, ...]:
    """Canonical cache key for a conjunctive keyword query.

    Terms are tokenized exactly as the publisher and search engine do, then
    deduplicated and sorted — conjunctive semantics make term order
    irrelevant, so "foo bar" and "bar foo" share one cache entry. Queries
    with no indexable keyword map to the empty tuple (never cached).
    """
    keywords: set[str] = set()
    for term in terms:
        keywords.update(extract_keywords(term))
    return tuple(sorted(keywords))


@dataclass
class CachedResult:
    """One cached query answer plus its accounting metadata."""

    key: tuple[str, ...]
    filenames: tuple[str, ...]
    result_count: int
    #: wire bytes the original execution cost — what every hit saves
    cost_bytes: int
    #: storage footprint charged against the cache budget
    entry_bytes: int
    created_at: float
    last_access: float
    hits: int = 0


@dataclass
class CacheStats:
    """Hit/miss/byte accounting for one cache instance."""

    hits: int = 0
    misses: int = 0
    insertions: int = 0
    rejections: int = 0
    evictions: int = 0
    #: wire bytes that hits avoided re-spending
    bytes_saved: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups


class QueryResultCache:
    """Byte-budgeted result cache with least-recently-used eviction.

    Time comes from ``clock`` (e.g. a simulator's virtual clock) and only
    stamps each entry's ``created_at`` and ``last_access``; without one, a
    logical clock ticks once per operation.
    """

    def __init__(
        self,
        budget_bytes: int,
        clock: Callable[[], float] | None = None,
        cost_model: CostModel | None = None,
    ):
        if budget_bytes < 1:
            raise ValueError(f"budget_bytes must be >= 1, got {budget_bytes}")
        self.budget_bytes = budget_bytes
        self.cost_model = cost_model or DEFAULT_COST_MODEL
        self._clock = clock
        self._ticks = 0.0
        #: entries in recency order (most recently used last)
        self._entries: OrderedDict[tuple[str, ...], CachedResult] = OrderedDict()
        self.used_bytes = 0
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    # Time
    # ------------------------------------------------------------------

    def now(self) -> float:
        if self._clock is not None:
            return self._clock()
        return self._ticks

    def _tick(self) -> float:
        if self._clock is None:
            self._ticks += 1.0
        return self.now()

    # ------------------------------------------------------------------
    # Lookup / insert
    # ------------------------------------------------------------------

    def get(self, key: tuple[str, ...]) -> CachedResult | None:
        """Cached answer for query ``key``, or None. Counts a hit or a miss."""
        now = self._tick()
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        entry.hits += 1
        entry.last_access = now
        self._entries.move_to_end(key)
        self.stats.hits += 1
        self.stats.bytes_saved += entry.cost_bytes
        return entry

    def put(
        self,
        key: tuple[str, ...],
        filenames: Sequence[str],
        cost_bytes: int,
        result_count: int | None = None,
    ) -> bool:
        """Cache the answer to query ``key``; returns True if it was stored.

        ``cost_bytes`` is what executing the query cost on the wire (the
        savings a future hit realises); ``filenames`` is the answer
        payload whose size is charged against the budget.
        """
        now = self._tick()
        if not key:
            return False  # nothing indexable to key on
        footprint = self.entry_footprint(filenames)
        if footprint > self.budget_bytes:
            self.stats.rejections += 1
            return False
        if key in self._entries:
            self._drop(key)  # refresh: replace the stale entry
        while self.used_bytes + footprint > self.budget_bytes and self._entries:
            self._drop(next(iter(self._entries)))
            self.stats.evictions += 1
        entry = CachedResult(
            key=key,
            filenames=tuple(filenames),
            result_count=len(filenames) if result_count is None else result_count,
            cost_bytes=cost_bytes,
            entry_bytes=footprint,
            created_at=now,
            last_access=now,
        )
        self._entries[key] = entry
        self.used_bytes += footprint
        self.stats.insertions += 1
        return True

    def entries(self) -> Iterator[CachedResult]:
        """Iterate live entries (no side effects)."""
        return iter(self._entries.values())

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def entry_footprint(self, filenames: Sequence[str]) -> int:
        """Budget bytes one answer occupies: its Item tuples + overhead."""
        payload = sum(self.cost_model.item_tuple_bytes(name) for name in filenames)
        return ENTRY_OVERHEAD_BYTES + payload

    def _drop(self, key: tuple[str, ...]) -> None:
        entry = self._entries.pop(key)
        self.used_bytes -= entry.entry_bytes

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: object) -> bool:
        return key in self._entries

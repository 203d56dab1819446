"""Byte-budgeted query-result cache for hybrid ultrapeers.

A hybrid ultrapeer that re-issues timed-out leaf queries through
PIERSearch pays ~20 KB per distributed-join query (Section 7). Popular
queries repeat, and their answers are stable between publish rounds — so
an ultrapeer-side result cache converts the popular mass of the workload
into local hits, exactly the "popular queries get cheaper with load"
behaviour the hybrid design is built around.

The cache is budgeted in *bytes*, not entries: entry footprints are
estimated with the same :class:`~repro.common.units.CostModel` the rest of
the system charges wire costs with, so the budget is commensurable with
the bandwidth numbers experiments report. Eviction is pluggable (LRU,
LFU, or TTL/oldest-first), expiry is wall-clock (virtual time via an
injected ``clock``), and admission can be gated on a popularity predicate
so one-off tail queries do not wash the budget out.

Entries are keyed by :func:`~repro.cache.popularity.query_key` and the
cache never tokenises: callers normalise a query once and pass the key.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass

from repro.common.units import CostModel, DEFAULT_COST_MODEL

EVICTION_POLICIES = ("lru", "lfu", "ttl")

#: bookkeeping bytes per cache entry (key, counters, timestamps)
ENTRY_OVERHEAD_BYTES = 96


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
    expirations: int = 0
    invalidations: int = 0
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
    """Byte-budgeted result cache with pluggable eviction.

    ``policy`` selects the eviction victim when the budget overflows:

    * ``"lru"`` — least recently used entry.
    * ``"lfu"`` — fewest hits (ties broken by least recent use).
    * ``"ttl"`` — oldest entry (FIFO by creation time).

    Independent of the policy, a ``ttl`` makes entries expire ``ttl`` time
    units after creation. Time comes from ``clock`` (e.g. a simulator's
    virtual clock); without one, a logical clock ticks once per operation
    so TTLs are expressed in cache operations.

    ``admission`` (if given) is consulted before caching a new answer:
    return False to reject — the hook where a popularity estimator keeps
    one-off tail queries from evicting proven-popular entries.
    """

    def __init__(
        self,
        budget_bytes: int,
        policy: str = "lru",
        ttl: float | None = None,
        clock: Callable[[], float] | None = None,
        cost_model: CostModel | None = None,
        admission: Callable[[tuple[str, ...]], bool] | None = None,
    ):
        if budget_bytes < 1:
            raise ValueError(f"budget_bytes must be >= 1, got {budget_bytes}")
        if policy not in EVICTION_POLICIES:
            raise ValueError(f"unknown policy {policy!r}; pick one of {EVICTION_POLICIES}")
        if ttl is not None and ttl <= 0:
            raise ValueError(f"ttl must be positive, got {ttl}")
        self.budget_bytes = budget_bytes
        self.policy = policy
        self.ttl = ttl
        self.cost_model = cost_model or DEFAULT_COST_MODEL
        self.admission = admission
        self._clock = clock
        self._ticks = 0.0
        #: insertion/recency-ordered entries (most recently used last)
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
        if entry is not None and self._expired(entry, now):
            self._drop(key)
            self.stats.expirations += 1
            entry = None
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
        if self.admission is not None and not self.admission(key):
            self.stats.rejections += 1
            return False
        footprint = self.entry_footprint(filenames)
        if footprint > self.budget_bytes:
            self.stats.rejections += 1
            return False
        if key in self._entries:
            self._drop(key)  # refresh: replace the stale entry
        while self.used_bytes + footprint > self.budget_bytes and self._entries:
            self._evict(now)
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

    def peek(self, key: tuple[str, ...]) -> CachedResult | None:
        """Read an entry without touching stats, recency, or expiry."""
        return self._entries.get(key)

    def entries(self) -> Iterator[CachedResult]:
        """Iterate live entries (no side effects)."""
        return iter(self._entries.values())

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------

    def invalidate(self, key: tuple[str, ...]) -> bool:
        """Drop one entry (e.g. after a publish changes its answer)."""
        if key not in self._entries:
            return False
        self._drop(key)
        self.stats.invalidations += 1
        return True

    def purge_expired(self) -> int:
        """Drop every entry past its TTL; returns how many were dropped."""
        if self.ttl is None:
            return 0
        now = self.now()
        expired = [key for key, entry in self._entries.items() if self._expired(entry, now)]
        for key in expired:
            self._drop(key)
        self.stats.expirations += len(expired)
        return len(expired)

    def clear(self) -> None:
        self._entries.clear()
        self.used_bytes = 0

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def entry_footprint(self, filenames: Sequence[str]) -> int:
        """Budget bytes one answer occupies: its Item tuples + overhead."""
        payload = sum(self.cost_model.item_tuple_bytes(name) for name in filenames)
        return ENTRY_OVERHEAD_BYTES + payload

    def _expired(self, entry: CachedResult, now: float) -> bool:
        return self.ttl is not None and now - entry.created_at >= self.ttl

    def _drop(self, key: tuple[str, ...]) -> None:
        entry = self._entries.pop(key)
        self.used_bytes -= entry.entry_bytes

    def _evict(self, now: float) -> None:
        if self.policy == "lru":
            victim = next(iter(self._entries))
        elif self.policy == "lfu":
            victim = min(
                self._entries,
                key=lambda k: (self._entries[k].hits, self._entries[k].last_access),
            )
        else:  # ttl: oldest first
            victim = min(self._entries, key=lambda k: self._entries[k].created_at)
        self._drop(victim)
        self.stats.evictions += 1

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: object) -> bool:
        return key in self._entries

"""Query-result caching (extension subsystem).

The paper's hybrid design wins because popular queries are absorbed
cheaply by flooding while rare ones go to the DHT. This package grows the
machinery that makes the popular mass get *cheaper with load*:

* :mod:`repro.cache.results` — a byte-budgeted ultrapeer-side query-result
  cache with pluggable eviction (LRU, LFU, TTL) and hit/miss/byte
  accounting against the shared :class:`~repro.common.units.CostModel`.
* :mod:`repro.cache.popularity` — a streaming query-popularity estimator
  (space-saving top-k plus a sliding window) feeding cache admission and
  the partial-flooding TTL in :mod:`repro.gnutella.flooding`.
"""

from repro.cache.popularity import (
    PopularityEstimator,
    SlidingWindowCounter,
    SpaceSavingCounter,
    query_key,
)
from repro.cache.results import CachedResult, CacheStats, QueryResultCache

__all__ = [
    "CachedResult",
    "CacheStats",
    "PopularityEstimator",
    "QueryResultCache",
    "SlidingWindowCounter",
    "SpaceSavingCounter",
    "query_key",
]

"""Query-result caching (extension subsystem).

The paper's hybrid design wins because popular queries are absorbed
cheaply by flooding while rare ones go to the DHT. A hybrid ultrapeer may
also keep the answers it paid PIERSearch for:

* :mod:`repro.cache.results` — a byte-budgeted ultrapeer-side query-result
  cache with least-recently-used eviction and hit/miss/byte accounting
  against the shared :class:`~repro.common.units.CostModel`, keyed by
  :func:`~repro.cache.results.query_key`. It has no TTL, no admission
  gate and no popularity estimator.
"""

from repro.cache.results import CachedResult, CacheStats, QueryResultCache, query_key

__all__ = [
    "CachedResult",
    "CacheStats",
    "QueryResultCache",
    "query_key",
]

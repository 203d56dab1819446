"""Walkthrough: the repro.cache subsystem in the hybrid deployment.

Three acts:

1. Run the Section 7 partial deployment twice — stock, then with the
   query-result cache enabled — and compare the PIER bandwidth both runs
   spent on re-issued leaf queries.
2. Peek inside the cache machinery: the space-saving popularity sketch
   and the byte-budgeted eviction at work.
3. Show the popularity estimator trimming flood TTLs (partial flooding):
   repeated queries flood progressively shallower.

Run:  python examples/cached_deployment.py
"""

from dataclasses import replace

from repro.cache import PopularityEstimator, QueryResultCache, query_key
from repro.gnutella.flooding import popularity_stop_ttl
from repro.hybrid import DeploymentConfig, run_deployment


def act_one() -> None:
    print("=== 1. deployment: stock vs cached ===")
    base = DeploymentConfig(
        num_ultrapeers=400,
        num_leaves=1600,
        num_hybrid=30,
        num_items=800,
        num_background_queries=300,
        num_test_queries=300,
        seed=2004,
    )
    stock = run_deployment(base)
    # a 256 KB shared LRU result cache
    cached = run_deployment(replace(base, cache_budget_bytes=256 * 1024))
    stock_kb = sum(stock.pier_query_bytes) / 1024
    cached_kb = sum(cached.pier_query_bytes) / 1024
    print(f"PIER bytes, stock run        : {stock_kb:8.1f} KB")
    print(f"PIER bytes, cached run       : {cached_kb:8.1f} KB")
    print(f"cache hits / misses          : {cached.cache_hits} / {cached.cache_misses}")
    print(f"hit rate                     : {cached.cache_hit_rate:.1%}")
    print(f"bytes saved by hits          : {cached.cache_bytes_saved / 1024:.1f} KB")
    print(
        "no-result fraction unchanged : "
        f"{stock.hybrid_no_result_fraction:.3f} -> {cached.hybrid_no_result_fraction:.3f}"
        "  (cached answers lose no recall)"
    )


def act_two() -> None:
    print("\n=== 2. the machinery: admission + byte-budgeted eviction ===")
    popularity = PopularityEstimator(capacity=8, window=64)
    cache = QueryResultCache(
        budget_bytes=4096,
        policy="lru",
        admission=lambda key: popularity.recent_count(key) >= 2,
    )
    stream = ["beatles help", "obscure demo tape", "beatles help", "beatles help"]
    for terms in stream:
        key = query_key(terms.split())
        popularity.observe(key)
        if cache.get(key) is None:
            cache.put(key, [f"{terms}.mp3"], cost_bytes=20_000)
    popular, one_off = query_key(["beatles", "help"]), query_key(["obscure demo tape"])
    print(f"popular query cached         : {popular in cache}")
    print(f"one-off rejected by admission: {one_off not in cache}")
    print(
        f"stats: hits={cache.stats.hits} misses={cache.stats.misses} "
        f"rejections={cache.stats.rejections} "
        f"saved={cache.stats.bytes_saved / 1024:.1f} KB "
        f"(budget used {cache.used_bytes}/{cache.budget_bytes} B)"
    )


def act_three() -> None:
    print("\n=== 3. popularity-driven partial flooding ===")
    estimator = PopularityEstimator(capacity=16, window=100)
    key = query_key(["free", "bird"])
    max_ttl = 4
    print("query repeats -> flood TTL (max 4):")
    for repeat in range(1, 40):
        frequency = estimator.frequency(key)
        ttl = popularity_stop_ttl(frequency, max_ttl)
        if repeat in (1, 5, 10, 20, 39):
            print(f"  sighting {repeat:2d}: frequency={frequency:.2f} -> ttl {ttl}")
        estimator.observe(key)
        # background noise so the frequency denominator grows too
        estimator.observe(("noise", str(repeat)))
    print("popular queries flood shallower; rare ones keep the full horizon.")


if __name__ == "__main__":
    act_one()
    act_two()
    act_three()

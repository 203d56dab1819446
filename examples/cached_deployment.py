"""Walkthrough: the repro.cache subsystem in the hybrid deployment.

Runs the Section 7 partial deployment twice — stock, then with a shared
256 KB LRU query-result cache on the hybrid ultrapeers — and compares the
PIER bandwidth both runs spent on re-issued leaf queries, the cache's
hit/miss accounting, and the no-result fraction (which a cached answer
must leave unchanged).

Run:  python examples/cached_deployment.py
"""

from dataclasses import replace

from repro.hybrid import DeploymentConfig, run_deployment


def main() -> None:
    print("=== deployment: stock vs cached ===")
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


if __name__ == "__main__":
    main()

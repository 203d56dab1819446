"""Quickstart: publish files into a DHT and search them with PIERSearch.

Builds a 64-node DHT, publishes a handful of shared files through the
PIERSearch Publisher, and runs keyword queries with both query-processing
strategies from the paper (distributed symmetric-hash-join and
InvertedCache), printing answers and per-query costs.

Run:  python examples/quickstart.py
"""

from repro.dht import DhtNetwork
from repro.pier import Catalog
from repro.pier.query import JoinStrategy
from repro.piersearch import Publisher, SearchEngine

SHARED_FILES = [
    ("britney spears - toxic.mp3", 4_104_293, "24.16.8.1"),
    ("britney spears - toxic.mp3", 4_104_293, "66.31.5.9"),  # a replica
    ("britney spears - lucky.mp3", 3_804_120, "81.2.69.14"),
    ("obscure garage band - toxic waste demo.mp3", 2_150_400, "130.149.7.20"),
    ("lecture 12 - distributed hash tables.avi", 104_857_600, "128.32.37.2"),
]


def main() -> None:
    # 1. A 64-node DHT overlay (Chord-style; Bamboo stand-in).
    network = DhtNetwork(rng=42)
    network.populate(64)
    print(f"DHT up with {network.size} nodes")

    # 2. Publish: one Item tuple per file, one Inverted tuple per keyword.
    catalog = Catalog(network)
    publisher = Publisher(network, catalog)
    cache_publisher = Publisher(network, catalog, inverted_cache=True)
    for filename, size, host in SHARED_FILES:
        receipt = publisher.publish_file(filename, size, host, 6346)
        cache_publisher.publish_file(filename, size, host, 6346)
        print(
            f"published {filename!r}: keywords={list(receipt.keywords)} "
            f"cost={receipt.kilobytes:.2f} KB"
        )

    # 3. Search with the distributed-join strategy (Figure 2).
    engine = SearchEngine(
        network, catalog, strategy=JoinStrategy.DISTRIBUTED_JOIN
    )
    for terms in (["toxic"], ["britney", "toxic"], ["distributed", "tables"]):
        result = engine.search(terms)
        print(f"\nquery {terms} -> {len(result)} results")
        for item in result.items:
            print(f"  {item['filename']}  @ {item['ipAddress']}:{item['port']}")
        print(
            f"  [distributed join: {result.stats.posting_entries_shipped} "
            f"posting entries shipped, {result.stats.kilobytes:.2f} KB]"
        )

    # 4. The same query with the InvertedCache option (Figure 3):
    #    answered at a single site, no posting entries shipped.
    cached_engine = SearchEngine(
        network, catalog, strategy=JoinStrategy.INVERTED_CACHE
    )
    result = cached_engine.search(["britney", "toxic"])
    print(
        f"\nInvertedCache query ['britney', 'toxic'] -> {len(result)} results, "
        f"{result.stats.posting_entries_shipped} entries shipped, "
        f"{result.stats.kilobytes:.2f} KB"
    )
    assert result.stats.strategy is JoinStrategy.INVERTED_CACHE


if __name__ == "__main__":
    main()

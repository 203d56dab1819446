"""The paper's motivating scenario: flooding vs DHT search for rare items.

Builds a simulated Gnutella network (ultrapeers + leaves) sharing a
long-tailed content library, then compares, for a popular and a rare
query:

* Gnutella dynamic querying — result count, messages, first-result latency,
  answered the way the Section 7 deployment answers a leaf query: each
  matching replica at its host's hop depth, cut at the TTL where the
  client stops deepening
* PIERSearch over a DHT with the same corpus published — result count and
  bandwidth

This is Figure 7's asymmetry in miniature: flooding is fast and cheap for
popular content and slow/lossy for the tail, where the DHT shines.

Run:  python examples/filesharing_search.py
"""

import math

from repro.dht import DhtNetwork
from repro.gnutella import GnutellaNetwork, TopologyConfig, flood
from repro.gnutella.measurement import ContentMatcher, bfs_depths, dynamic_stop_ttl
from repro.pier import Catalog
from repro.piersearch import Publisher, SearchEngine
from repro.workload import ContentLibrary


def main() -> None:
    # --- Content and the unstructured network -------------------------
    library = ContentLibrary.generate(
        num_items=500, vocabulary_size=600, max_replicas=80, rng=7
    )
    gnutella = GnutellaNetwork.build(
        library,
        TopologyConfig(
            num_ultrapeers=300, num_leaves=1200, new_client_fraction=0.0, seed=8
        ),
        rng=9,
    )
    print(
        f"Gnutella network: {len(gnutella.topology.ultrapeers)} ultrapeers, "
        f"{len(gnutella.topology.leaves)} leaves, "
        f"{gnutella.placement.total_replicas} shared files"
    )

    # --- The same corpus published into a DHT -------------------------
    dht = DhtNetwork(rng=10)
    dht.populate(64)
    catalog = Catalog(dht)
    publisher = Publisher(dht, catalog)
    for files in gnutella.placement.files_by_node.values():
        for file in files:
            publisher.publish_file(
                file.filename, file.filesize, file.ip_address, file.port
            )
    engine = SearchEngine(dht, catalog)
    print(
        f"DHT index built: {publisher.published_files} files, "
        f"{publisher.average_bytes_per_file / 1024:.2f} KB/file publish cost"
    )

    # --- A popular and a rare query ------------------------------------
    popular_item = max(library.items, key=lambda item: item.replication)
    rare_item = next(item for item in library.family_items if item.replication == 1)
    queries = [
        ("popular", popular_item.filename.split()[0:1], popular_item.replication),
        ("rare", list(rare_item.family_terms), rare_item.replication),
    ]

    # A LimeWire client deepens TTL 1, 2, ... until 150 results or TTL 4;
    # each round re-floods from scratch, so its messages add up.
    origin = gnutella.topology.leaves[0]
    ultrapeer = gnutella.topology.ultrapeer_of(origin)
    depths = bfs_depths(gnutella, origin)
    matcher = ContentMatcher(gnutella)
    for label, terms, replication in queries:
        match_depths = gnutella.replica_depths(matcher.matching_filenames(terms), depths)
        stop_ttl = dynamic_stop_ttl(match_depths, 150, 4)
        results = sum(1 for depth in match_depths if depth <= stop_ttl)
        messages = sum(
            flood(gnutella.topology, ultrapeer, ttl).messages for ttl in range(1, stop_ttl + 1)
        )
        latency = gnutella.latency_model.arrival_for_depth(
            min(match_depths, default=math.inf), stop_ttl
        )
        latency_text = f"{latency:.1f}s" if latency != math.inf else "never"
        pier_result = engine.search(terms)
        print(f"\n[{label}] query {terms} (target has {replication} replica(s))")
        print(
            f"  Gnutella : {results:4d} results, "
            f"{messages:6d} messages, first result {latency_text}"
        )
        print(
            f"  PIERSearch: {len(pier_result):4d} results, "
            f"{pier_result.stats.kilobytes:6.1f} KB, "
            f"{pier_result.stats.posting_entries_shipped} posting entries shipped"
        )


if __name__ == "__main__":
    main()

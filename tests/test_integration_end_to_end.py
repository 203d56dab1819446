"""End-to-end integration: publish a corpus through PIERSearch, verify
PIERSearch answers match the Gnutella oracle, and exercise the hybrid."""

import math

import pytest

from repro.dht.network import DhtNetwork
from repro.gnutella.measurement import ContentMatcher
from repro.gnutella.network import GnutellaNetwork
from repro.gnutella.topology import TopologyConfig
from repro.pier.catalog import Catalog
from repro.piersearch.publisher import Publisher
from repro.piersearch.search import SearchEngine
from repro.piersearch.tokenizer import extract_keywords
from repro.workload.library import ContentLibrary
from repro.workload.queries import generate_workload


@pytest.fixture(scope="module")
def world():
    library = ContentLibrary.generate(
        num_items=100, vocabulary_size=300, max_replicas=30, rng=111
    )
    gnutella = GnutellaNetwork.build(
        library,
        TopologyConfig(num_ultrapeers=50, num_leaves=200, seed=112),
        rng=113,
    )
    dht = DhtNetwork(rng=114)
    dht.populate(32)
    catalog = Catalog(dht)
    publisher = Publisher(dht, catalog)
    # Publish the entire corpus (every replica) into the DHT.
    for files in gnutella.placement.files_by_node.values():
        for file in files:
            publisher.publish_file(file.filename, file.filesize, file.ip_address, file.port)
    engine = SearchEngine(dht, catalog)
    workload = generate_workload(library, 40, rng=115)
    return library, gnutella, engine, workload


class TestFullCorpusSearch:
    def test_piersearch_recall_matches_oracle(self, world):
        """With everything published, PIERSearch has perfect recall:
        token-exact queries return exactly the oracle's distinct items."""
        library, gnutella, engine, workload = world
        matcher = ContentMatcher(gnutella)
        checked = 0
        for query in workload:
            terms = list(query.terms)
            if not terms or not query.target_filename:
                continue
            # PIERSearch matches exact tokens; restrict to such queries.
            oracle_names = {
                name
                for name in matcher.matching_filenames(terms)
                if all(t in extract_keywords(name) for t in terms)
            }
            result = engine.search(terms)
            found_names = set(result.filenames)
            assert oracle_names == found_names, terms
            checked += 1
        assert checked >= 20

    def test_result_count_includes_every_replica(self, world):
        library, gnutella, engine, _ = world
        # Pick a multi-replica item and query its family/first keywords.
        item = max(library.items, key=lambda i: i.replication)
        terms = extract_keywords(item.filename)[:2]
        result = engine.search(terms)
        matching_ids = [
            row for row in result.items if row["filename"] == item.filename
        ]
        assert len(matching_ids) == item.replication

    def test_miss_queries_return_nothing(self, world):
        _, _, engine, workload = world
        for query in workload:
            if query.target_filename:
                continue
            assert len(engine.search(list(query.terms))) == 0


class TestCrossSystemAgreement:
    def test_gnutella_full_flood_equals_piersearch_distinct(self, world):
        """A whole-overlay flood and a DHT search see the same catalog."""
        library, gnutella, engine, workload = world
        for query in list(workload)[:10]:
            terms = list(query.terms)
            if not query.target_filename:
                continue
            flood = gnutella.flood_query(
                gnutella.topology.ultrapeers[0], terms, ttl=30
            )
            flood_names = {
                m.file.filename
                for m in flood.matches
                if all(t in extract_keywords(m.file.filename) for t in terms)
            }
            pier_names = set(engine.search(terms).filenames)
            assert flood_names <= pier_names

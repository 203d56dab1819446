"""Tests for the GnutellaNetwork facade."""

import pytest

from repro.gnutella.measurement import ContentMatcher
from repro.gnutella.network import GnutellaNetwork
from repro.gnutella.topology import TopologyConfig, build_topology
from repro.workload.library import ContentLibrary


@pytest.fixture(scope="module")
def gnutella():
    library = ContentLibrary.generate(
        num_items=150, vocabulary_size=300, max_replicas=80, rng=51
    )
    config = TopologyConfig(num_ultrapeers=80, num_leaves=320, seed=52)
    return GnutellaNetwork.build(library, config, rng=53)


class TestContentPlacement:
    def test_placement_loaded(self, gnutella):
        assert gnutella.placement is not None
        assert gnutella.placement.total_replicas > 0

    def test_leaf_files_indexed_at_parent(self, gnutella):
        placement = gnutella.placement
        for leaf in gnutella.topology.leaves[:50]:
            files = placement.files_by_node.get(leaf, [])
            if not files:
                continue
            parent = gnutella.topology.leaf_parents[leaf][0]
            indexed = {f.result_key for f in gnutella.indexes[parent].files}
            for file in files:
                assert file.result_key in indexed
            break
        else:
            pytest.skip("no leaf with files in sample")

    def test_ultrapeer_files_indexed_locally(self, gnutella):
        placement = gnutella.placement
        for up in gnutella.topology.ultrapeers:
            files = placement.files_by_node.get(up, [])
            if files:
                indexed = {f.result_key for f in gnutella.indexes[up].files}
                assert files[0].result_key in indexed
                return
        pytest.skip("no ultrapeer with local files")


class TestQueries:
    def test_query_finds_existing_content(self, gnutella):
        # Pick a well-replicated filename and query its first keyword.
        placement = gnutella.placement
        filename = max(
            placement.replicas_by_filename,
            key=lambda name: len(placement.replicas_by_filename[name]),
        )
        term = filename.split()[0]
        result = gnutella.query(gnutella.topology.leaves[0], [term], max_ttl=7)
        assert result.num_results > 0

    def test_query_from_leaf_routes_via_parent(self, gnutella):
        leaf = gnutella.topology.leaves[0]
        result = gnutella.query(leaf, ["zzznothing"], max_ttl=1)
        assert result.origin == gnutella.topology.leaf_parents[leaf][0]

    def test_all_results_for_is_superset_of_flood(self, gnutella):
        placement = gnutella.placement
        filename = next(iter(placement.replicas_by_filename))
        term = filename.split()[0]
        oracle = {f.result_key for f in gnutella.all_results_for([term])}
        flood_result = gnutella.flood_query(
            gnutella.topology.ultrapeers[0], [term], ttl=7
        )
        found = {m.file.result_key for m in flood_result.matches}
        assert found <= oracle

    def test_full_ttl_flood_equals_oracle(self, gnutella):
        """A flood covering the whole overlay finds everything."""
        placement = gnutella.placement
        filename = next(iter(placement.replicas_by_filename))
        term = filename.split()[0]
        oracle = {f.result_key for f in gnutella.all_results_for([term])}
        flood_result = gnutella.flood_query(
            gnutella.topology.ultrapeers[0], [term], ttl=30
        )
        found = {m.file.result_key for m in flood_result.matches}
        assert found == oracle

    def test_random_ultrapeers_distinct(self, gnutella):
        sample = gnutella.random_ultrapeers(10)
        assert len(sample) == len(set(sample)) == 10

    def test_random_ultrapeers_capped(self, gnutella):
        assert len(gnutella.random_ultrapeers(10_000)) == 80

    def test_latency_model_attached(self, gnutella):
        result = gnutella.query(gnutella.topology.leaves[0], ["zzznothing"], max_ttl=1)
        assert gnutella.first_result_latency(result) == float("inf")


class TestWithoutPlacement:
    """A network built from a bare topology carries no content."""

    @pytest.fixture()
    def bare(self):
        return GnutellaNetwork(build_topology(TopologyConfig(num_ultrapeers=10, num_leaves=10)))

    def test_the_oracle_finds_nothing(self, bare):
        assert bare.all_results_for(["anything"]) == []

    def test_a_content_matcher_needs_a_placement(self, bare):
        with pytest.raises(ValueError, match="no content placement"):
            ContentMatcher(bare)

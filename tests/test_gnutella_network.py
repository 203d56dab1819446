"""Tests for the GnutellaNetwork facade."""

import math

import pytest

from oracle import reference_hosts
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
            parent = gnutella.topology.leaf_parent[leaf]
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

    def test_every_file_is_indexed_by_exactly_its_host(self, gnutella):
        """One index per file: a leaf's at its parent, an ultrapeer's at
        itself."""
        hosts = reference_hosts(gnutella)
        topology = gnutella.topology
        for node, files in gnutella.placement.files_by_node.items():
            host = node if topology.is_ultrapeer(node) else topology.leaf_parent[node]
            for file in files:
                assert hosts[(file.filename, file.node_id)] == [host]

    def test_indexes_hold_every_placed_file_once(self, gnutella):
        indexed = sum(len(index.files) for index in gnutella.indexes.values())
        assert indexed == gnutella.placement.total_replicas

    def test_a_replica_reads_its_hosts_depth(self, gnutella):
        """A depth map holding only one leaf's parent puts exactly that
        parent's replicas at its depth and the rest at ``inf``."""
        topology = gnutella.topology
        leaf = next(node for node in topology.leaves if gnutella.placement.files_by_node.get(node))
        parent = topology.leaf_parent[leaf]
        filename = gnutella.placement.files_by_node[leaf][0].filename
        replicas = gnutella.placement.replicas_by_filename[filename]
        depths = gnutella.replica_depths([filename], {parent: 2})
        expected = [
            2 if (topology.leaf_parent.get(file.node_id, file.node_id) == parent) else math.inf
            for file in replicas
        ]
        assert depths == expected
        assert 2 in depths
        hosted = gnutella.replicas_hosted_by([filename], {parent}, len(replicas) + 1)
        assert hosted == [file for file, depth in zip(replicas, depths) if depth == 2]


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
        assert result.origin == gnutella.topology.leaf_parent[leaf]

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

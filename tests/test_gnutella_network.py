"""Tests for the GnutellaNetwork facade."""

import math

import pytest

from oracle import reference_dynamic_query, reference_flood, reference_hosts
from repro.gnutella.measurement import ContentMatcher, bfs_depths
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
        """A leaf's replica is hosted at its parent: at the parent's depth."""
        placement = gnutella.placement
        for leaf in gnutella.topology.leaves[:50]:
            files = placement.files_by_node.get(leaf, [])
            if not files:
                continue
            parent = gnutella.topology.leaf_parent[leaf]
            hosted = gnutella.replicas_hosted_by([files[0].filename], {parent}, math.inf)
            assert files[0] in hosted
            break
        else:
            pytest.skip("no leaf with files in sample")

    def test_ultrapeer_files_indexed_locally(self, gnutella):
        placement = gnutella.placement
        for up in gnutella.topology.ultrapeers:
            files = placement.files_by_node.get(up, [])
            if files:
                hosted = gnutella.replicas_hosted_by([files[0].filename], {up}, math.inf)
                assert files[0] in hosted
                return
        pytest.skip("no ultrapeer with local files")

    def test_every_file_is_indexed_by_exactly_its_host(self, gnutella):
        """One host per file: a leaf's is its parent, an ultrapeer's is
        itself, so a depth map of that host alone puts the file at its
        depth and a map of every other ultrapeer misses it."""
        hosts = reference_hosts(gnutella)
        topology = gnutella.topology
        for node, files in gnutella.placement.files_by_node.items():
            host = node if topology.is_ultrapeer(node) else topology.leaf_parent[node]
            others = {up: 1 for up in topology.ultrapeers if up != host}
            for file in files:
                assert hosts[(file.filename, file.node_id)] == [host]
                replicas = gnutella.placement.replicas_by_filename[file.filename]
                position = next(i for i, r in enumerate(replicas) if r is file)
                assert gnutella.replica_depths([file.filename], {host: 0})[position] == 0
                assert math.isinf(gnutella.replica_depths([file.filename], others)[position])

    def test_indexes_hold_every_placed_file_once(self, gnutella):
        """Read over every ultrapeer, the host table lists each placed
        replica once."""
        names = list(gnutella.placement.replicas_by_filename)
        hosted = gnutella.replicas_hosted_by(names, set(gnutella.topology.ultrapeers), math.inf)
        assert len(hosted) == len({id(file) for file in hosted}) == gnutella.placement.total_replicas

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


def replicas_within(gnutella, origin, terms, ttl):
    """The matching replicas whose host is at most ``ttl`` hops from
    ``origin``'s ultrapeer: what a flood with that TTL finds."""
    matcher = ContentMatcher(gnutella)
    names = matcher.matching_filenames(terms)
    depths = gnutella.replica_depths(names, bfs_depths(gnutella, origin))
    return [file for file, depth in zip(matcher.replicas(names), depths) if depth <= ttl]


class TestQueries:
    def test_query_finds_existing_content(self, gnutella):
        # Pick a well-replicated filename and query its first keyword.
        placement = gnutella.placement
        filename = max(
            placement.replicas_by_filename,
            key=lambda name: len(placement.replicas_by_filename[name]),
        )
        term = filename.split()[0]
        assert replicas_within(gnutella, gnutella.topology.leaves[0], [term], 7)

    def test_query_from_leaf_routes_via_parent(self, gnutella):
        leaf = gnutella.topology.leaves[0]
        depths = bfs_depths(gnutella, leaf)
        assert depths[gnutella.topology.leaf_parent[leaf]] == 0
        assert leaf not in depths

    def test_all_results_for_is_superset_of_flood(self, gnutella):
        placement = gnutella.placement
        filename = next(iter(placement.replicas_by_filename))
        term = filename.split()[0]
        oracle = {f.result_key for f in gnutella.all_results_for([term])}
        found = {f.result_key for f in replicas_within(gnutella, gnutella.topology.ultrapeers[0], [term], 2)}
        assert found <= oracle

    def test_full_ttl_flood_equals_oracle(self, gnutella):
        """A flood covering the whole overlay finds everything: the
        reference flood's matches, the closed form's replicas within 30
        hops and the whole-network scan are the same files."""
        placement = gnutella.placement
        filename = next(iter(placement.replicas_by_filename))
        term = filename.split()[0]
        origin = gnutella.topology.ultrapeers[0]
        oracle = sorted((f.filename, f.node_id) for f in gnutella.all_results_for([term]))
        *_, matches = reference_flood(gnutella.topology, placement, origin, [term], 30)
        assert sorted((name, node) for name, node, _ in matches) == oracle
        found = replicas_within(gnutella, origin, [term], 30)
        assert sorted((f.filename, f.node_id) for f in found) == oracle

    def test_random_ultrapeers_distinct(self, gnutella):
        sample = gnutella.random_ultrapeers(10)
        assert len(sample) == len(set(sample)) == 10

    def test_random_ultrapeers_capped(self, gnutella):
        assert len(gnutella.random_ultrapeers(10_000)) == 80

    def test_latency_model_attached(self, gnutella):
        _, _, first_arrival, _ = reference_dynamic_query(
            gnutella.topology, gnutella.placement, gnutella.topology.leaves[0],
            ["zzznothing"], 1, 1, gnutella.latency_model,
        )
        assert first_arrival == gnutella.latency_model.arrival_for_depth(math.inf, 1)
        assert first_arrival == float("inf")


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

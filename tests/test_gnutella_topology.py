"""Tests for Gnutella topology generation."""

import random

import pytest

from oracle import reference_attach_leaves
from repro.gnutella import topology as topology_module
from repro.gnutella.topology import (
    NEW_PROFILE,
    OLD_PROFILE,
    Topology,
    TopologyConfig,
    build_topology,
)


@pytest.fixture(scope="module")
def topology():
    return build_topology(
        TopologyConfig(num_ultrapeers=300, num_leaves=1500, seed=5)
    )


class TestConfig:
    def test_rejects_too_few_ultrapeers(self):
        with pytest.raises(ValueError):
            TopologyConfig(num_ultrapeers=1)

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            TopologyConfig(new_client_fraction=1.5)

class TestStructure:
    def test_counts(self, topology):
        assert len(topology.ultrapeers) == 300
        assert len(topology.leaves) == 1500
        assert topology.num_nodes == 1800

    def test_symmetric_adjacency(self, topology):
        for node, neighbors in topology.neighbors.items():
            for neighbor in neighbors:
                assert node in topology.neighbors[neighbor]

    def test_no_self_loops(self, topology):
        for node, neighbors in topology.neighbors.items():
            assert node not in neighbors

    def test_no_duplicate_edges(self, topology):
        for node, neighbors in topology.neighbors.items():
            assert len(neighbors) == len(set(neighbors))

    def test_connected(self, topology):
        assert topology.connected_ultrapeer_count() == 300

    def test_every_leaf_has_a_parent(self, topology):
        for leaf in topology.leaves:
            assert topology.is_ultrapeer(topology.leaf_parent[leaf])

    def test_leaf_parent_linkage_consistent(self, topology):
        for leaf, parent in topology.leaf_parent.items():
            assert leaf in topology.ultrapeer_leaves[parent]

    def test_leaf_parent_maps_exactly_the_leaves(self, topology):
        assert sorted(topology.leaf_parent) == sorted(topology.leaves)
        assert not any(topology.is_ultrapeer(leaf) for leaf in topology.leaves)

    def test_each_leaf_is_listed_once_under_its_one_parent(self, topology):
        listed = [
            (leaf, parent)
            for parent, leaves in topology.ultrapeer_leaves.items()
            for leaf in leaves
        ]
        assert len(listed) == len(topology.leaves)
        assert sorted(listed) == sorted(topology.leaf_parent.items())

    def test_degree_profiles_respected(self):
        # With a pure-new-profile topology degrees should cluster near 32.
        topo = build_topology(
            TopologyConfig(
                num_ultrapeers=200, num_leaves=0, new_client_fraction=1.0, seed=6
            )
        )
        mean_degree = sum(topo.degree(u) for u in topo.ultrapeers) / 200
        assert NEW_PROFILE["neighbors"] * 0.7 <= mean_degree <= NEW_PROFILE["neighbors"]

    def test_old_profile_low_degree(self):
        topo = build_topology(
            TopologyConfig(
                num_ultrapeers=200, num_leaves=0, new_client_fraction=0.0, seed=7
            )
        )
        mean_degree = sum(topo.degree(u) for u in topo.ultrapeers) / 200
        assert mean_degree <= OLD_PROFILE["neighbors"] + 1

    def test_deterministic_given_seed(self):
        a = build_topology(TopologyConfig(num_ultrapeers=50, num_leaves=100, seed=9))
        b = build_topology(TopologyConfig(num_ultrapeers=50, num_leaves=100, seed=9))
        assert a.neighbors == b.neighbors
        assert a.leaf_parent == b.leaf_parent


class TestHelpers:
    def test_is_ultrapeer(self, topology):
        assert topology.is_ultrapeer(topology.ultrapeers[0])
        assert not topology.is_ultrapeer(topology.leaves[0])

    def test_ultrapeer_of_leaf(self, topology):
        leaf = topology.leaves[0]
        assert topology.ultrapeer_of(leaf) == topology.leaf_parent[leaf]

    def test_ultrapeer_of_self(self, topology):
        up = topology.ultrapeers[0]
        assert topology.ultrapeer_of(up) == up

    def test_ultrapeer_of_every_leaf_is_its_parent(self, topology):
        for leaf in topology.leaves:
            assert topology.ultrapeer_of(leaf) == topology.leaf_parent[leaf]

    def test_ultrapeer_of_unknown_raises(self, topology):
        with pytest.raises(KeyError):
            topology.ultrapeer_of(10**9)

    def test_leaf_capacity_respected(self):
        """With ample capacity, no ultrapeer should exceed its profile."""
        topo = build_topology(
            TopologyConfig(
                num_ultrapeers=100,
                num_leaves=1000,
                new_client_fraction=0.0,
                seed=8,
            )
        )
        limit = OLD_PROFILE["leaf_capacity"]
        for up in topo.ultrapeers:
            assert len(topo.ultrapeer_leaves[up]) <= limit


class TestLeafCapacity:
    @pytest.mark.parametrize("ultrapeers,leaves", [(20, 1500), (6, 500)])
    def test_no_leaf_overflows_while_a_slot_is_free(self, ultrapeers, leaves):
        """Leaves fill every slot before any ultrapeer takes more than its
        profile allows: exactly full leaves none over, and past full
        none under."""
        topo = build_topology(
            TopologyConfig(
                num_ultrapeers=ultrapeers, num_leaves=leaves, new_client_fraction=0.0, seed=4,
            )
        )
        limit = OLD_PROFILE["leaf_capacity"]
        loads = [len(topo.ultrapeer_leaves[up]) for up in topo.ultrapeers]
        assert min(loads) >= min(limit, leaves // ultrapeers)
        if leaves <= limit * ultrapeers:
            assert max(loads) <= limit
        assert sum(loads) == leaves


class TestAttachLeavesReference:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize(
        "ultrapeers,leaves",
        # roomy; exactly full (20 x 75 slots); over capacity (6 x 75 slots
        # for 500 leaves)
        [(60, 240), (20, 1500), (6, 500)],
    )
    def test_topology_equals_fresh_candidate_list_per_leaf(
        self, monkeypatch, seed, ultrapeers, leaves
    ):
        config = TopologyConfig(
            num_ultrapeers=ultrapeers, num_leaves=leaves, new_client_fraction=0.0, seed=seed,
        )
        built = build_topology(config)
        monkeypatch.setattr(topology_module, "_attach_leaves", reference_attach_leaves)
        assert build_topology(config) == built


class TestEnsureConnected:
    def test_stray_components_are_bridged_to_the_largest(self):
        """Three components (sizes 3, 2, 1) end as one, with one new
        symmetric link per stray component and no other change."""
        neighbors = {0: [1], 1: [0, 2], 2: [1], 3: [4], 4: [3], 5: []}
        before = {node: set(links) for node, links in neighbors.items()}
        topology_module._ensure_connected(list(neighbors), neighbors, random.Random(3))
        added = {
            frozenset((node, other))
            for node, links in neighbors.items()
            for other in set(links) - before[node]
        }
        assert len(added) == 2
        assert all(node in neighbors[other] for node, other in map(tuple, added))
        shape = Topology(
            ultrapeers=list(neighbors), leaves=[], neighbors=neighbors,
            leaf_parent={}, ultrapeer_leaves={node: [] for node in neighbors},
        )
        assert shape.connected_ultrapeer_count() == 6

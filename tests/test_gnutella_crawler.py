"""Tests for the topology crawler and flooding-overhead analysis."""

import pytest

from repro.gnutella.crawler import crawl, flood_overhead_curve
from repro.gnutella.topology import TopologyConfig, build_topology

from tests.test_gnutella_flooding import cycle_topology, line_topology


@pytest.fixture(scope="module")
def topology():
    return build_topology(TopologyConfig(num_ultrapeers=200, num_leaves=800, seed=17))


class TestCrawl:
    def test_discovers_whole_overlay(self, topology):
        result = crawl(topology, seeds=topology.ultrapeers[:5])
        assert len(result.discovered_ultrapeers) == 200

    def test_discovers_leaves_via_responders(self, topology):
        result = crawl(topology, seeds=topology.ultrapeers[:5])
        assert len(result.discovered_leaves) == 800

    def test_api_calls_bounded_by_ultrapeers(self, topology):
        result = crawl(topology, seeds=topology.ultrapeers[:5])
        assert result.api_calls <= 200

    def test_nonresponders_make_estimate_lower_bound(self, topology):
        full = crawl(topology, seeds=topology.ultrapeers[:5])
        partial = crawl(topology, seeds=topology.ultrapeers[:5], response_rate=0.5, rng=3)
        found = [len(r.discovered_ultrapeers) + len(r.discovered_leaves) for r in (partial, full)]
        assert found[0] <= found[1]
        assert partial.non_responders > 0

    def test_seed_must_be_ultrapeer(self, topology):
        result = crawl(topology, seeds=[topology.leaves[0]])
        assert not result.discovered_ultrapeers and not result.discovered_leaves

    def test_bad_response_rate_rejected(self, topology):
        with pytest.raises(ValueError):
            crawl(topology, seeds=topology.ultrapeers[:1], response_rate=0.0)


class TestFloodOverheadCurve:
    def test_monotone_messages_and_visited(self, topology):
        curve = flood_overhead_curve(topology, origins=topology.ultrapeers[:3])
        messages = [point[0] for point in curve]
        visited = [point[1] for point in curve]
        assert messages == sorted(messages)
        assert visited == sorted(visited)

    def test_diminishing_returns(self, topology):
        """Marginal messages per newly visited peer grow with depth."""
        curve = flood_overhead_curve(topology, origins=topology.ultrapeers[:3])
        marginals = []
        for (m0, v0), (m1, v1) in zip(curve, curve[1:]):
            if v1 > v0:
                marginals.append((m1 - m0) / (v1 - v0))
        assert marginals[-1] > marginals[0]

    def test_line_topology_no_redundancy(self):
        curve = flood_overhead_curve(line_topology(6), origins=[0], max_ttl=5)
        # On a line, messages == visited - 1 at every depth.
        for messages, visited in curve[1:]:
            assert messages == visited - 1

    def test_cycle_topology_has_redundancy(self):
        curve = flood_overhead_curve(cycle_topology(8), origins=[0], max_ttl=5)
        final_messages, final_visited = curve[-1]
        assert final_messages > final_visited - 1

    def test_requires_origins(self, topology):
        with pytest.raises(ValueError):
            flood_overhead_curve(topology, origins=[])


class TestCrawlSeeds:
    def test_a_seed_listed_twice_is_contacted_once(self, topology):
        seed = topology.ultrapeers[0]
        once = crawl(topology, seeds=[seed])
        twice = crawl(topology, seeds=[seed, seed])
        assert twice.api_calls == once.api_calls == 200
        assert twice.discovered_leaves == once.discovered_leaves

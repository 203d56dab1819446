"""Tests for TTL flooding, the content index, and dynamic querying."""

import random

import pytest

from repro.gnutella.dynamic import dynamic_query
from repro.gnutella.flooding import flood
from repro.gnutella.index import UltrapeerIndex
from repro.gnutella.network import GnutellaNetwork
from repro.gnutella.topology import Topology, TopologyConfig
from repro.workload.library import ContentLibrary, SharedFile


def line_topology(n=6):
    """0 - 1 - 2 - ... - (n-1), no leaves."""
    neighbors = {i: [] for i in range(n)}
    for i in range(n - 1):
        neighbors[i].append(i + 1)
        neighbors[i + 1].append(i)
    return Topology(
        ultrapeers=list(range(n)),
        leaves=[],
        neighbors=neighbors,
        leaf_parents={},
        ultrapeer_leaves={i: [] for i in range(n)},
    )


def cycle_topology(n=6):
    neighbors = {i: sorted({(i - 1) % n, (i + 1) % n}) for i in range(n)}
    return Topology(
        ultrapeers=list(range(n)),
        leaves=[],
        neighbors=neighbors,
        leaf_parents={},
        ultrapeer_leaves={i: [] for i in range(n)},
    )


def index_with(files_by_node):
    indexes = {}
    for node, filenames in files_by_node.items():
        index = UltrapeerIndex()
        for filename in filenames:
            index.add_file(SharedFile(filename=filename, filesize=1, node_id=node))
        indexes[node] = index
    return indexes


class TestUltrapeerIndex:
    def test_match_conjunctive_substring(self):
        index = UltrapeerIndex()
        index.add_file(SharedFile("britney spears - toxic.mp3", 1, 1))
        index.add_file(SharedFile("britney spears - lucky.mp3", 1, 1))
        assert len(index.match(["britney", "toxic"])) == 1
        assert len(index.match(["britney"])) == 2

    def test_match_partial_token(self):
        index = UltrapeerIndex()
        index.add_file(SharedFile("toxic.mp3", 1, 1))
        assert len(index.match(["toxi"])) == 1

    def test_no_match(self):
        index = UltrapeerIndex()
        index.add_file(SharedFile("something.mp3", 1, 1))
        assert index.match(["absent"]) == []

    def test_empty_terms(self):
        index = UltrapeerIndex()
        index.add_file(SharedFile("x.mp3", 1, 1))
        assert index.match([]) == []

    def test_matches_equal_full_scan(self):
        """Token-index candidates must not change match results."""
        index = UltrapeerIndex()
        names = [
            "darel montia - klorena.mp3",
            "darel bonzo - klore.mp3",
            "klorena velid - darel.avi",
            "unrelated thing.mp3",
        ]
        for i, name in enumerate(names):
            index.add_file(SharedFile(name, 1, i))
        for terms in (["darel"], ["klore"], ["darel", "klorena"], ["velid"]):
            expected = [
                f for f in index.files
                if all(t in f.filename.lower() for t in terms)
            ]
            assert index.match(terms) == expected


class TestFlood:
    def test_ttl_zero_only_origin(self):
        topo = line_topology()
        result = flood(topo, {}, 0, ["x"], ttl=0)
        assert result.visited == {0}
        assert result.messages == 0

    def test_ttl_limits_reach(self):
        topo = line_topology(6)
        result = flood(topo, {}, 0, ["x"], ttl=2)
        assert result.visited == {0, 1, 2}

    def test_messages_on_line_have_no_duplicates(self):
        topo = line_topology(6)
        result = flood(topo, {}, 0, ["x"], ttl=5)
        assert result.messages == 5  # one per edge, no redundancy

    def test_cycle_has_duplicate_messages(self):
        topo = cycle_topology(6)
        result = flood(topo, {}, 0, ["x"], ttl=3)
        # 6-cycle from one origin: hops 1,2,3 — the two directions meet.
        assert len(result.visited) == 6
        assert result.messages > len(result.visited) - 1

    def test_matches_recorded_with_hop(self):
        topo = line_topology(4)
        indexes = index_with({2: ["rare item.mp3"]})
        result = flood(topo, indexes, 0, ["rare"], ttl=3)
        assert result.num_results == 1
        assert result.matches[0].hop == 2

    def test_origin_matches_at_hop_zero(self):
        topo = line_topology(3)
        indexes = index_with({0: ["rare item.mp3"]})
        result = flood(topo, indexes, 0, ["rare"], ttl=1)
        assert result.first_match_hop() == 0

    def test_cumulative_curves_monotone(self):
        topo = cycle_topology(8)
        result = flood(topo, {}, 0, ["x"], ttl=4)
        assert result.visited_by_hop == sorted(result.visited_by_hop)
        assert result.messages_by_hop == sorted(result.messages_by_hop)

    def test_negative_ttl_rejected(self):
        with pytest.raises(ValueError):
            flood(line_topology(), {}, 0, ["x"], ttl=-1)

    def test_stops_early_when_frontier_empty(self):
        topo = line_topology(3)
        result = flood(topo, {}, 0, ["x"], ttl=10)
        assert result.visited == {0, 1, 2}


class TestHorizonFlood:
    """A flood over an empty index map (what the Section 7 snoop runs) is
    the matching flood minus its matches: same horizon, same order, same
    messages and per-hop curves."""

    @pytest.mark.parametrize("seed", [3, 17, 29])
    def test_index_free_flood_equals_matching_flood(self, seed):
        library = ContentLibrary.generate(
            num_items=120, vocabulary_size=200, max_replicas=40, rng=seed
        )
        config = TopologyConfig(num_ultrapeers=60, num_leaves=240, seed=seed + 1)
        network = GnutellaNetwork.build(library, config, rng=seed + 2)
        topology = network.topology
        rng = random.Random(seed)
        filenames = sorted(network.placement.replicas_by_filename)
        answered = 0
        for origin in rng.sample(topology.ultrapeers, 8):
            terms = rng.choice(filenames).split()[:2]
            for ttl in range(4):
                matching = flood(topology, network.indexes, origin, terms, ttl)
                horizon = flood(topology, {}, origin, terms, ttl)
                assert list(horizon.visited) == list(matching.visited)
                assert horizon.messages == matching.messages
                assert horizon.visited_by_hop == matching.visited_by_hop
                assert horizon.messages_by_hop == matching.messages_by_hop
                assert horizon.matches == []
                answered += matching.num_results > 0
        # The matching side found something, so the two really differ in work.
        assert answered


class TestDynamicQuery:
    def test_stops_when_enough_results(self):
        topo = line_topology(6)
        indexes = index_with({1: ["rare hit.mp3"]})
        result = dynamic_query(topo, indexes, 0, ["rare"], desired_results=1, max_ttl=5)
        assert result.final_ttl == 1
        assert result.num_results == 1

    def test_deepens_for_rare_items(self):
        topo = line_topology(6)
        indexes = index_with({4: ["rare hit.mp3"]})
        result = dynamic_query(topo, indexes, 0, ["rare"], desired_results=1, max_ttl=5)
        assert result.final_ttl == 4

    def test_gives_up_at_max_ttl(self):
        topo = line_topology(8)
        indexes = index_with({7: ["rare hit.mp3"]})
        result = dynamic_query(topo, indexes, 0, ["rare"], desired_results=1, max_ttl=3)
        assert result.num_results == 0
        assert result.final_ttl == 3

    def test_results_deduplicated_across_rounds(self):
        topo = line_topology(5)
        indexes = index_with({1: ["rare hit.mp3"], 3: ["rare other.mp3"]})
        result = dynamic_query(topo, indexes, 0, ["rare"], desired_results=2, max_ttl=4)
        filenames = [f.filename for f in result.results()]
        assert len(filenames) == len(set(filenames)) == 2

    def test_first_result_round_and_hop(self):
        topo = line_topology(6)
        indexes = index_with({3: ["rare hit.mp3"]})
        result = dynamic_query(topo, indexes, 0, ["rare"], desired_results=1, max_ttl=5)
        assert result.first_result_round_and_hop() == (2, 3)  # round ttl=3

    def test_messages_compound_across_rounds(self):
        topo = line_topology(6)
        result = dynamic_query(topo, {}, 0, ["x"], desired_results=1, max_ttl=3)
        # rounds at ttl=1,2,3 re-flood: 1+2+3 messages on a line.
        assert result.total_messages == 6

    def test_stops_when_overlay_covered(self):
        topo = line_topology(3)
        result = dynamic_query(topo, {}, 0, ["x"], desired_results=99, max_ttl=7)
        assert result.final_ttl <= 3

    def test_rejects_bad_desired(self):
        with pytest.raises(ValueError):
            dynamic_query(line_topology(), {}, 0, ["x"], desired_results=0)


class TestPartialFlooding:
    def test_rare_queries_keep_full_ttl(self):
        from repro.gnutella.flooding import popularity_stop_ttl

        assert popularity_stop_ttl(0.0, 4) == 4
        assert popularity_stop_ttl(0.02, 4) == 4

    def test_popular_queries_flood_shallower(self):
        from repro.gnutella.flooding import popularity_stop_ttl

        ttl_warm = popularity_stop_ttl(0.05, 4)
        ttl_hot = popularity_stop_ttl(0.5, 4)
        assert ttl_hot < ttl_warm < 4
        assert ttl_hot >= 1  # never below min_ttl

    def test_ttl_monotone_in_frequency(self):
        from repro.gnutella.flooding import popularity_stop_ttl

        ttls = [popularity_stop_ttl(f / 100, 6) for f in range(1, 100)]
        assert all(a >= b for a, b in zip(ttls, ttls[1:]))

    def test_rejects_bad_arguments(self):
        from repro.gnutella.flooding import popularity_stop_ttl

        with pytest.raises(ValueError):
            popularity_stop_ttl(0.5, -1)
        with pytest.raises(ValueError):
            popularity_stop_ttl(0.5, 4, popular_frequency=0.0)

    def test_adaptive_flood_gets_cheaper_with_repetition(self):
        from repro.cache.popularity import PopularityEstimator
        from repro.gnutella.flooding import adaptive_flood

        topo = line_topology(8)
        estimator = PopularityEstimator(window=50)
        first = adaptive_flood(topo, {}, 0, ["hot", "song"], estimator, max_ttl=5)
        assert first.ttl == 5  # never seen: full horizon
        for _ in range(20):
            result = adaptive_flood(topo, {}, 0, ["hot", "song"], estimator, max_ttl=5)
        assert result.ttl < first.ttl
        assert result.messages < first.messages

    def test_adaptive_flood_still_finds_nearby_content(self):
        from repro.cache.popularity import PopularityEstimator
        from repro.gnutella.flooding import adaptive_flood

        topo = line_topology(8)
        indexes = index_with({1: ["hot song.mp3"]})
        estimator = PopularityEstimator(window=50)
        for _ in range(20):
            result = adaptive_flood(topo, indexes, 0, ["hot", "song"], estimator, max_ttl=5)
        # shallow flood still reaches the popular (nearby) replica
        assert result.num_results == 1

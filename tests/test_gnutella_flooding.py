"""Tests for TTL flooding, the content index, and dynamic querying."""

import random

import pytest

from oracle import reference_flood
from repro.gnutella.dynamic import dynamic_query
from repro.gnutella.flooding import flood
from repro.gnutella.index import UltrapeerIndex
from repro.gnutella.network import GnutellaNetwork
from repro.gnutella.topology import Topology, TopologyConfig, build_topology
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


def star_topology(n=6):
    """Ultrapeer 0 linked to every other one, no other links."""
    neighbors = {0: list(range(1, n)), **{i: [0] for i in range(1, n)}}
    return Topology(
        ultrapeers=list(range(n)),
        leaves=[],
        neighbors=neighbors,
        leaf_parents={},
        ultrapeer_leaves={i: [] for i in range(n)},
    )


def complete_topology(n=5):
    neighbors = {i: [j for j in range(n) if j != i] for i in range(n)}
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
            index.add_files([SharedFile(filename=filename, filesize=1, node_id=node)])
        indexes[node] = index
    return indexes


class TestUltrapeerIndex:
    def test_match_conjunctive_substring(self):
        index = UltrapeerIndex()
        index.add_files([SharedFile("britney spears - toxic.mp3", 1, 1)])
        index.add_files([SharedFile("britney spears - lucky.mp3", 1, 1)])
        assert len(index.match(["britney", "toxic"])) == 1
        assert len(index.match(["britney"])) == 2

    def test_match_partial_token(self):
        index = UltrapeerIndex()
        index.add_files([SharedFile("toxic.mp3", 1, 1)])
        assert len(index.match(["toxi"])) == 1

    def test_no_match(self):
        index = UltrapeerIndex()
        index.add_files([SharedFile("something.mp3", 1, 1)])
        assert index.match(["absent"]) == []

    def test_empty_terms(self):
        index = UltrapeerIndex()
        index.add_files([SharedFile("x.mp3", 1, 1)])
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
            index.add_files([SharedFile(name, 1, i)])
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


FLOOD_TOPOLOGIES = {
    "line": lambda: line_topology(7),
    "cycle": lambda: cycle_topology(8),
    "star": lambda: star_topology(6),
    "complete": lambda: complete_topology(5),
    "random-1": lambda: build_topology(TopologyConfig(num_ultrapeers=40, num_leaves=40, seed=1)),
    "random-2": lambda: build_topology(TopologyConfig(num_ultrapeers=40, num_leaves=40, seed=2)),
}


class TestFloodReference:
    """A flood equals :func:`oracle.reference_flood`, which counts it from
    hop distances and degrees: the nodes reached, every message
    (duplicates included), both per-hop curves and each match at its hop."""

    @pytest.mark.parametrize("ttl", [1, 3])
    @pytest.mark.parametrize("shape", sorted(FLOOD_TOPOLOGIES))
    def test_flood_equals_reference(self, shape, ttl):
        topo = FLOOD_TOPOLOGIES[shape]()
        rng = random.Random(f"{shape}|{ttl}")
        words = ("alpha beta", "alpha gamma", "beta gamma", "delta")
        indexes = index_with({
            node: [f"{rng.choice(words)} {node}.mp3" for _ in range(rng.randint(0, 2))]
            for node in topo.ultrapeers
        })
        origin = rng.choice(topo.ultrapeers)
        result = flood(topo, indexes, origin, ["alpha"], ttl)
        visited, messages, visited_by_hop, messages_by_hop, matches = reference_flood(
            topo, indexes, origin, ["alpha"], ttl
        )
        assert result.visited == visited
        assert result.messages == messages
        assert result.visited_by_hop == visited_by_hop
        assert result.messages_by_hop == messages_by_hop
        found = sorted((m.file.filename, m.file.node_id, m.hop) for m in result.matches)
        assert found == matches


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


class TestFloodResult:
    def test_results_are_the_matched_files_in_visit_order(self):
        topo = line_topology(5)
        indexes = index_with({3: ["rare one.mp3"], 1: ["rare two.mp3", "other.mp3"]})
        result = flood(topo, indexes, 0, ["rare"], ttl=4)
        assert [file.filename for file in result.results()] == ["rare two.mp3", "rare one.mp3"]
        assert [match.hop for match in result.matches] == [1, 3]

    def test_an_index_counts_its_files(self):
        index = UltrapeerIndex()
        index.add_files([SharedFile("a.mp3", 1, 1), SharedFile("a.mp3", 1, 2)])
        assert len(index) == 2

"""Tests for TTL flooding and for dynamic querying answered by replica
depth."""

import math
import random

import pytest

from oracle import reference_dynamic_query, reference_flood
from repro.gnutella.flooding import flood
from repro.gnutella.measurement import ContentMatcher, bfs_depths, dynamic_stop_ttl
from repro.gnutella.network import GnutellaNetwork
from repro.gnutella.topology import Topology, TopologyConfig, build_topology
from repro.workload.library import Placement, SharedFile


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
        leaf_parent={},
        ultrapeer_leaves={i: [] for i in range(n)},
    )


def cycle_topology(n=6):
    neighbors = {i: sorted({(i - 1) % n, (i + 1) % n}) for i in range(n)}
    return Topology(
        ultrapeers=list(range(n)),
        leaves=[],
        neighbors=neighbors,
        leaf_parent={},
        ultrapeer_leaves={i: [] for i in range(n)},
    )


def star_topology(n=6):
    """Ultrapeer 0 linked to every other one, no other links."""
    neighbors = {0: list(range(1, n)), **{i: [0] for i in range(1, n)}}
    return Topology(
        ultrapeers=list(range(n)),
        leaves=[],
        neighbors=neighbors,
        leaf_parent={},
        ultrapeer_leaves={i: [] for i in range(n)},
    )


def complete_topology(n=5):
    neighbors = {i: [j for j in range(n) if j != i] for i in range(n)}
    return Topology(
        ultrapeers=list(range(n)),
        leaves=[],
        neighbors=neighbors,
        leaf_parent={},
        ultrapeer_leaves={i: [] for i in range(n)},
    )


def placement_of(files_by_node):
    """A placement holding, at each node, one file per name given."""
    placement = Placement()
    for node, filenames in files_by_node.items():
        for filename in filenames:
            file = SharedFile(filename=filename, filesize=1, node_id=node)
            placement.files_by_node.setdefault(node, []).append(file)
            placement.replicas_by_filename.setdefault(filename, []).append(file)
    return placement


def network_of(topology, files_by_node):
    """``topology`` carrying ``files_by_node``'s content."""
    network = GnutellaNetwork(topology)
    network.load_placement(placement_of(files_by_node))
    return network


def closed_form_query(network, origin, terms, desired_results, max_ttl):
    """A dynamic query answered the way the program answers it, by replica
    depth, as ``(found, stop_ttl, first_arrival, messages)`` — the shape of
    :func:`oracle.reference_dynamic_query`.

    ``found`` is the sorted ``(filename, node_id)`` of the matching
    replicas within the stop TTL, the arrival is the latency model's for
    the shallowest one, and ``messages`` adds up the TTL-1 to TTL-stop
    rounds, each read off one flood's cumulative per-hop messages (a
    flood with TTL ``t`` sends what a deeper one had sent after hop ``t``).
    """
    matcher = ContentMatcher(network)
    names = matcher.matching_filenames(list(terms))
    replicas = matcher.replicas(names)
    depths = network.replica_depths(names, bfs_depths(network, origin))
    stop_ttl = dynamic_stop_ttl(depths, desired_results, max_ttl)
    found = sorted(
        (file.filename, file.node_id) for file, depth in zip(replicas, depths) if depth <= stop_ttl
    )
    first_arrival = network.latency_model.arrival_for_depth(min(depths, default=math.inf), stop_ttl)
    curve = flood(network.topology, network.topology.ultrapeer_of(origin), stop_ttl).messages_by_hop
    messages = sum(curve[min(ttl, len(curve) - 1)] for ttl in range(1, stop_ttl + 1))
    return found, stop_ttl, first_arrival, messages


def answered(topology, files_by_node, origin, terms, desired_results, max_ttl):
    """The closed form's answer, after holding it equal to the reference
    query that floods round by round."""
    network = network_of(topology, files_by_node)
    closed = closed_form_query(network, origin, terms, desired_results, max_ttl)
    reference = reference_dynamic_query(
        topology, network.placement, origin, terms, desired_results, max_ttl,
        network.latency_model,
    )
    assert closed == reference
    return closed


class TestFilenameMatch:
    """What a query matches: every term, case-folded, as a substring."""

    def test_match_conjunctive_substring(self):
        network = network_of(
            line_topology(2), {1: ["britney spears - toxic.mp3", "britney spears - lucky.mp3"]}
        )
        matcher = ContentMatcher(network)
        assert len(matcher.matching_replicas(["britney", "toxic"])) == 1
        assert len(matcher.matching_replicas(["britney"])) == 2

    def test_match_partial_token(self):
        network = network_of(line_topology(2), {1: ["toxic.mp3"]})
        assert len(ContentMatcher(network).matching_replicas(["toxi"])) == 1

    def test_no_match(self):
        network = network_of(line_topology(2), {1: ["something.mp3"]})
        assert ContentMatcher(network).matching_replicas(["absent"]) == []

    def test_matches_equal_full_scan(self):
        """Token-index candidates must not change match results."""
        names = [
            "darel montia - klorena.mp3",
            "darel bonzo - klore.mp3",
            "klorena velid - darel.avi",
            "unrelated thing.mp3",
        ]
        network = network_of(line_topology(4), {i: [name] for i, name in enumerate(names)})
        matcher = ContentMatcher(network)
        for terms in (["darel"], ["klore"], ["darel", "klorena"], ["velid"]):
            expected = [
                f for f in network.all_results_for([]) if all(t in f.filename.lower() for t in terms)
            ]
            assert matcher.matching_replicas(terms) == expected


class TestFlood:
    def test_ttl_zero_only_origin(self):
        topo = line_topology()
        result = flood(topo, 0, ttl=0)
        assert result.visited == {0}
        assert result.messages == 0

    def test_ttl_limits_reach(self):
        topo = line_topology(6)
        result = flood(topo, 0, ttl=2)
        assert result.visited == {0, 1, 2}

    def test_messages_on_line_have_no_duplicates(self):
        topo = line_topology(6)
        result = flood(topo, 0, ttl=5)
        assert result.messages == 5  # one per edge, no redundancy

    def test_cycle_has_duplicate_messages(self):
        topo = cycle_topology(6)
        result = flood(topo, 0, ttl=3)
        # 6-cycle from one origin: hops 1,2,3 — the two directions meet.
        assert len(result.visited) == 6
        assert result.messages > len(result.visited) - 1

    def test_matches_recorded_with_hop(self):
        """A replica is found at its host's hop depth from the origin."""
        network = network_of(line_topology(4), {2: ["rare item.mp3"]})
        assert network.replica_depths(["rare item.mp3"], bfs_depths(network, 0)) == [2]

    def test_origin_matches_at_hop_zero(self):
        network = network_of(line_topology(3), {0: ["rare item.mp3"]})
        assert network.replica_depths(["rare item.mp3"], bfs_depths(network, 0)) == [0]

    def test_cumulative_curves_monotone(self):
        topo = cycle_topology(8)
        result = flood(topo, 0, ttl=4)
        assert result.visited_by_hop == sorted(result.visited_by_hop)
        assert result.messages_by_hop == sorted(result.messages_by_hop)

    def test_negative_ttl_rejected(self):
        with pytest.raises(ValueError):
            flood(line_topology(), 0, ttl=-1)

    def test_stops_early_when_frontier_empty(self):
        topo = line_topology(3)
        result = flood(topo, 0, ttl=10)
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
    hop distances and degrees: the nodes reached and every message
    (duplicates included), both per-hop curves; and the replicas within
    ``ttl`` of the origin by depth are the reference's matches, each at
    its hop."""

    @pytest.mark.parametrize("ttl", [1, 3])
    @pytest.mark.parametrize("shape", sorted(FLOOD_TOPOLOGIES))
    def test_flood_equals_reference(self, shape, ttl):
        topo = FLOOD_TOPOLOGIES[shape]()
        rng = random.Random(f"{shape}|{ttl}")
        words = ("alpha beta", "alpha gamma", "beta gamma", "delta")
        network = network_of(topo, {
            node: [f"{rng.choice(words)} {node}.mp3" for _ in range(rng.randint(0, 2))]
            for node in topo.all_nodes()
        })
        origin = rng.choice(topo.ultrapeers)
        result = flood(topo, origin, ttl)
        visited, messages, visited_by_hop, messages_by_hop, matches = reference_flood(
            topo, network.placement, origin, ["alpha"], ttl
        )
        assert result.visited == visited
        assert result.messages == messages
        assert result.visited_by_hop == visited_by_hop
        assert result.messages_by_hop == messages_by_hop
        matcher = ContentMatcher(network)
        names = matcher.matching_filenames(["alpha"])
        depths = network.replica_depths(names, bfs_depths(network, origin))
        found = sorted(
            (file.filename, file.node_id, depth)
            for file, depth in zip(matcher.replicas(names), depths)
            if depth <= ttl
        )
        assert found == matches


class TestDynamicQuery:
    """Fixed cases of the closed form, each also held to the reference
    query that floods round by round."""

    def test_stops_when_enough_results(self):
        found, stop_ttl, _, _ = answered(
            line_topology(6), {1: ["rare hit.mp3"]}, 0, ["rare"], desired_results=1, max_ttl=5
        )
        assert stop_ttl == 1
        assert found == [("rare hit.mp3", 1)]

    def test_deepens_for_rare_items(self):
        _, stop_ttl, _, _ = answered(
            line_topology(6), {4: ["rare hit.mp3"]}, 0, ["rare"], desired_results=1, max_ttl=5
        )
        assert stop_ttl == 4

    def test_gives_up_at_max_ttl(self):
        found, stop_ttl, first_arrival, _ = answered(
            line_topology(8), {7: ["rare hit.mp3"]}, 0, ["rare"], desired_results=1, max_ttl=3
        )
        assert found == []
        assert stop_ttl == 3
        assert math.isinf(first_arrival)

    def test_results_deduplicated_across_rounds(self):
        found, _, _, _ = answered(
            line_topology(5), {1: ["rare hit.mp3"], 3: ["rare other.mp3"]}, 0, ["rare"],
            desired_results=2, max_ttl=4,
        )
        assert found == [("rare hit.mp3", 1), ("rare other.mp3", 3)]

    def test_first_result_round_and_hop(self):
        _, stop_ttl, first_arrival, _ = answered(
            line_topology(6), {3: ["rare hit.mp3"]}, 0, ["rare"], desired_results=1, max_ttl=5
        )
        # Rounds with TTL 1 and 2 go out and back (5 and 10 s) with an
        # 8 s pause each, after the 2 s overhead; the TTL-3 round finds
        # the file 3 hops out and its answer is back 15 s later.
        assert stop_ttl == 3
        assert first_arrival == 2.0 + (5.0 + 8.0) + (10.0 + 8.0) + 15.0

    def test_messages_compound_across_rounds(self):
        _, stop_ttl, _, messages = answered(
            line_topology(6), {}, 0, ["x"], desired_results=1, max_ttl=3
        )
        # rounds at ttl=1,2,3 re-flood: 1+2+3 messages on a line.
        assert stop_ttl == 3
        assert messages == 6

    def test_a_leaf_queries_through_its_parent(self):
        topology = line_topology(4)
        topology.leaves.append(9)
        topology.leaf_parent[9] = 2
        found, stop_ttl, _, _ = answered(
            topology, {0: ["rare a.mp3"], 3: ["rare b.mp3"]}, 9, ["rare"],
            desired_results=1, max_ttl=4,
        )
        assert (found, stop_ttl) == ([("rare b.mp3", 3)], 1)

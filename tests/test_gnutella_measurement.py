"""Tests for the union-of-k measurement campaign, and for the closed
form every dynamic query is answered by, held to the reference query
that floods round by round."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from oracle import reference_dynamic_query
from repro.gnutella.flooding import flood
from repro.gnutella.measurement import (
    ContentMatcher,
    bfs_depths,
    dynamic_stop_ttl,
    replay_campaign,
)
from repro.gnutella.network import GnutellaNetwork
from repro.gnutella.topology import Topology, TopologyConfig
from repro.workload.library import ContentLibrary
from repro.workload.queries import generate_workload

from tests.test_gnutella_flooding import closed_form_query, network_of


@pytest.fixture(scope="module")
def env():
    library = ContentLibrary.generate(
        num_items=120, vocabulary_size=300, max_replicas=60, rng=61
    )
    config = TopologyConfig(
        num_ultrapeers=60, num_leaves=240, new_client_fraction=0.0, seed=62
    )
    network = GnutellaNetwork.build(library, config, rng=63)
    workload = generate_workload(library, 60, rng=64)
    return library, network, workload


@pytest.fixture(scope="module")
def campaign(env):
    _, network, workload = env
    return replay_campaign(network, workload, max_ttl=3)


class TestContentMatcher:
    def test_matches_equal_oracle(self, env):
        library, network, workload = env
        matcher = ContentMatcher(network)
        for query in list(workload)[:30]:
            fast = {f.result_key for f in matcher.matching_replicas(list(query.terms))}
            slow = {f.result_key for f in network.all_results_for(list(query.terms))}
            assert fast == slow

    def test_miss_queries_match_nothing(self, env):
        _, network, _ = env
        matcher = ContentMatcher(network)
        assert matcher.matching_filenames(["qx0000qx"]) == []


class TestDynamicStopTtl:
    def test_stops_at_first_satisfying_ttl(self):
        assert dynamic_stop_ttl([1, 1, 2, 3], desired_results=2, max_ttl=5) == 1
        assert dynamic_stop_ttl([1, 2, 2], desired_results=3, max_ttl=5) == 2

    def test_caps_at_max_ttl(self):
        assert dynamic_stop_ttl([9, 9], desired_results=1, max_ttl=4) == 4

    def test_empty_depths(self):
        assert dynamic_stop_ttl([], desired_results=1, max_ttl=4) == 4


class TestFastPathEquivalence:
    def test_vantage_results_match_full_dynamic_query(self, env):
        """The campaign's per-vantage answer (BFS depths computed once,
        cut at the stop TTL) is the reference query's, round by round."""
        library, network, workload = env
        vantage = network.topology.ultrapeers[0]
        depths = bfs_depths(network, vantage)
        matcher = ContentMatcher(network)
        desired, max_ttl = 150, 3
        for query in list(workload)[:25]:
            terms = list(query.terms)
            found, stop, _, _ = reference_dynamic_query(
                network.topology, network.placement, vantage, terms, desired, max_ttl,
                network.latency_model,
            )
            matches = matcher.matching_replicas(terms)
            match_depths = network.replica_depths(
                matcher.matching_filenames(terms), depths
            )
            assert dynamic_stop_ttl(match_depths, desired, max_ttl) == stop
            fast = sorted(
                (f.filename, f.node_id)
                for f, depth in zip(matches, match_depths)
                if depth <= stop
            )
            assert fast == found, query.terms


#: filenames and query terms of the random worlds below: names share
#: words, and terms hit whole words, parts of words, case-folded words
#: and nothing
NAMES = ["alpha beta.mp3", "Alpha gamma.avi", "beta.mp3", "delta gamma.mp3", "gamma"]
TERMS = ["alpha", "GAMMA", "beta", "et", "zzz"]


@st.composite
def small_worlds(draw):
    """A small overlay, possibly disconnected, with leaves, a placement
    (node 99 is on no ultrapeer) and one query from an ultrapeer or a
    leaf."""
    size = draw(st.integers(2, 7))
    ultrapeers = list(range(size))
    edges = draw(st.sets(
        st.tuples(st.sampled_from(ultrapeers), st.sampled_from(ultrapeers))
        .filter(lambda edge: edge[0] < edge[1]),
        max_size=12,
    ))
    neighbors = {up: [] for up in ultrapeers}
    for a, b in draw(st.permutations(sorted(edges))):
        neighbors[a].append(b)
        neighbors[b].append(a)
    leaves = list(range(10, 10 + draw(st.integers(0, 4))))
    leaf_parent = {leaf: draw(st.sampled_from(ultrapeers)) for leaf in leaves}
    topology = Topology(ultrapeers, leaves, neighbors, leaf_parent)
    files_by_node = draw(st.dictionaries(
        st.sampled_from(ultrapeers + leaves + [99]),
        st.lists(st.sampled_from(NAMES), min_size=1, max_size=3),
        max_size=8,
    ))
    origin = draw(st.sampled_from(ultrapeers + leaves))
    return topology, files_by_node, origin


@settings(max_examples=200, deadline=None)
@given(
    world=small_worlds(),
    terms=st.lists(st.sampled_from(TERMS), max_size=2),
    desired_results=st.integers(1, 8),
    max_ttl=st.integers(1, 6),
)
def test_closed_form_equals_round_by_round_reference(world, terms, desired_results, max_ttl):
    """The replicas a dynamic query reaches, the TTL it stops at, its
    first result's arrival and the messages its rounds send, computed by
    replica depth, equal the reference query that floods TTL 1, 2, ...
    from scratch and scans what each round reaches."""
    topology, files_by_node, origin = world
    network = network_of(topology, files_by_node)
    closed = closed_form_query(network, origin, terms, desired_results, max_ttl)
    reference = reference_dynamic_query(
        topology, network.placement, origin, terms, desired_results, max_ttl,
        network.latency_model,
    )
    assert closed == reference


@settings(max_examples=150, deadline=None)
@given(world=small_worlds(), ttl=st.integers(0, 7))
def test_flood_horizon_is_the_depth_map_cut_at_its_ttl(world, ttl):
    """The ultrapeers a flood reaches (the warm-up snoop's horizon) are
    those the depth map the closed form reads puts within ``ttl``, and
    each hop's count of them is the depth map's."""
    topology, _, origin = world
    network = GnutellaNetwork(topology)
    start = topology.ultrapeer_of(origin)
    depths = bfs_depths(network, origin)
    result = flood(topology, start, ttl)
    assert result.visited == {up for up, depth in depths.items() if depth <= ttl}
    assert result.visited_by_hop == [
        sum(1 for depth in depths.values() if depth <= hop)
        for hop in range(len(result.visited_by_hop))
    ]


@settings(max_examples=150, deadline=None)
@given(world=small_worlds(), deepest=st.integers(0, 7))
def test_a_shallower_flood_sends_what_a_deeper_one_had_sent_by_its_ttl(world, deepest):
    """What the closed form's message count relies on: a flood with TTL
    ``t`` reaches and sends what a deeper flood had after hop ``t`` (its
    last entry once the frontier emptied)."""
    topology, _, origin = world
    start = topology.ultrapeer_of(origin)
    deep = flood(topology, start, deepest)
    last = len(deep.messages_by_hop) - 1
    for ttl in range(deepest + 1):
        shallow = flood(topology, start, ttl)
        assert shallow.messages == deep.messages_by_hop[min(ttl, last)]
        assert len(shallow.visited) == deep.visited_by_hop[min(ttl, last)]
        assert shallow.visited <= deep.visited


@settings(max_examples=150, deadline=None)
@given(
    world=small_worlds(),
    terms=st.lists(st.sampled_from(TERMS), max_size=2),
    desired_results=st.integers(1, 8),
    max_ttl=st.integers(1, 5),
)
def test_a_deeper_limit_loses_no_result(world, terms, desired_results, max_ttl):
    """Raising ``max_ttl`` never lowers the stop TTL and never drops a
    replica the shallower query reached; it changes nothing once the
    query had enough results."""
    topology, files_by_node, origin = world
    network = network_of(topology, files_by_node)
    found, stop, first, _ = closed_form_query(network, origin, terms, desired_results, max_ttl)
    deeper = closed_form_query(network, origin, terms, desired_results, max_ttl + 1)
    assert deeper[1] >= stop
    assert set(found) <= set(deeper[0])
    if len(found) >= desired_results:
        assert deeper[:3] == (found, stop, first)


class TestCampaignStatistics:
    def test_every_query_replayed(self, env, campaign):
        _, _, workload = env
        assert len(campaign.replays) == len(workload)

    def test_union_monotone_in_k(self, campaign):
        for replay in campaign.replays:
            ks = sorted(replay.union_results_by_k)
            values = [replay.union_results_by_k[k] for k in ks]
            assert values == sorted(values)

    def test_union_at_least_single(self, campaign):
        max_k = max(campaign.replays[0].union_results_by_k)
        for replay in campaign.replays:
            assert replay.union_results_by_k[max_k] >= replay.single_results

    def test_distinct_bounded_by_results(self, campaign):
        for replay in campaign.replays:
            assert replay.single_distinct <= replay.single_results

    def test_fraction_at_most_monotone_in_threshold(self, campaign):
        assert campaign.fraction_with_at_most(0) <= campaign.fraction_with_at_most(10)

    def test_latency_infinite_iff_no_single_results(self, campaign):
        for replay in campaign.replays:
            if replay.single_results == 0:
                assert math.isinf(replay.first_result_latency)
            else:
                assert not math.isinf(replay.first_result_latency)

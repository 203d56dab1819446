"""Tests for the union-of-k measurement campaign, including the
fast-path-vs-full-simulation equivalence check."""

import math

import pytest

from repro.gnutella.dynamic import dynamic_query
from repro.gnutella.measurement import (
    ContentMatcher,
    bfs_depths,
    dynamic_stop_ttl,
    replay_campaign,
)
from repro.gnutella.network import GnutellaNetwork
from repro.gnutella.topology import TopologyConfig
from repro.workload.library import ContentLibrary
from repro.workload.queries import generate_workload


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
        """The precomputed-BFS fast path must reproduce dynamic_query."""
        library, network, workload = env
        vantage = network.topology.ultrapeers[0]
        depths = bfs_depths(network, vantage)
        matcher = ContentMatcher(network)
        desired, max_ttl = 150, 3
        for query in list(workload)[:25]:
            terms = list(query.terms)
            full = dynamic_query(
                network.topology,
                network.indexes,
                vantage,
                terms,
                desired_results=desired,
                max_ttl=max_ttl,
            )
            full_keys = {f.result_key for f in full.results()}
            matches = matcher.matching_replicas(terms)
            match_depths = network.replica_depths(
                matcher.matching_filenames(terms), depths
            )
            stop = dynamic_stop_ttl(match_depths, desired, max_ttl)
            fast_keys = {
                f.result_key
                for f, depth in zip(matches, match_depths)
                if depth <= stop
            }
            assert fast_keys == full_keys, query.terms


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

"""The Gnutella content plane against its definitions.

One :class:`FilenameMatcher` answers "which filenames match" for a whole
network, every :class:`UltrapeerIndex` filters its own files by that
answer, and :meth:`GnutellaNetwork.replica_depths` and
:meth:`GnutellaNetwork.replicas_hosted_by` read one per-replica host
table. All of it is an index-and-memo shortcut for plain scans, so each
piece is held — order included — to the scan written out in
``tests/oracle.py``.
"""

import hashlib
import math

import pytest
from hypothesis import given, settings, strategies as st

from oracle import (
    reference_hosts,
    reference_replay,
    reference_replica_depths,
    reference_snoop,
    reference_stop_ttl,
    substring_scan,
)
from repro.gnutella.index import UNSELECTIVE_TOKENS, FilenameMatcher, UltrapeerIndex
from repro.gnutella.measurement import (
    DESIRED_RESULTS,
    UNION_KS,
    ContentMatcher,
    bfs_depths,
    dynamic_stop_ttl,
    replay_campaign,
)
from repro.gnutella.network import GnutellaNetwork
from repro.gnutella.topology import Topology, TopologyConfig
from repro.workload.library import ContentLibrary, Placement, SharedFile
from repro.workload.queries import generate_workload

WORDS = ["darel", "Klorena", "klore", "velid", "montia", "bonzo", "a1", "x"]
SEPARATORS = [" ", " - ", "_", "."]


def filename_of(file: SharedFile) -> str:
    return file.filename


def line_network(files_by_node, leaf_parents=None):
    """Ultrapeers 0-1-2-3 in a line, leaves as given, content as given."""
    leaf_parents = leaf_parents or {}
    topology = Topology(
        ultrapeers=[0, 1, 2, 3],
        leaves=list(leaf_parents),
        neighbors={0: [1], 1: [0, 2], 2: [1, 3], 3: [2]},
        leaf_parents=leaf_parents,
    )
    placement = Placement()
    for node, names in files_by_node.items():
        for name in names:
            file = SharedFile(name, 1000, node)
            placement.files_by_node.setdefault(node, []).append(file)
            placement.replicas_by_filename.setdefault(name, []).append(file)
    network = GnutellaNetwork(topology)
    network.load_placement(placement)
    return network


def matcher_over(names):
    matcher = FilenameMatcher()
    for name in names:
        matcher.add(name)
    return matcher


def placed_replicas(network):
    return [
        replica
        for replicas in network.placement.replicas_by_filename.values()
        for replica in replicas
    ]


# ----------------------------------------------------------------------
# hypothesis differential: matcher, standalone index, shared index,
# ContentMatcher == substring scan, order included
# ----------------------------------------------------------------------

word = st.sampled_from(WORDS)
filename = st.builds(
    lambda words, separators, extension: "".join(
        part for pair in zip(words, separators) for part in pair
    ).rstrip(" -_.")
    + extension,
    st.lists(word, min_size=1, max_size=4),
    st.lists(st.sampled_from(SEPARATORS), min_size=4, max_size=4),
    st.sampled_from([".mp3", ".AVI", ""]),
)
term = st.one_of(
    word,
    word.map(str.upper),
    # a substring of a longer token
    st.builds(lambda w, cut: w[cut:] or w, word, st.integers(0, 3)),
    st.builds(lambda w, cut: w[: max(1, cut)], word, st.integers(1, 4)),
    # matches no token; straddles two tokens; empty
    st.sampled_from(["qx0000qx", "darel k", "a1.mp", " - ", ""]),
)
terms = st.lists(term, min_size=0, max_size=3)
#: node -> filenames; nodes 0-3 are ultrapeers, 10/11 leaves (11 has two
#: parents), 12 a leaf nobody adopted
placements = st.dictionaries(
    st.sampled_from([0, 1, 2, 3, 10, 11, 12]),
    st.lists(filename, min_size=1, max_size=5),
    min_size=1,
)


@settings(max_examples=150, deadline=None)
@given(names=st.lists(filename, max_size=12), query=terms)
def test_matcher_equals_substring_scan(names, query):
    distinct = list(dict.fromkeys(names))
    matcher = matcher_over(names)
    expected = substring_scan(distinct, query)
    assert list(matcher.match(query)) == expected
    assert matcher.matching_set(query) == frozenset(expected)
    assert list(matcher.match(query)) == expected  # memoized answer


@settings(max_examples=150, deadline=None)
@given(names=st.lists(filename, max_size=12), query=terms)
def test_standalone_index_equals_scan_of_its_files(names, query):
    index = UltrapeerIndex()
    # duplicate filenames at one ultrapeer are separate files
    index.add_files([SharedFile(name, 1, node) for node, name in enumerate(names)])
    expected = substring_scan(index.files, query, filename_of) if query else []
    assert index.match(query) == expected


@settings(max_examples=100, deadline=None)
@given(files_by_node=placements, query=terms)
def test_network_shared_indexes_equal_scan(files_by_node, query):
    network = line_network(files_by_node, {10: [0], 11: [1, 3], 12: []})
    for index in network.indexes.values():
        expected = substring_scan(index.files, query, filename_of) if query else []
        assert index.match(query) == expected
    matcher = ContentMatcher(network)
    replicas = placed_replicas(network)
    assert matcher.matching_replicas(query) == substring_scan(
        replicas, query, filename_of
    )
    assert {id(f) for f in matcher.matching_replicas(query)} == {
        id(f) for f in network.all_results_for(query)
    }


# ----------------------------------------------------------------------
# the named edges
# ----------------------------------------------------------------------


def test_unselective_term_falls_back_to_the_scan():
    names = [f"ab{index:02d} tail{index % 3}.mp3" for index in range(UNSELECTIVE_TOKENS + 10)]
    matcher = matcher_over(names)
    # "ab" sits inside more tokens than the index will union
    assert list(matcher.match(["ab"])) == names
    assert list(matcher.match(["AB", "tail1"])) == substring_scan(names, ["ab", "tail1"])
    assert list(matcher.match(["ab", "qx0000qx"])) == []


def test_empty_query_answers_are_pinned_per_caller():
    """Three callers, three meanings of "no terms" — kept apart on purpose."""
    network = line_network({0: ["alpha.mp3"], 10: ["beta.mp3", "alpha.mp3"]}, {10: [1]})
    assert list(network.matcher.match([])) == ["alpha.mp3", "beta.mp3"]
    assert all(index.match([]) == [] for index in network.indexes.values())
    assert ContentMatcher(network).matching_filenames([]) == ["alpha.mp3", "beta.mp3"]
    assert len(network.all_results_for([])) == 3


def test_file_added_after_a_memoized_query_is_found():
    index = UltrapeerIndex()
    index.add_files([SharedFile("darel montia.mp3", 1, 1)])
    assert [f.filename for f in index.match(["darel"])] == ["darel montia.mp3"]
    assert index.match(["klorena"]) == []
    index.add_files([SharedFile("Klorena darel.avi", 1, 2)])
    assert [f.filename for f in index.match(["darel"])] == [
        "darel montia.mp3",
        "Klorena darel.avi",
    ]
    assert len(index.match(["klorena"])) == 1


def test_term_scan_memoised_by_one_query_sees_a_name_learnt_later():
    """A term's token scan is kept per term, across queries, so it must go
    with the per-query memo when ``add`` learns a name: here a term
    scanned as absent and one scanned as present both meet a later name
    through queries that never ran before it."""
    matcher = matcher_over(["darel montia.mp3"])
    assert list(matcher.match(["darel", "klore"])) == []  # "klore": absent
    assert list(matcher.match(["montia", "darel"])) == ["darel montia.mp3"]
    matcher.add("Klorena darel.avi")
    assert list(matcher.match(["klore"])) == ["Klorena darel.avi"]
    assert list(matcher.match(["DAREL"])) == ["darel montia.mp3", "Klorena darel.avi"]
    assert list(matcher.match(["darel", "klore"])) == ["Klorena darel.avi"]


def test_shared_matcher_learns_from_any_index_of_the_network():
    network = line_network({0: ["darel montia.mp3"], 1: ["unrelated.mp3"]})
    contents = ContentMatcher(network)
    assert network.indexes[1].match(["darel"]) == []
    assert len(contents.matching_replicas(["darel"])) == 1
    late = SharedFile("late darel.mp3", 1, 1)
    network.indexes[1].add_files([late])
    assert network.indexes[1].match(["darel"]) == [late]
    assert len(network.indexes[0].match(["darel"])) == 1
    # the campaign's view stays the placement's
    assert contents.matching_filenames(["darel"]) == ["darel montia.mp3"]


# ----------------------------------------------------------------------
# replica_depths and dynamic_stop_ttl == the loops they replaced
# ----------------------------------------------------------------------


def test_replica_depths_equal_generator_min_form():
    # 11 has two parents, 12 none, 99 is outside the topology altogether
    network = line_network(
        {0: ["a.mp3"], 3: ["a.mp3", "b.mp3"], 10: ["b.mp3"], 11: ["a.mp3"],
         12: ["b.mp3"], 99: ["a.mp3"]},
        {10: [2], 11: [3, 1], 12: []},
    )
    hosts = reference_hosts(network)
    names = ["b.mp3", "a.mp3"]
    replicas = ContentMatcher(network).replicas(names)
    full = bfs_depths(network, 0)
    for depth_map in (full, {0: 0, 1: 1}, {3: 0}, {}):
        expected = reference_replica_depths(replicas, hosts, depth_map)
        assert network.replica_depths(names, depth_map) == expected
    assert network.replica_depths(names, full) == [3, 2, math.inf, 0, 3, 1, math.inf]
    assert network.replica_depths([], full) == []


@settings(max_examples=200, deadline=None)
@given(
    files_by_node=placements,
    query=terms,
    horizon=st.sets(st.sampled_from([0, 1, 2, 3, 42])),
    threshold=st.integers(0, 12),
)
def test_thresholded_snoop_equals_the_full_snoop_below_its_threshold(
    files_by_node, query, horizon, threshold
):
    """The warm-up snoop reads the replicas inside a flood's horizon only
    up to the QRS threshold. Leaf 10 has one parent, leaf 11 two (its
    second host is one of the table's ``others`` rows) and leaf 12 none
    (its first host is ``None``); 42 is no ultrapeer at all."""
    network = line_network(files_by_node, {10: [0], 11: [1, 3], 12: []})
    names = ContentMatcher(network).matching_filenames(query)
    full = [id(file) for file in reference_snoop(network, names, horizon)]
    cut = [id(file) for file in network.replicas_hosted_by(names, horizon, threshold)]
    if len(cut) < threshold:
        assert cut == full
    else:
        assert len(full) >= threshold and cut == full[: len(cut)]
    every = network.replicas_hosted_by(names, horizon, len(full) + 1)
    assert [id(file) for file in every] == full


def test_thresholded_snoop_stops_at_the_filename_that_reaches_it():
    network = line_network(
        {0: ["a.mp3", "b.mp3"], 3: ["a.mp3"], 11: ["a.mp3", "c.mp3"], 12: ["a.mp3"]},
        {11: [2, 3], 12: []},
    )
    names = ["a.mp3", "b.mp3", "c.mp3"]
    replicas = network.placement.replicas_by_filename
    a, b, c = (replicas[name] for name in names)
    # a.mp3 at 0, 3, 11 (through its second parent, 3) and 12 (no parent)
    assert network.replicas_hosted_by(names, {0, 3}, 99) == [a[0], a[1], a[2], b[0], c[0]]
    assert network.replicas_hosted_by(names, {0, 3}, 3) == [a[0], a[1], a[2]]
    assert network.replicas_hosted_by(names, {0, 3}, 4) == [a[0], a[1], a[2], b[0]]
    assert network.replicas_hosted_by(names, {2}, 99) == [a[2], c[0]]
    assert network.replicas_hosted_by(names, set(), 99) == []
    assert network.replicas_hosted_by([], {0}, 0) == []


depth = st.one_of(
    st.integers(-1, 9),
    st.just(math.inf),
    st.floats(0, 9, allow_nan=False),
)


@settings(max_examples=300, deadline=None)
@given(
    depths=st.lists(depth, max_size=40),
    desired=st.integers(-2, 30),
    max_ttl=st.integers(0, 8),
)
def test_dynamic_stop_ttl_equals_per_ttl_recount(depths, desired, max_ttl):
    assert dynamic_stop_ttl(depths, desired, max_ttl) == reference_stop_ttl(
        depths, desired, max_ttl
    )


# ----------------------------------------------------------------------
# the union-of-k campaign
# ----------------------------------------------------------------------

#: sha256 of ``repr((vantages, replays))`` for the world below, recorded
#: from the campaign before its vantage count, result target and union
#: sizes became constants (one-connection leaves, the default miss rate)
CAMPAIGN_DIGEST = "b5b10132a813e7575447de5e935e7e1c5d57bfd6a9db80e0d6100bfa79c38077"


@pytest.fixture(scope="module")
def campaign_world():
    library = ContentLibrary.generate(
        num_items=120, vocabulary_size=300, max_replicas=60, rng=61
    )
    config = TopologyConfig(
        num_ultrapeers=60, num_leaves=240, new_client_fraction=0.0, seed=62,
    )
    network = GnutellaNetwork.build(library, config, rng=63)
    workload = generate_workload(library, 60, rng=64)
    campaign = replay_campaign(network, workload, max_ttl=3)
    return network, workload, campaign


def test_campaign_equals_the_previous_implementation(campaign_world):
    _, _, campaign = campaign_world
    digest = hashlib.sha256(repr((campaign.vantages, campaign.replays)).encode())
    assert digest.hexdigest() == CAMPAIGN_DIGEST


def test_campaign_equals_reference_replay(campaign_world):
    network, workload, campaign = campaign_world
    depth_maps = [bfs_depths(network, vantage) for vantage in campaign.vantages]
    for position, (query, replay) in enumerate(zip(workload, campaign.replays)):
        designated = position % len(campaign.vantages)
        expected = reference_replay(
            network, query, depth_maps, DESIRED_RESULTS, UNION_KS, 3, designated
        )
        first_depth = expected.pop("first_depth")
        for name, value in expected.items():
            assert getattr(replay, name) == value, (query.terms, name)
        assert replay.first_result_latency == network.latency_model.arrival_for_depth(
            first_depth, 3
        )

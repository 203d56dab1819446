"""Property-based tests (hypothesis) on core data structures and invariants."""

import math
import random

from hypothesis import given, settings, strategies as st

from repro.common.ids import KEY_SPACE, hash_key, in_interval, ring_distance
from repro.model.analytical import SystemParameters, pf_gnutella, pf_hybrid
from repro.pier.operators import JoinProbe, StoredHashJoin
from repro.piersearch.tokenizer import extract_keywords, tokenize

from oracle import dht_get, dht_put, nested_loop_join, ring_of

ring_points = st.integers(min_value=0, max_value=KEY_SPACE - 1)


class TestRingProperties:
    @given(a=ring_points, b=ring_points)
    def test_distance_inverse(self, a, b):
        assert (a + ring_distance(a, b)) % KEY_SPACE == b

    @given(a=ring_points, b=ring_points, c=ring_points)
    def test_triangle_through_midpoint(self, a, b, c):
        """Going a->b->c clockwise is never shorter than a->c directly
        modulo the ring (equality holds when b lies on the way)."""
        via = ring_distance(a, b) + ring_distance(b, c)
        direct = ring_distance(a, c)
        assert via % KEY_SPACE == direct or via > direct

    @given(value=ring_points, start=ring_points, end=ring_points)
    def test_interval_membership_consistent_with_distance(self, value, start, end):
        if start != end:
            expected = ring_distance(start, value) <= ring_distance(start, end) and value != start
            assert in_interval(value, start, end) == expected

    @given(ids=st.lists(ring_points, min_size=1, max_size=30, unique=True), key=ring_points)
    def test_responsible_node_is_first_clockwise(self, ids, key):
        owner = ring_of(ids).responsible(key)
        assert owner in ids
        # No other node lies strictly between the key and its owner.
        for node in ids:
            if node != owner:
                assert not in_interval(node, key - 1, owner, inclusive_end=False) or node == key


class TestJoinProperties:
    row_lists = st.lists(
        st.integers(min_value=0, max_value=20), min_size=0, max_size=30
    )

    @given(left=row_lists, right=row_lists)
    @settings(max_examples=50)
    def test_stored_join_equals_nested_loop_reference(self, left, right):
        """The arrivals a site built on ``right`` keeps are the nested-loop
        join of ``left`` with ``right``'s distinct keys, in arrival order."""
        matched = [{"k": key} for key in JoinProbe(StoredHashJoin(right)).probe(left)]
        reference = nested_loop_join(
            [{"k": v} for v in left], [{"k": v} for v in dict.fromkeys(right)], "k"
        )
        assert matched == reference

    @given(left=row_lists, right=row_lists)
    @settings(max_examples=50)
    def test_join_size_is_sum_of_products(self, left, right):
        from collections import Counter

        lc, rc = Counter(left), Counter(right)
        expected = sum(lc[k] * rc[k] for k in lc)
        left_rows = [{"k": v} for v in left]
        right_rows = [{"k": v} for v in right]
        assert len(nested_loop_join(left_rows, right_rows, "k")) == expected
        # A site keeps each arrival once, however often its key is stored.
        kept = sum(lc[k] for k in lc if k in rc)
        assert len(JoinProbe(StoredHashJoin(right)).probe(left)) == kept


class TestTokenizerProperties:
    @given(text=st.text(max_size=80))
    def test_tokens_lowercase_alnum(self, text):
        for token in tokenize(text):
            assert token == token.lower()
            assert token.isalnum()

    @given(text=st.text(max_size=80))
    def test_keywords_subset_of_tokens(self, text):
        tokens = set(tokenize(text))
        for keyword in extract_keywords(text):
            assert keyword in tokens

    @given(text=st.text(max_size=80))
    def test_keywords_idempotent_under_rejoin(self, text):
        keywords = extract_keywords(text)
        assert extract_keywords(" ".join(keywords)) == keywords


class TestModelProperties:
    @given(
        replicas=st.integers(min_value=0, max_value=2000),
        n=st.integers(min_value=10, max_value=5000),
        data=st.data(),
    )
    @settings(max_examples=60)
    def test_pf_gnutella_is_probability(self, replicas, n, data):
        horizon = data.draw(st.integers(min_value=0, max_value=n))
        params = SystemParameters(n=n, n_horizon=horizon)
        assert 0.0 <= pf_gnutella(replicas, params) <= 1.0

    @given(
        replicas=st.integers(min_value=0, max_value=100),
        pf_dht=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_pf_hybrid_at_least_each_component(self, replicas, pf_dht):
        params = SystemParameters(n=1000, n_horizon=50)
        hybrid = pf_hybrid(replicas, pf_dht, params)
        assert hybrid >= pf_gnutella(replicas, params) - 1e-12
        assert hybrid >= pf_dht - 1e-12
        assert hybrid <= 1.0 + 1e-12

    @given(n=st.integers(min_value=2, max_value=1000))
    def test_single_replica_pf_equals_horizon_fraction(self, n):
        """Equation (2) telescopes to Nh/N when R=1, for any network size."""
        horizon = n // 2
        params = SystemParameters(n=n, n_horizon=horizon)
        assert math.isclose(pf_gnutella(1, params), horizon / n, rel_tol=1e-9)


class TestDhtProperties:
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_lookup_owner_matches_oracle(self, seed):
        from repro.dht.network import DhtNetwork

        network = DhtNetwork(rng=seed)
        network.populate(24)
        rng = random.Random(seed)
        for _ in range(10):
            key = rng.getrandbits(160)
            assert network.lookup(key).owner == network.owner_of(key)

    @given(
        keys=st.lists(st.text(min_size=1, max_size=12), min_size=1, max_size=15, unique=True)
    )
    @settings(max_examples=20, deadline=None)
    def test_put_get_roundtrip_any_keys(self, keys):
        from repro.dht.network import DhtNetwork

        network = DhtNetwork(rng=5)
        network.populate(16)
        for index, key in enumerate(keys):
            dht_put(network, key, index)
        for index, key in enumerate(keys):
            assert index in dht_get(network, key)

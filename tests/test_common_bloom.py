"""Tests for the Bloom filter.

The per-shape mask memo is held to ``tests/oracle.py``'s
:func:`reference_bloom_bits` — the k shift-and-ORs per key, no memo —
across memo clears and a memo too small for one filter.
"""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.common import bloom as bloom_module
from repro.common.bloom import BloomFilter, bloom_for_keys

from oracle import reference_bloom_bits


class TestBasics:
    def test_added_items_always_found(self):
        bloom = BloomFilter.with_capacity(100)
        items = [f"term{i}" for i in range(100)]
        bloom.update(items)
        for item in items:
            assert item in bloom  # no false negatives, ever

    def test_empty_filter_contains_nothing(self):
        bloom = BloomFilter.with_capacity(10)
        assert "anything" not in bloom

    def test_false_positive_rate_near_target(self):
        bloom = BloomFilter.with_capacity(500, false_positive_rate=0.01)
        bloom.update(f"member{i}" for i in range(500))
        false_positives = sum(
            1 for i in range(5000) if f"nonmember{i}" in bloom
        )
        assert false_positives / 5000 < 0.05  # target 1%, generous headroom

    def test_len_counts_adds(self):
        bloom = BloomFilter.with_capacity(10)
        bloom.add("a")
        bloom.add("a")
        assert len(bloom) == 2

    def test_size_bytes(self):
        bloom = BloomFilter(num_bits=80, num_hashes=3)
        assert bloom.size_bytes == 10

    def test_fill_ratio_grows(self):
        bloom = BloomFilter.with_capacity(50)
        assert bloom.fill_ratio == 0.0
        bloom.update(f"x{i}" for i in range(50))
        assert 0.0 < bloom.fill_ratio < 1.0

    def test_estimated_fp_rate_tracks_fill(self):
        bloom = BloomFilter.with_capacity(50, false_positive_rate=0.01)
        bloom.update(f"x{i}" for i in range(50))
        assert 0.0 < bloom.estimated_false_positive_rate() < 0.1


class TestValidation:
    def test_rejects_tiny_filters(self):
        with pytest.raises(ValueError):
            BloomFilter(num_bits=4, num_hashes=1)

    def test_rejects_zero_hashes(self):
        with pytest.raises(ValueError):
            BloomFilter(num_bits=64, num_hashes=0)

    def test_with_capacity_validation(self):
        with pytest.raises(ValueError):
            BloomFilter.with_capacity(0)
        with pytest.raises(ValueError):
            BloomFilter.with_capacity(10, false_positive_rate=1.5)

    def test_compression_wins_over_explicit_set(self):
        """The point of Section 6.3's suggestion: the filter is much
        smaller than the term strings it encodes."""
        terms = [f"somelongishterm{i}" for i in range(2000)]
        bloom = BloomFilter.with_capacity(2000, false_positive_rate=0.01)
        bloom.update(terms)
        explicit_bytes = sum(len(t) for t in terms)
        assert bloom.size_bytes < explicit_bytes / 5


class TestSizingInvariants:
    """Sizing invariants the Bloom join's cost model depends on."""

    @settings(max_examples=50, deadline=None)
    @given(items=st.integers(min_value=1, max_value=100_000))
    def test_more_items_never_shrink_the_filter(self, items):
        smaller = BloomFilter.with_capacity(items, 0.01)
        larger = BloomFilter.with_capacity(items * 2, 0.01)
        assert larger.num_bits >= smaller.num_bits
        assert larger.size_bytes >= smaller.size_bytes

    @settings(max_examples=50, deadline=None)
    @given(
        items=st.integers(min_value=1, max_value=10_000),
        fp=st.floats(min_value=0.001, max_value=0.5),
    )
    def test_tighter_fp_target_never_shrinks_the_filter(self, items, fp):
        loose = BloomFilter.with_capacity(items, fp)
        tight = BloomFilter.with_capacity(items, fp / 2)
        assert tight.num_bits >= loose.num_bits
        assert tight.num_hashes >= loose.num_hashes

    @settings(max_examples=50, deadline=None)
    @given(
        items=st.integers(min_value=1, max_value=5_000),
        fp=st.floats(min_value=0.001, max_value=0.9),
    )
    def test_size_bytes_is_ceil_of_bits(self, items, fp):
        bloom = BloomFilter.with_capacity(items, fp)
        assert bloom.size_bytes == (bloom.num_bits + 7) // 8
        assert bloom.size_bytes * 8 >= bloom.num_bits

    @settings(max_examples=30, deadline=None)
    @given(
        keys=st.lists(st.text(min_size=1, max_size=30), max_size=200),
        fp=st.floats(min_value=0.005, max_value=0.5),
    )
    def test_bloom_for_keys_never_false_negative(self, keys, fp):
        """The Bloom join's correctness rests on this: every inserted key
        is found, whatever the sizing."""
        bloom = bloom_for_keys(keys, fp)
        for key in keys:
            assert key in bloom

    def test_bloom_for_keys_empty_is_minimal_and_matches_nothing(self):
        bloom = bloom_for_keys([])
        assert bloom.size_bytes == 1
        assert "anything" not in bloom

    def test_bloom_for_keys_sizes_for_the_key_count(self):
        keys = [f"key{i}" for i in range(500)]
        bloom = bloom_for_keys(keys, 0.01)
        reference = BloomFilter.with_capacity(500, 0.01)
        assert bloom.num_bits == reference.num_bits
        assert bloom.num_hashes == reference.num_hashes


def reference_positions(item, num_bits, num_hashes):
    """The filter's definition, written out: SHA-1 double hashing."""
    digest = hashlib.sha1(str(item).encode("utf-8")).digest()
    h1 = int.from_bytes(digest[:8], "big")
    h2 = int.from_bytes(digest[8:16], "big") | 1
    return [(h1 + i * h2) % num_bits for i in range(num_hashes)]


key_lists = st.lists(st.text(max_size=12), max_size=60)


class TestSetAtATime:
    """``update`` and ``matching`` are the only two loops; ``add`` and
    ``in`` are their one-item forms, and all of them hash an item once
    per process through a bounded memo that never shows in an answer."""

    @settings(max_examples=60, deadline=None)
    @given(members=key_lists, probes=key_lists, fp=st.floats(0.01, 0.5))
    def test_matching_is_the_membership_filter(self, members, probes, fp):
        bloom = bloom_for_keys(members, fp)
        probes = probes + members[:5]
        assert bloom.matching(probes) == [item for item in probes if item in bloom]
        assert bloom.matching(probes) == [
            item
            for item in probes
            if all(
                bloom._bits >> position & 1
                for position in reference_positions(
                    item, bloom.num_bits, bloom.num_hashes
                )
            )
        ]

    @settings(max_examples=60, deadline=None)
    @given(items=key_lists, cut=st.integers(0, 60))
    def test_update_equals_repeated_add(self, items, cut):
        bulk = BloomFilter(num_bits=257, num_hashes=4)
        bulk.update(items[:cut])
        bulk.update(iter(items[cut:]))  # any iterable, any split
        one_by_one = BloomFilter(num_bits=257, num_hashes=4)
        expected_bits = 0
        for item in items:
            one_by_one.add(item)
            for position in reference_positions(item, 257, 4):
                expected_bits |= 1 << position
        assert bulk._bits == one_by_one._bits == expected_bits
        assert len(bulk) == len(one_by_one) == len(items)

    def test_pinned_bit_pattern(self):
        """The filter cannot drift: bits, and hence false positives and
        wire bytes, of a fixed 128-key filter at fp 0.01, recorded before
        the hash memo and the bulk loops went in."""
        bloom = bloom_for_keys([f"file{i:04d}" for i in range(128)], 0.01)
        assert (bloom.num_bits, bloom.num_hashes, len(bloom)) == (1226, 7, 128)
        assert hex(bloom._bits) == (
            "0x2e8eeb422b3ff3c7634623c34230a2abca9e61e8eb6ee1f1f4223eb7a57afc5f"
            "9417b9b2bcf53fb54b746e9cbeffc1c113cd3d14fa0e5f717becb27730d1fcdaec"
            "150f91cc21a2617835cc78356f8c18b44d0dccc687585f59e3906b365dabf4349a"
            "6e46992fdc2624d9a297eb06e987a6f410cb1482cdb6a157f003328938f06d876b"
            "6e0de6ce537cdecd5505ec28a77164dcc0e7bdf38337"
        )
        false_positives = bloom.matching(f"miss{i:04d}" for i in range(500))
        assert false_positives == [
            "miss0107", "miss0126", "miss0219", "miss0228", "miss0229",
            "miss0260", "miss0481", "miss0495",
        ]  # fmt: skip

    def test_join_keys_build_and_probe_by_their_str_form(self):
        bloom = bloom_for_keys([1, 2, 3])
        assert bloom._bits == bloom_for_keys(["1", "2", "3"])._bits
        assert bloom.matching([3, "3", 2]) == [3, "3", 2]
        assert 1 in bloom and "1" in bloom

    def test_memo_is_bounded_and_clearing_it_changes_no_answer(self, monkeypatch):
        """The pair memo holds at most ``_HASH_MEMO_MAX`` items and the
        mask memo at most ``_MASK_MEMO_MAX_BITS`` bits over every shape;
        dropping either, mid-stream or between calls, moves no bit."""
        monkeypatch.setattr(bloom_module, "_HASH_MEMO_MAX", 8)
        clear_memos()
        keys = [f"key{i}" for i in range(100)]
        reference = bloom_for_keys(keys)
        num_bits = reference.num_bits
        monkeypatch.setattr(bloom_module, "_MASK_MEMO_MAX_BITS", 5 * num_bits)
        memo = bloom_module._hash_memo
        assert 0 < len(memo) <= 8
        clear_memos()
        bloom = BloomFilter(num_bits, reference.num_hashes)
        other = BloomFilter(num_bits + 1, reference.num_hashes)
        for index, key in enumerate(keys):
            if index % 7 == 0:
                memo.clear()  # mid-stream: the hash is pure
            bloom.add(key)
            other.add(key)
            assert len(memo) <= 8
            assert mask_memo_bits() <= 5 * num_bits
        assert bloom._bits == reference._bits
        assert other._bits == reference_bloom_bits(keys, num_bits + 1, reference.num_hashes)
        probes = keys[::3] + [f"other{i}" for i in range(200)]
        before = bloom.matching(probes)
        clear_memos()
        assert bloom.matching(probes) == before
        assert len(memo) <= 8
        assert mask_memo_bits() <= 5 * num_bits


def clear_memos():
    bloom_module._hash_memo.clear()
    bloom_module._mask_memos.clear()
    bloom_module._mask_memo_bits = 0


def mask_memo_bits():
    """Bits the mask memo holds, counted from its contents."""
    held = sum(
        num_bits * len(masks)
        for (num_bits, _), masks in bloom_module._mask_memos.items()
    )
    assert held == bloom_module._mask_memo_bits
    return held


#: join keys as the dataflow sees them (hex-ish strings) and as tests and
#: other callers pass them (ints), colliding on purpose: ``5`` and ``"5"``
#: are the same key to the filter
mixed_keys = st.lists(
    st.one_of(st.integers(0, 40), st.integers(0, 40).map(str), st.text(max_size=6)),
    max_size=50,
)


class TestMasksPerShape:
    """A key's k positions are memoised as one mask per filter shape:
    ``update`` is one OR per key and ``matching`` one masked compare, and
    the bits are the k-hash loop's, memo or no memo."""

    @settings(max_examples=80, deadline=None)
    @given(
        members=mixed_keys,
        probes=mixed_keys,
        num_bits=st.integers(8, 700),
        num_hashes=st.integers(1, 9),
        clear_at=st.integers(0, 50),
        bound=st.sampled_from([None, 1, 3]),
    )
    def test_bits_and_matches_equal_the_k_hash_loop(
        self, members, probes, num_bits, num_hashes, clear_at, bound
    ):
        """Equal ``_bits`` and equal ``matching`` output to the reference,
        with the memos cleared between two ``update`` calls and between
        update and probe, and with a mask memo holding ``bound`` masks
        (``None``: the default bound) — so it clears wholesale inside a
        single call."""
        saved = bloom_module._MASK_MEMO_MAX_BITS
        if bound is not None:
            bloom_module._MASK_MEMO_MAX_BITS = bound * num_bits
        try:
            bloom = BloomFilter(num_bits, num_hashes)
            bloom.update(members[:clear_at])
            clear_memos()
            bloom.update(iter(members[clear_at:]))
            expected = reference_bloom_bits(members, num_bits, num_hashes)
            assert bloom._bits == expected
            assert len(bloom) == len(members)
            found = bloom.matching(probes + members)
            clear_memos()
            assert bloom.matching(probes + members) == found
        finally:
            bloom_module._MASK_MEMO_MAX_BITS = saved
        assert found == [
            item
            for item in probes + members
            if expected & (mask := reference_bloom_bits([item], num_bits, num_hashes)) == mask
        ]

    def test_int_and_str_keys_share_one_memo_entry(self, monkeypatch):
        """Regression: the loops probed the memo with the raw item while it
        was keyed by ``str(item)``, so every non-str key missed on every
        call. ``5`` and ``"5"`` set the same bits, through one entry, and
        a key's mask is built once per shape however it is spelled."""
        built = []
        mask = bloom_module._mask

        def counting(masks, text, num_bits, num_hashes):
            built.append(text)
            return mask(masks, text, num_bits, num_hashes)

        monkeypatch.setattr(bloom_module, "_mask", counting)
        clear_memos()
        as_int, as_str = BloomFilter(97, 5), BloomFilter(97, 5)
        as_int.update([5, 5, 6])
        as_str.update(["5", "6"])
        assert as_int._bits == as_str._bits == reference_bloom_bits(["5", "6"], 97, 5)
        assert as_int.matching([5, "5", 6, "6", 7]) == as_str.matching([5, "5", 6, "6", 7])
        assert built == ["5", "6", "7"]
        assert sorted(bloom_module._mask_memos[(97, 5)]) == ["5", "6", "7"]
        assert BloomFilter(98, 5).matching([5]) == [] and built[-1] == "5"

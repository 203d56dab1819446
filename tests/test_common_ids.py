"""Unit tests for ring identifiers and interval arithmetic."""

import pytest

from repro.common.ids import (
    KEY_BITS,
    KEY_SPACE,
    hash_key,
    hash_to_int,
    in_interval,
    ring_distance,
)


class TestHashing:
    def test_hash_key_deterministic(self):
        assert hash_key("britney") == hash_key("britney")

    def test_hash_key_distinct_inputs(self):
        assert hash_key("britney") != hash_key("spears")

    def test_hash_fits_in_keyspace(self):
        for key in ("", "a", "some longer key", "éè"):
            assert 0 <= hash_key(key) < KEY_SPACE

    def test_hash_to_int_matches_sha1_width(self):
        assert hash_to_int(b"x").bit_length() <= KEY_BITS

    def test_keyspace_size(self):
        assert KEY_SPACE == 2**160


class TestRingDistance:
    def test_zero_distance(self):
        assert ring_distance(42, 42) == 0

    def test_forward_distance(self):
        assert ring_distance(10, 15) == 5

    def test_wraparound(self):
        assert ring_distance(KEY_SPACE - 1, 1) == 2

    def test_asymmetric(self):
        assert ring_distance(10, 15) + ring_distance(15, 10) == KEY_SPACE


class TestInInterval:
    def test_simple_containment(self):
        assert in_interval(5, 3, 8)

    def test_excludes_start(self):
        assert not in_interval(3, 3, 8)

    def test_includes_end_by_default(self):
        assert in_interval(8, 3, 8)

    def test_excludes_end_when_open(self):
        assert not in_interval(8, 3, 8, inclusive_end=False)

    def test_wrapping_interval(self):
        assert in_interval(1, KEY_SPACE - 5, 3)
        assert in_interval(KEY_SPACE - 2, KEY_SPACE - 5, 3)
        assert not in_interval(10, KEY_SPACE - 5, 3)

    def test_full_ring_interval(self):
        # start == end covers the whole ring except the point itself.
        assert in_interval(7, 3, 3)
        assert in_interval(3, 3, 3)  # inclusive end
        assert not in_interval(3, 3, 3, inclusive_end=False)

    def test_values_reduced_modulo_keyspace(self):
        assert in_interval(KEY_SPACE + 5, 3, 8)

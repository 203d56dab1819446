"""Unit tests for ring arithmetic shared by DHT components: finger
starts, and the owner and successor-list bisects of the sorted ring."""

import pytest

from repro.common.ids import KEY_SPACE
from repro.dht.keyspace import finger_start
from oracle import ring_of


def responsible_node(ids, key):
    return ring_of(ids).responsible(key)


def successor_list(ids, node_id, count):
    return ring_of(ids).successor_list(node_id, count)


class TestFingerStart:
    def test_first_finger(self):
        assert finger_start(10, 0) == 11

    def test_wraps_around(self):
        assert finger_start(KEY_SPACE - 1, 1) == 1

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            finger_start(0, 160)
        with pytest.raises(ValueError):
            finger_start(0, -1)


class TestResponsibleNode:
    def test_exact_match(self):
        assert responsible_node([10, 20, 30], 20) == 20

    def test_next_clockwise(self):
        assert responsible_node([10, 20, 30], 15) == 20

    def test_wraparound_to_first(self):
        assert responsible_node([10, 20, 30], 35) == 10

    def test_empty_ring_rejected(self):
        with pytest.raises(ValueError):
            responsible_node([], 5)

    def test_single_node_owns_everything(self):
        assert responsible_node([42], 0) == 42
        assert responsible_node([42], KEY_SPACE - 1) == 42


class TestSuccessorList:
    def test_basic_successors(self):
        assert successor_list([10, 20, 30, 40], 10, 2) == [20, 30]

    def test_wraps(self):
        assert successor_list([10, 20, 30], 30, 2) == [10, 20]

    def test_excludes_self(self):
        assert 10 not in successor_list([10, 20], 10, 5)

    def test_count_capped_by_ring_size(self):
        assert len(successor_list([10, 20, 30], 10, 99)) == 2

    def test_empty_ring(self):
        assert successor_list([], 10, 3) == []

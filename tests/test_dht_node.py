"""Unit tests for a single DHT node's routing state."""

from repro.common.ids import KEY_SPACE
from repro.dht.network import DhtNetwork
from repro.dht.node import OWNS


def make_ring(ids):
    network = DhtNetwork()
    for node_id in ids:
        network.create_node(node_id)
    network.stabilize()
    return network.nodes


class TestOwnership:
    def test_single_node_owns_all(self):
        nodes = make_ring([100])
        assert nodes[100].route(5) == OWNS
        assert nodes[100].route(KEY_SPACE - 1) == OWNS

    def test_ownership_interval(self):
        nodes = make_ring([100, 200, 300])
        assert nodes[200].route(150) == OWNS
        assert nodes[200].route(200) == OWNS
        assert nodes[200].route(250) != OWNS
        assert nodes[200].route(100) != OWNS

    def test_wraparound_ownership(self):
        nodes = make_ring([100, 200, 300])
        # node 100 owns (300, 100]: wraps through zero.
        assert nodes[100].route(50) == OWNS
        assert nodes[100].route(350) == OWNS
        assert nodes[100].route(100) == OWNS


class TestRoutingState:
    def test_predecessor_set(self):
        nodes = make_ring([100, 200, 300])
        assert nodes[200].predecessor == 100
        assert nodes[100].predecessor == 300

    def test_successors_exclude_self(self):
        nodes = make_ring([100, 200, 300])
        assert 100 not in nodes[100].successors

    def test_fingers_deduplicated(self):
        nodes = make_ring([100, 200, 300])
        fingers = nodes[100].fingers
        assert len(fingers) == len(set(fingers))

    def test_closest_preceding_moves_toward_key(self):
        ids = [i * (KEY_SPACE // 16) for i in range(16)]
        nodes = make_ring(ids)
        origin = nodes[ids[0]]
        target = ids[9]
        nxt = origin.closest_preceding(target)
        assert nxt is not None
        # The hop must strictly reduce ring distance to the key.
        from repro.common.ids import ring_distance

        assert ring_distance(nxt, target) < ring_distance(ids[0], target)

    def test_closest_preceding_none_when_owner(self):
        nodes = make_ring([100])
        assert nodes[100].closest_preceding(50) is None

    def test_first_successor(self):
        nodes = make_ring([100, 200])
        assert nodes[100].first_successor() == 200

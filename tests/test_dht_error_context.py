"""DhtError structured context: failing key, partial path, hop count."""

import pytest

from repro.common.errors import DhtError
from repro.common.rng import make_rng
from repro.dht.network import DhtNetwork


def test_hops_defaults_to_path_length_minus_one():
    err = DhtError("m", key=5, path=[1, 2, 3])
    assert err.key == 5
    assert err.path == [1, 2, 3]
    assert err.hops == 2


def test_contextless_failure_leaves_fields_none():
    err = DhtError("empty network")
    assert err.key is None and err.path is None and err.hops is None


def test_empty_path_means_zero_hops():
    assert DhtError("m", path=[]).hops == 0


def test_path_is_copied_not_aliased():
    path = [1, 2]
    err = DhtError("m", path=path)
    path.append(3)
    assert err.path == [1, 2]


def test_empty_network_lookup_raises_without_route_context():
    network = DhtNetwork(rng=make_rng(1))
    with pytest.raises(DhtError) as excinfo:
        next(network.iter_lookup(42))
    assert excinfo.value.key is None
    assert excinfo.value.path is None


def test_stranded_walk_carries_key_partial_path_and_hops():
    """Every peer but the origin departs mid-walk: the failure names the
    key being routed and the partial route walked before stranding."""
    network = DhtNetwork(rng=make_rng(2))
    nodes = network.populate(6)
    origin = nodes[0].node_id
    key = (origin + 1) % (1 << 160)  # owned by origin's successor
    walk = network.iter_lookup(key, origin=origin)
    assert next(walk) == origin
    for node in nodes[1:]:
        network.remove_node(node.node_id, graceful=False)
    with pytest.raises(DhtError) as excinfo:
        for _ in walk:
            pass
    err = excinfo.value
    assert err.key == key
    assert err.path is not None and err.path[0] == origin
    assert err.hops == len(err.path) - 1
    assert f"{key:x}" in str(err)

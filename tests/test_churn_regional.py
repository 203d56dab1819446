"""Correlated regional leave: exactly-once handoff regression (satellite).

``regional_leave`` removes its arc in *reverse* ring order. These tests
pin the two properties that ordering buys: every handed-off value is
offered (and charged) exactly once, straight to the arc's live successor,
and a graceful victim's keys can never be swallowed by an abrupt
neighbour later in the same arc. A handoff is one sync: a digest naming
each offered row, then the rows the heir lacked.
"""

import random

from oracle import dht_put, reference_handoff_price
from repro.common.errors import KeyNotFoundError
from repro.common.rng import make_rng
from repro.common.units import MessageCost
from repro.dht.churn import ChurnProcess
from repro.common.ids import hash_key
from repro.dht.network import DhtNetwork

NUM_NODES = 32
NUM_KEYS = 80
ARC = 8


def build(seed=5):
    network = DhtNetwork(rng=make_rng(seed), replication=1)
    network.populate(NUM_NODES)
    for i in range(NUM_KEYS):
        dht_put(network, f"k-{i}", f"v-{i}")
    return network


def arc_nodes(network):
    ring = sorted(network.nodes)
    return ring[4 : 4 + ARC]


def drawn_arc(churn):
    """The arc ``churn.regional_leave(ARC)`` will take, and its heir: the
    start is the churn RNG's next ``randrange`` over the ring."""
    twin = random.Random()
    twin.setstate(churn.rng.getstate())
    ring = sorted(churn.network.nodes)
    start = twin.randrange(len(ring))
    arc = [ring[(start + i) % len(ring)] for i in range(ARC + 1)]
    return arc[:ARC], arc[ARC]


def stored_values(network, node_id):
    return [
        (key, value)
        for _, key, values in network.stored_items(node_id)
        for value in values
    ]


def handoff_cost(network):
    return network.meter.by_category.get("dht.handoff", MessageCost(0, 0))


def charged_since(network, before):
    after = handoff_cost(network)
    return MessageCost(after.messages - before.messages, after.bytes - before.bytes)


def exactly_once_price(network, arc):
    """Each victim syncs its own values, all new, to the arc's heir."""
    price = MessageCost(0, 0)
    for node in arc:
        held = len(stored_values(network, node))
        price += MessageCost(*reference_handoff_price(network.cost_model, held, held))
    return price


def test_graceful_regional_leave_hands_off_each_value_exactly_once():
    network = build()
    churn = ChurnProcess(network, make_rng(1), failure_fraction=0.0)
    arc, heir = drawn_arc(churn)
    stored = sum(len(stored_values(network, node)) for node in arc)
    assert stored > 0
    landing = stored_values(network, heir) + [
        pair for node in arc for pair in stored_values(network, node)
    ]
    expected = exactly_once_price(network, arc)
    # Two messages per victim holding anything: its digest and its rows.
    assert expected.messages == 2 * sum(1 for node in arc if stored_values(network, node))
    before = handoff_cost(network)
    victims = churn.regional_leave(ARC)
    assert [node for node, _ in victims] == arc
    assert all(graceful for _, graceful in victims)
    # One sync per victim, straight to the heir: no victim-to-victim cascade.
    assert charged_since(network, before) == expected
    # Each value lands on the heir exactly once; nothing lost, nothing suspect.
    assert sorted(stored_values(network, heir)) == sorted(landing)
    assert not network.suspect_ranges
    for i in range(NUM_KEYS):
        assert f"v-{i}" in network.get_raw(hash_key(f"k-{i}"), "dht.get")


def test_forward_order_removal_would_cascade_handoffs():
    """The regression baseline: front-to-back removal re-hands keys."""
    network = build()
    arc = arc_nodes(network)
    expected = exactly_once_price(network, arc)
    before = handoff_cost(network)
    for node in arc:
        network.remove_node(node, graceful=True)
    network.stabilize()
    # Keys cascade victim-to-victim: a sync per victim, each re-offering and
    # re-sending the values handed to it, so the same departure set
    # charges strictly more handoff bytes than the exactly-once order.
    charged = charged_since(network, before)
    assert charged.messages >= expected.messages
    assert charged.bytes > expected.bytes


def test_abrupt_regional_failure_hands_off_nothing_but_marks_suspects():
    network = build()
    before = handoff_cost(network)
    churn = ChurnProcess(network, make_rng(1))
    victims = churn.regional_leave(ARC, failure_fraction=1.0)
    assert all(not graceful for _, graceful in victims)
    assert handoff_cost(network) == before
    assert network.suspect_ranges


def test_graceful_victims_keys_survive_mixed_arc():
    """An abrupt victim late in the arc must not swallow graceful keys."""
    network = build()
    churn = ChurnProcess(network, make_rng(3))
    arc, _ = drawn_arc(churn)
    snapshots = {node: stored_values(network, node) for node in arc}
    victims = churn.regional_leave(ARC, failure_fraction=0.5)
    kinds = {graceful for _, graceful in victims}
    assert kinds == {True, False}  # genuinely mixed arc
    for node, graceful in victims:
        if not graceful:
            continue
        for key, value in snapshots[node]:
            try:
                values = network.get_raw(key, "dht.get")
            except KeyNotFoundError:
                values = []
            assert value in values, (
                f"graceful victim {node:x} lost value {value!r} "
                f"under key {key:x}"
            )

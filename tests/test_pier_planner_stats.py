"""Tests for catalog posting statistics and planner batch/strategy choice.

A posting size is the length of the ring owner's memoised
``StoredList`` view of the list: a repeated probe builds nothing, and a
write that changes the list changes the size.
"""

import pytest

from repro.common.errors import PlanError
from repro.dht.network import DhtNetwork
from repro.pier.catalog import Catalog, table_key
from repro.pier.operators import StoredList
from repro.pier.planner import (
    KeywordPlanner,
    MAX_BATCH_SIZE,
    MIN_BATCH_SIZE,
    batch_size_for,
)
from repro.pier.query import JoinStrategy
from repro.piersearch.publisher import Publisher

FILES = [
    ("nebula quasar one.mp3", "1.0.0.1"),
    ("nebula quasar two.mp3", "1.0.0.2"),
    ("nebula aurora three.mp3", "1.0.0.3"),
]


@pytest.fixture()
def world():
    network = DhtNetwork(rng=31)
    network.populate(24)
    catalog = Catalog(network)
    publisher = Publisher(network, catalog)
    for name, ip in FILES:
        publisher.publish_file(name, 100, ip, 6346)
    return network, catalog, publisher


def size(catalog, keyword):
    """The Inverted posting size the planner sizes a join stage with."""
    return catalog.posting_size("Inverted", keyword)


@pytest.fixture()
def builds(monkeypatch):
    """Counts every StoredList the store builds (the memo key is unchanged)."""
    built = []
    original = StoredList.__init__

    def counting(self, rows):
        built.append(len(rows))
        original(self, rows)

    monkeypatch.setattr(StoredList, "__init__", counting)
    return built


class TestMemoizedPostingStats:
    def test_replanning_probes_once_per_keyword(self, world, builds):
        network, catalog, _ = world
        planner = KeywordPlanner(catalog)
        for _ in range(25):
            planner.plan(["nebula", "quasar"], network.random_node_id())
        assert sorted(builds) == [2, 3]  # one view per keyword, ever

    def test_sizes_match_unmemoized_probe(self, world):
        network, catalog, _ = world
        assert size(catalog, "nebula") == 3
        assert size(catalog, "quasar") == 2
        assert size(catalog, "aurora") == 1
        assert size(catalog, "missing") == 0
        for keyword in ("nebula", "quasar", "aurora"):
            key = table_key("Inverted", keyword)
            stored = network.get_local(network.owner_of(key), key)
            assert size(catalog, keyword) == len(stored)

    def test_probe_shares_the_join_sites_view(self, world, builds):
        network, catalog, _ = world
        size(catalog, "nebula")
        handle = catalog.table("Inverted")
        view = handle.view_local(handle.host_of("nebula"), "nebula", StoredList)
        assert len(view.ids) == 3
        assert builds == [3]

    def test_publish_invalidates(self, world, builds):
        network, catalog, publisher = world
        assert size(catalog, "quasar") == 2
        publisher.publish_file("nebula quasar four.mp3", 100, "1.0.0.4", 6346)
        assert size(catalog, "quasar") == 3
        assert builds == [2, 3]

    def test_churn_invalidates(self, world):
        network, catalog, _ = world
        key = table_key("Inverted", "nebula")
        before = size(catalog, "nebula")
        # The owner leaves: its successor takes the list over and serves
        # the size; a crash of the new owner loses it (no handoff).
        network.remove_node(network.owner_of(key), graceful=True)
        network.stabilize()
        assert size(catalog, "nebula") == before
        network.remove_node(network.owner_of(key), graceful=False)
        network.stabilize()
        assert size(catalog, "nebula") < before

    def test_cache_hit_does_not_reprobe(self, world, builds):
        network, catalog, _ = world
        size(catalog, "nebula")
        for _ in range(10):
            size(catalog, "nebula")
        assert builds == [3]


class TestBatchSizeChoice:
    def test_scales_with_smallest_posting_list(self):
        tiny = batch_size_for(4)
        huge = batch_size_for(60_000)
        assert MIN_BATCH_SIZE <= tiny <= huge <= MAX_BATCH_SIZE
        assert tiny < huge

    def test_power_of_two_and_clamped(self):
        for size in (0, 1, 5, 77, 3000, 10**7):
            batch = batch_size_for(size)
            assert MIN_BATCH_SIZE <= batch <= MAX_BATCH_SIZE
            assert batch & (batch - 1) == 0

    def test_plan_carries_batch_size_and_sizes(self, world):
        network, catalog, _ = world
        planner = KeywordPlanner(catalog)
        plan = planner.plan(["nebula", "quasar"], network.random_node_id())
        # The sizes it observed pick the batch size and the stage order.
        assert plan.batch_size == batch_size_for(2)
        assert plan.keywords == ("quasar", "nebula")

    def test_a_named_strategy_is_sized_from_the_table_it_scans(self):
        """The InvertedCache plan orders its stages by InvertedCache
        sizes and the join plans by Inverted sizes, from one planner."""
        network = DhtNetwork(rng=31)
        network.populate(24)
        catalog = Catalog(network)
        inverted = Publisher(network, catalog)
        cache = Publisher(network, catalog, inverted_cache=True)
        for index, name in enumerate(["nebula quasar one.mp3", "quasar two.mp3"]):
            inverted.publish_file(name, 100, f"1.0.0.{index}", 6346)
            cache.publish_file(name, 100, f"1.0.0.{index}", 6346)
        for index in range(4):
            inverted.publish_file(f"nebula extra{index}.mp3", 100, f"1.0.1.{index}", 6346)
        assert [catalog.posting_size("Inverted", k) for k in ("nebula", "quasar")] == [5, 2]
        assert [catalog.posting_size("InvertedCache", k) for k in ("nebula", "quasar")] == [1, 2]
        planner = KeywordPlanner(catalog)
        node = network.random_node_id()
        join_plan = planner.plan(["nebula", "quasar"], node, strategy=JoinStrategy.DISTRIBUTED_JOIN)
        cache_plan = planner.plan(["nebula", "quasar"], node, strategy=JoinStrategy.INVERTED_CACHE)
        assert join_plan.keywords == ("quasar", "nebula")
        assert cache_plan.keywords == ("nebula", "quasar")
        assert cache_plan.stages[0].site == catalog.table("InvertedCache").host_of("nebula")


class TestStrategyChoice:
    def test_plan_with_auto_strategy(self, world):
        """Choosing a strategy is the optimizer's job: a planner built
        without one has nothing to price with (the optimizer-backed
        choice is covered in ``test_pier_optimizer.py``)."""
        network, catalog, _ = world
        planner = KeywordPlanner(catalog)
        with pytest.raises(PlanError):
            planner.plan(["nebula", "quasar"], network.random_node_id(), strategy=None)

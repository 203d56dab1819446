"""Tests for memoized catalog statistics and planner batch/strategy choice."""

import pytest

from repro.common.errors import PlanError
from repro.dht.network import DhtNetwork
from repro.pier.catalog import Catalog
from repro.pier.planner import KeywordPlanner, MAX_BATCH_SIZE, MIN_BATCH_SIZE
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


class TestMemoizedPostingStats:
    def test_replanning_probes_once_per_keyword(self, world):
        network, catalog, _ = world
        planner = KeywordPlanner(catalog)
        before = catalog.stats_probes
        for _ in range(25):
            planner.plan(["nebula", "quasar"], network.random_node_id())
        assert catalog.stats_probes == before + 2  # one probe per keyword, ever

    def test_sizes_match_unmemoized_probe(self, world):
        network, catalog, _ = world
        planner = KeywordPlanner(catalog)
        assert planner.posting_size("nebula") == 3
        assert planner.posting_size("quasar") == 2
        assert planner.posting_size("aurora") == 1
        assert planner.posting_size("missing") == 0

    def test_publish_invalidates(self, world):
        network, catalog, publisher = world
        planner = KeywordPlanner(catalog)
        assert planner.posting_size("quasar") == 2
        publisher.publish_file("nebula quasar four.mp3", 100, "1.0.0.4", 6346)
        assert planner.posting_size("quasar") == 3

    def test_churn_invalidates(self, world):
        network, catalog, _ = world
        planner = KeywordPlanner(catalog)
        size = planner.posting_size("nebula")
        probes = catalog.stats_probes
        # A join/leave changes key ownership: the cache must re-probe.
        network.remove_node(network.random_node_id(), graceful=True)
        network.stabilize()
        assert planner.posting_size("nebula") == size  # graceful handoff
        assert catalog.stats_probes == probes + 1

    def test_cache_hit_does_not_reprobe(self, world):
        network, catalog, _ = world
        planner = KeywordPlanner(catalog)
        planner.posting_size("nebula")
        probes = catalog.stats_probes
        for _ in range(10):
            planner.posting_size("nebula")
        assert catalog.stats_probes == probes


class TestBatchSizeChoice:
    def test_scales_with_smallest_posting_list(self, world):
        _, catalog, _ = world
        planner = KeywordPlanner(catalog)
        tiny = planner.choose_batch_size({"a": 4, "b": 10_000})
        huge = planner.choose_batch_size({"a": 60_000})
        assert MIN_BATCH_SIZE <= tiny <= huge <= MAX_BATCH_SIZE
        assert tiny < huge

    def test_power_of_two_and_clamped(self, world):
        _, catalog, _ = world
        planner = KeywordPlanner(catalog)
        for size in (0, 1, 5, 77, 3000, 10**7):
            batch = planner.choose_batch_size({"k": size})
            assert MIN_BATCH_SIZE <= batch <= MAX_BATCH_SIZE
            assert batch & (batch - 1) == 0

    def test_plan_carries_batch_size_and_sizes(self, world):
        network, catalog, _ = world
        planner = KeywordPlanner(catalog)
        plan = planner.plan(["nebula", "quasar"], network.random_node_id())
        # The sizes it observed pick the batch size and the stage order.
        assert plan.batch_size == planner.choose_batch_size({"nebula": 3, "quasar": 2})
        assert plan.keywords == ("quasar", "nebula")


class TestStrategyChoice:
    def test_plan_with_auto_strategy(self, world):
        """Choosing a strategy is the optimizer's job: a planner built
        without one has nothing to price with (the optimizer-backed
        choice is covered in ``test_pier_optimizer.py``)."""
        network, catalog, _ = world
        planner = KeywordPlanner(catalog)
        with pytest.raises(PlanError):
            planner.plan(["nebula", "quasar"], network.random_node_id(), strategy=None)

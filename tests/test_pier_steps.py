"""One step list per strategy, executed and priced as the same list.

:func:`repro.pier.query.plan_steps` spells each join strategy out once;
the dataflow runtime interprets the list and the cost-based optimizer
prices it. Two differentials keep both readers honest:

* the edges a running dataflow actually ships over — every plan leg it
  charges and every ``ship_batch`` call, as (category, source stage,
  target stage), and the site every Item fetch starts from — are the
  list's ship and fetch steps, in order, for every strategy, chain
  length and batching, with Item fetches and without;
* the step-by-step price equals the closed-form per-strategy sums of
  :func:`oracle.reference_estimates`, byte for byte.
"""

import re
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.dht.network import DhtNetwork
from repro.pier.catalog import Catalog
from repro.pier.dataflow import DataflowExecutor, _QueryRun
from repro.pier.optimizer import CostBasedOptimizer
from repro.pier.planner import KeywordPlanner
from repro.pier.query import (
    QUERY_NODE,
    DistributedPlan,
    Edge,
    JoinStrategy,
    Op,
    Step,
    plan_steps,
)
from repro.piersearch.publisher import Publisher
from repro.piersearch.search import SearchEngine

from oracle import reference_estimates

PIER = Path(__file__).resolve().parent.parent / "src" / "repro" / "pier"
TERMS = ["amber", "birch", "cedar", "dune", "ember"]


class TestStepLists:
    def test_memoised_and_immutable(self):
        for strategy in JoinStrategy:
            steps = plan_steps(strategy, 3)
            assert isinstance(steps, tuple)
            assert plan_steps(strategy, 3) is steps

    def test_one_stage_semi_and_bloom_run_the_distributed_join(self):
        join = plan_steps(JoinStrategy.DISTRIBUTED_JOIN, 1)
        assert plan_steps(JoinStrategy.SEMI_JOIN, 1) == join
        assert plan_steps(JoinStrategy.BLOOM_JOIN, 1) == join

    def test_only_the_bloom_return_leg_extends_the_path(self):
        for strategy in JoinStrategy:
            for k in range(1, 6):
                flagged = [s for s in plan_steps(strategy, k) if s.extends_path]
                if strategy is JoinStrategy.BLOOM_JOIN and k > 1:
                    assert flagged == [
                        s for s in plan_steps(strategy, k)
                        if s.op == Op.SHIP and s.stage == k - 1 and s.to == 0
                    ]
                else:
                    assert flagged == []

    @pytest.mark.parametrize("strategy", list(JoinStrategy))
    def test_the_fetch_step_sits_where_the_matches_are(self, strategy):
        """The distributed join and the InvertedCache plan ship their
        answers and fetch at the query node (Figures 2 and 3); the
        rewrites fetch at the site whose operator produced the matches
        and ship no answer leg. Without Item fetches every strategy ships
        its answer keys to the query node."""
        for k in range(1, 6):
            rewrite = k > 1 and strategy in (
                JoinStrategy.SEMI_JOIN, JoinStrategy.BLOOM_JOIN
            )
            # The stage holding the matches: the chain's last join site,
            # the Bloom verify site, or the one site a cache plan scans.
            matches = k - 1
            if strategy in (JoinStrategy.BLOOM_JOIN, JoinStrategy.INVERTED_CACHE):
                matches = 0
            fetching = plan_steps(strategy, k)
            answers = [(s.stage, s.to) for s in fetching if s.edge == Edge.ANSWER]
            fetches = [s for s in fetching if s.op == Op.FETCH]
            if rewrite:
                assert answers == []
                assert fetches == [Step(Op.FETCH, matches, QUERY_NODE)]
            else:
                assert answers == [(matches, QUERY_NODE)]
                assert fetches == [Step(Op.FETCH, QUERY_NODE, QUERY_NODE)]
            bare = plan_steps(strategy, k, fetch_items=False)
            assert [s for s in bare if s.op == Op.FETCH] == []
            assert [(s.stage, s.to) for s in bare if s.edge == Edge.ANSWER] == [
                (matches, QUERY_NODE)
            ]
            assert fetching[-1] == bare[-1] == Step(Op.ANSWER, QUERY_NODE)

    def test_strategy_branches_live_in_the_step_builder(self):
        """The runtime never names a strategy member, and the optimizer
        only in its tie-break order."""
        member = re.compile(r"JoinStrategy\.[A-Z_]+")
        assert member.findall((PIER / "dataflow.py").read_text()) == []
        assert len(member.findall((PIER / "optimizer.py").read_text())) == len(
            JoinStrategy
        )


def build_world():
    """Every term in a dozen files, each also alone in a few more, with
    the InvertedCache table published beside the Inverted one."""
    network = DhtNetwork(rng=3)
    network.populate(64)
    catalog = Catalog(network)
    publishers = [
        Publisher(network, catalog),
        Publisher(network, catalog, inverted_cache=True),
    ]
    files = [" ".join(TERMS) + f" all{index:02d}.mp3" for index in range(12)]
    for position, term in enumerate(TERMS):
        files += [f"{term} solo{index:02d}.mp3" for index in range(position + 2)]
    for index, name in enumerate(files):
        for publisher in publishers:
            publisher.publish_file(name, 1000 + index, f"10.0.0.{index}", 6346)
    return network, catalog


@pytest.fixture(scope="module")
def world():
    return build_world()


def shipped_edges(monkeypatch, network, catalog, strategy, k, batch_size, fetch_items):
    """(plan, the distinct (category, source stage, target stage) of every
    plan leg and ``ship_batch`` call the query made, and (fetch, origin
    stage, reply stage) of every Item fetch, in first-use order)."""
    table = "InvertedCache" if strategy is JoinStrategy.INVERTED_CACHE else "Inverted"
    planner = KeywordPlanner(catalog)
    sites = {catalog.table(table).host_of(term) for term in TERMS[:k]}
    query_node = next(node for node in sorted(network.nodes) if node not in sites)
    plan = replace(
        planner.plan(TERMS[:k], query_node, strategy=strategy), batch_size=batch_size
    )
    stage_of = {query_node: QUERY_NODE}
    for index, stage in enumerate(plan.stages):
        stage_of.setdefault(stage.site, index)
    if strategy is not JoinStrategy.INVERTED_CACHE:
        assert len(stage_of) == k + 1, "the world must host every term apart"

    shipped = []
    ship_batch = DhtNetwork.ship_batch
    ship_plan = _QueryRun._ship_plan
    fetch = _QueryRun._fetch_items

    def recording(net, source, target, payload_bytes, category=""):
        shipped.append((category, stage_of[source], stage_of[target]))
        return ship_batch(net, source, target, payload_bytes, category)

    def recording_plan(run, source, target):
        shipped.append((Edge.PLAN, stage_of[source], stage_of[target]))
        return ship_plan(run, source, target)

    def recording_fetch(run, origin, reply_to, file_ids):
        shipped.append((Op.FETCH, stage_of[origin], stage_of[reply_to]))
        return fetch(run, origin, reply_to, file_ids)

    monkeypatch.setattr(DhtNetwork, "ship_batch", recording)
    monkeypatch.setattr(_QueryRun, "_ship_plan", recording_plan)
    monkeypatch.setattr(_QueryRun, "_fetch_items", recording_fetch)
    flow = DataflowExecutor(network, catalog, rng=1)
    rows, _ = flow.execute(plan, fetch_items=fetch_items)
    monkeypatch.undo()
    assert rows, "every edge must carry something"
    return plan, list(dict.fromkeys(shipped))


@pytest.mark.parametrize("fetch_items", [False, True])
@pytest.mark.parametrize("batch_size", [1, 4, None])
@pytest.mark.parametrize("k", range(1, 6))
@pytest.mark.parametrize("strategy", list(JoinStrategy))
def test_dataflow_ships_exactly_the_listed_edges(
    monkeypatch, world, strategy, k, batch_size, fetch_items
):
    plan, shipped = shipped_edges(
        monkeypatch, *world, strategy, k, batch_size, fetch_items
    )
    assert shipped == [
        (step.edge or step.op, step.stage, step.to)
        for step in plan_steps(plan.strategy, k, fetch_items)
        if step.op in (Op.SHIP, Op.FETCH)
    ]


def _pricing_catalog(nodes):
    network = DhtNetwork(rng=0)
    network.populate(nodes)
    return Catalog(network)


#: rings of 1 to 100 peers: hop estimates 1, 1, 3, 4, 5 and 7
PRICING_CATALOGS = [_pricing_catalog(nodes) for nodes in (1, 2, 8, 16, 17, 100)]


class TestPricingDifferential:
    @settings(max_examples=300, deadline=None)
    @given(
        sizes=st.lists(st.integers(min_value=0, max_value=5_000), min_size=1, max_size=6),
        catalog=st.sampled_from(PRICING_CATALOGS),
        inverted_cache=st.booleans(),
    )
    def test_step_prices_equal_the_closed_form_sums(self, sizes, catalog, inverted_cache):
        optimizer = CostBasedOptimizer(catalog)
        named = {f"t{index}": size for index, size in enumerate(sizes)}
        priced = optimizer.estimates(named, inverted_cache=inverted_cache)
        got = {s: e.bytes for s, e in priced.items()}
        assert got == reference_estimates(optimizer, named, inverted_cache)
        assert all(type(estimate.bytes) is int for estimate in priced.values())
        # The default chain never prices above Figure 2's: the same steps
        # over fileID digests.
        if len(sizes) >= 2:
            semi = priced[JoinStrategy.SEMI_JOIN].bytes
            assert semi <= priced[JoinStrategy.DISTRIBUTED_JOIN].bytes


def test_a_planned_query_is_priced_once(monkeypatch, world):
    network, catalog = world
    engine = SearchEngine(network, catalog, optimizer=True)
    calls = []
    estimates = CostBasedOptimizer.estimates

    def counting(optimizer, *args, **kwargs):
        calls.append(args)
        return estimates(optimizer, *args, **kwargs)

    monkeypatch.setattr(CostBasedOptimizer, "estimates", counting)
    for k in range(1, 6):
        plan = engine.prepare(TERMS[:k])
        assert plan.estimate.strategy is plan.strategy
    assert len(calls) == 5


def test_a_plan_needs_a_stage():
    with pytest.raises(ValueError, match="at least one stage"):
        DistributedPlan(keywords=(), stages=[], strategy=JoinStrategy.SEMI_JOIN, query_node=1)

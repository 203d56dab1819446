"""Reruns of the strategy matrix are bit-identical, and budgeted join
sites leave every store as they found it.

For a seeded world the full join-strategy matrix (every strategy on
every query, with and without a join memory budget) runs on one
simulator through the standalone dataflow runtime, and a batch of hybrid
races runs through the race engine. A rerun from the same seed repeats
every answer, byte, message, hop count, spill count and first-result
latency exactly; under a budget, some join site evicts and no store gains
or loses a value.
"""

from __future__ import annotations

import random

import pytest

from repro.dht.network import DhtNetwork
from repro.hybrid.engine import HybridQueryEngine
from repro.hybrid.ultrapeer import HybridUltrapeer
from repro.pier.catalog import Catalog
from repro.pier.dataflow import DataflowExecutor
from repro.pier.planner import KeywordPlanner
from repro.pier.query import JoinStrategy
from repro.piersearch.publisher import Publisher
from repro.piersearch.search import SearchEngine
from repro.sim.engine import Simulator

VOCABULARY = [
    "nebula", "quasar", "aurora", "meteor", "eclipse",
    "klorena", "velid", "montia", "darel", "bonzo",
]

ALL_STRATEGIES = tuple(JoinStrategy)


def build_world(seed: int):
    rng = random.Random(seed)
    network = DhtNetwork(rng=seed)
    network.populate(24)
    catalog = Catalog(network)
    publisher = Publisher(network, catalog)
    cache_publisher = Publisher(network, catalog, inverted_cache=True)
    for index in range(rng.randint(12, 30)):
        words = rng.sample(VOCABULARY, rng.randint(1, 3))
        name = " ".join(words) + f" track{index:03d}.mp3"
        publisher.publish_file(name, 1000 + index, f"10.1.0.{index}", 6346)
        cache_publisher.publish_file(name, 1000 + index, f"10.1.0.{index}", 6346)
    return rng, network, catalog


def result_key(rows):
    return sorted(
        (row.get("fileID"), row.get("ipAddress"), row.get("filename"))
        for row in rows
    )


def plan_for(catalog, strategy, terms, query_node):
    plan = KeywordPlanner(catalog).plan(terms, query_node, strategy=strategy)
    plan.batch_size = None
    return plan


# ----------------------------------------------------------------------
# Dataflow runtime across the strategy matrix
# ----------------------------------------------------------------------


def run_dataflow_matrix(seed: int, memory_budget: int | None = None):
    """Every strategy on every query, on one simulator.

    Returns (per-query facts, meter totals). With a ``memory_budget`` each
    fact also carries the query's spill accounting, and every store must
    end the matrix as it began it.
    """
    rng, network, catalog = build_world(seed)
    stored = sorted(network.stored_items())
    executor = DataflowExecutor(
        network, catalog, sim=Simulator(), memory_budget=memory_budget, rng=seed + 17
    )
    digest = []
    for _ in range(3):
        terms = rng.sample(VOCABULARY, rng.randint(1, 4))
        query_node = network.random_node_id()
        for strategy in ALL_STRATEGIES:
            plan = plan_for(catalog, strategy, terms, query_node)
            rows, stats = executor.execute(plan)
            fact = (
                tuple(sorted(terms)),
                strategy.name,
                tuple(map(tuple, result_key(rows))),
                stats.bytes,
                stats.messages,
                stats.posting_entries_shipped,
                stats.critical_path_hops,
                tuple(stats.per_stage_entries),
            )
            if memory_budget is not None:
                spill = stats.spill
                fact += (
                    None
                    if spill is None
                    else (spill.partition_evictions, spill.spill_reads, spill.reread_bytes),
                )
            digest.append(fact)
    if memory_budget is not None:
        assert sorted(network.stored_items()) == stored
    return digest, (network.meter.messages, network.meter.bytes)


def test_dataflow_matrix_reruns_bit_identical():
    assert run_dataflow_matrix(3) == run_dataflow_matrix(3)


@pytest.mark.parametrize("seed", range(3))
def test_budgeted_dataflow_matrix_leaves_every_store_unchanged(seed):
    """Under a join-row budget some join site evicts, yet every store ends
    as it began: a site evicts within the list it stores and writes
    nothing. A rerun repeats every fact, spill accounting included."""
    first = run_dataflow_matrix(seed, memory_budget=2)
    assert first == run_dataflow_matrix(seed, memory_budget=2)
    assert any(fact[-1] and fact[-1][0] > 0 for fact in first[0])


# ----------------------------------------------------------------------
# Hybrid race engine, queries interleaving in one drain
# ----------------------------------------------------------------------


def run_hybrid_races(seed: int):
    """Submit every query up front; resolve them in one drain.

    Queries from six ultrapeers interleave in virtual time. No churn, no
    result cache.
    """
    rng, network, catalog = build_world(seed)
    search_engine = SearchEngine(network, catalog)
    sim = Simulator()
    engine = HybridQueryEngine(sim, network, rng=seed)
    node_ids = sorted(network.nodes)
    hybrids = [
        HybridUltrapeer(
            ultrapeer_id=10_000 + i,
            dht_node_id=node_id,
            publisher=Publisher(network, catalog),
            search_engine=search_engine,
            gnutella_timeout=5.0,
        )
        for i, node_id in enumerate(node_ids[:6])
    ]
    races = []
    for position in range(8):
        terms = rng.sample(VOCABULARY, rng.randint(1, 3))
        hybrid = hybrids[position % len(hybrids)]
        # zero Gnutella results forces the PIER re-query every time
        races.append(
            (terms, hybrid.handle_leaf_query_simulated(engine, terms, [], 3))
        )
    sim.run()
    digest = []
    for terms, race in races:
        outcome = race.outcome
        digest.append(
            (
                tuple(sorted(terms)),
                outcome.used_pier,
                outcome.pier_results,
                outcome.pier_bytes,
                outcome.total_results,
                outcome.pier_latency,
                outcome.pier_completion_latency,
            )
        )
    assert engine.inflight == 0
    return digest, (network.meter.messages, network.meter.bytes)


@pytest.mark.parametrize("seed", range(3))
def test_hybrid_races_rerun_bit_identical(seed):
    first = run_hybrid_races(seed)
    assert first == run_hybrid_races(seed)
    assert all(used_pier for _, used_pier, *_ in first[0])

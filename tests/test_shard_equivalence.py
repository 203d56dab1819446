"""Sharding must be invisible: 1-shard and N-shard runs agree exactly.

The determinism contract of the ring-sharded kernel (repro.sim.shard):
for the same seed, running the query workload on one shard or on four
yields identical answer sets, identical draw-independent QueryStats
(bytes, messages, posting entries, critical-path hops), and identical
bandwidth-meter totals — across the full join-strategy matrix, with and
without a join memory budget, and for both the standalone dataflow
runtime and the hybrid race engine.
Latency *draws* may differ (each shard engine owns an RNG stream), so
only draw-independent quantities are compared.
"""

from __future__ import annotations

import random

import pytest

from repro.common.rng import make_rng, spawn_rng
from repro.dht.network import DhtNetwork
from repro.hybrid.engine import RaceConfig, build_sharded_engines, engine_for_node
from repro.hybrid.ultrapeer import HybridUltrapeer
from repro.pier.catalog import Catalog
from repro.pier.dataflow import DataflowConfig, DataflowExecutor
from repro.pier.planner import KeywordPlanner
from repro.pier.query import JoinStrategy
from repro.piersearch.publisher import Publisher
from repro.piersearch.search import SearchEngine
from repro.sim.shard import ShardedSimulator, shard_of_key

VOCABULARY = [
    "nebula", "quasar", "aurora", "meteor", "eclipse",
    "klorena", "velid", "montia", "darel", "bonzo",
]

ALL_STRATEGIES = tuple(JoinStrategy)

#: cross-shard lookahead: the minimum hop-latency draw at the defaults
#: used below (mean 1.2, jitter 0.35)
HOP_LATENCY = 1.2
HOP_JITTER = 0.35
LOOKAHEAD = HOP_LATENCY * (1 - HOP_JITTER)

SHARD_COUNTS = (1, 4)


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
    table = (
        "InvertedCache" if strategy is JoinStrategy.INVERTED_CACHE else "Inverted"
    )
    planner = KeywordPlanner(catalog, posting_table=table)
    plan = planner.plan(terms, query_node, strategy=strategy)
    plan.batch_size = None
    return plan


# ----------------------------------------------------------------------
# Dataflow runtime across the strategy matrix
# ----------------------------------------------------------------------


def run_dataflow_matrix(seed: int, num_shards: int, memory_budget: int | None = None):
    """Every strategy on every query, executed on the owning shard.

    Returns (digest of draw-independent per-query facts, meter totals).
    With a ``memory_budget`` each fact also carries the query's spill
    accounting, and every store must end the matrix as it began it.
    """
    rng, network, catalog = build_world(seed)
    stored = sorted(network.stored_items())
    kernel = ShardedSimulator(num_shards, lookahead=LOOKAHEAD, seed=seed)
    root = make_rng(seed + 17)
    executors = [
        DataflowExecutor(
            network,
            catalog,
            sim=kernel.shard(shard_id),
            config=DataflowConfig(
                batch_size=None,
                hop_latency=HOP_LATENCY,
                hop_jitter=HOP_JITTER,
                memory_budget=memory_budget,
            ),
            rng=spawn_rng(root, f"dataflow.shard.{shard_id}"),
        )
        for shard_id in range(num_shards)
    ]
    digest = []
    for _ in range(3):
        terms = rng.sample(VOCABULARY, rng.randint(1, 4))
        query_node = network.random_node_id()
        executor = executors[shard_of_key(query_node, num_shards)]
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


@pytest.mark.parametrize("seed", range(5))
def test_dataflow_matrix_identical_across_shard_counts(seed):
    reference = None
    for num_shards in SHARD_COUNTS:
        outcome = run_dataflow_matrix(seed, num_shards)
        if reference is None:
            reference = outcome
        else:
            assert outcome[0] == reference[0], f"digest diverged at {num_shards} shards"
            assert outcome[1] == reference[1], f"meter diverged at {num_shards} shards"


def test_dataflow_matrix_reruns_bit_identical():
    assert run_dataflow_matrix(3, 4) == run_dataflow_matrix(3, 4)


@pytest.mark.parametrize("seed", range(3))
def test_budgeted_dataflow_matrix_identical_across_shard_counts(seed):
    """Under a join-row budget the shards still agree on every fact, spill
    accounting included. Join sites evict within the list they store and
    write nothing, so engines on different shards share no temp state and
    need no namespace of their own: every store ends as it began."""
    single, sharded = (
        run_dataflow_matrix(seed, num_shards, memory_budget=2)
        for num_shards in SHARD_COUNTS
    )
    assert sharded == single
    assert any(fact[-1] and fact[-1][0] > 0 for fact in single[0])


# ----------------------------------------------------------------------
# Hybrid race engine, queries interleaving across shards in one drain
# ----------------------------------------------------------------------


def run_hybrid_races(seed: int, num_shards: int):
    """Submit every query up front; resolve them in one windowed drain.

    Queries from different shards interleave in virtual time — this is
    the regime where window safety actually matters. No churn, no result cache: every compared quantity is
    draw-independent.
    """
    rng, network, catalog = build_world(seed)
    search_engine = SearchEngine(network, catalog)
    kernel = ShardedSimulator(num_shards, lookahead=LOOKAHEAD, seed=seed)
    engines = build_sharded_engines(
        kernel,
        network,
        config=RaceConfig(dht_hop_latency=HOP_LATENCY, hop_jitter=HOP_JITTER),
        seed=seed,
    )
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
        engine = engine_for_node(engines, hybrid.dht_node_id)
        # zero Gnutella results forces the PIER re-query every time
        races.append(
            (terms, hybrid.handle_leaf_query_simulated(engine, terms, [], 3))
        )
    kernel.run()
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
            )
        )
    assert all(engine.all_done for engine in engines)
    return digest, (network.meter.messages, network.meter.bytes)


@pytest.mark.parametrize("seed", range(3))
def test_hybrid_races_identical_across_shard_counts(seed):
    reference = None
    for num_shards in SHARD_COUNTS:
        outcome = run_hybrid_races(seed, num_shards)
        if reference is None:
            reference = outcome
        else:
            assert outcome[0] == reference[0], f"digest diverged at {num_shards} shards"
            assert outcome[1] == reference[1], f"meter diverged at {num_shards} shards"

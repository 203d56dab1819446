"""Property suite: every strategy, at every batching, is the same query.

For seeded random catalogs and random 1-4 keyword conjunctions, the full
strategy-equivalence matrix must hold: all four join strategies
(distributed join, semi-join, Bloom join, InvertedCache) executed with
one batch per edge (``batch_size=None``) and with finite batches return
the *identical answer set* — the one the plan-free oracle
(``tests/oracle.py``) reads out of the stores. Per strategy, both
batchings ship the identical posting entries, and the only byte delta of
finite batches is one message header per extra batch, which we reconcile
to the byte (no tolerance). The absolute byte, message and hop totals are
pinned by ``tests/golden/runtime_stats_digest.json``.
"""

import random
from dataclasses import replace

import pytest

from repro.dht.network import DhtNetwork
from repro.pier.catalog import Catalog
from repro.pier.dataflow import DataflowExecutor
from repro.pier.planner import KeywordPlanner
from repro.pier.query import JoinStrategy
from repro.piersearch.publisher import Publisher

from oracle import oracle_items

#: no word is a substring of another, so InvertedCache substring
#: filtering and exact-token joins agree on every query
VOCABULARY = [
    "nebula", "quasar", "aurora", "meteor", "eclipse",
    "klorena", "velid", "montia", "darel", "bonzo",
]

NUM_SEEDS = 20

#: derived from the enum so a future strategy cannot silently stay out
#: of the equivalence matrix
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
        address = f"10.{seed % 200}.0.{index}"
        publisher.publish_file(name, 1000 + index, address, 6346)
        cache_publisher.publish_file(name, 1000 + index, address, 6346)
    return rng, network, catalog


def result_key(rows):
    """Order-independent identity of a result set (replicas included)."""
    return sorted(
        (row.get("fileID"), row.get("ipAddress"), row.get("filename"))
        for row in rows
    )


def queries_for(rng: random.Random, count: int = 3):
    for _ in range(count):
        yield rng.sample(VOCABULARY, rng.randint(1, 4))


def plan_for(catalog, strategy, terms, query_node):
    plan = KeywordPlanner(catalog).plan(terms, query_node, strategy=strategy)
    plan.batch_size = None  # each test sizes the batches itself
    return plan


@pytest.mark.parametrize("seed", range(NUM_SEEDS))
def test_strategy_matrix_equivalence(seed):
    """4 strategies x 2 batchings: one answer set, reconciled accounting."""
    rng, network, catalog = build_world(seed)
    stage_granular = DataflowExecutor(network, catalog, rng=seed)
    batched = DataflowExecutor(network, catalog, rng=seed)
    header = network.cost_model.header_bytes
    for terms in queries_for(rng):
        query_node = network.random_node_id()
        reference = result_key(oracle_items(catalog, terms))
        shipped = {}
        for strategy in ALL_STRATEGIES:
            plan = plan_for(catalog, strategy, terms, query_node)
            rows_stage, stats_stage = stage_granular.execute(plan)
            rows_batched, stats_batched = batched.execute(replace(plan, batch_size=2))
            shipped[strategy] = (stats_stage, stats_batched)

            # One answer set across the whole matrix — every strategy,
            # every batching, always.
            assert result_key(rows_stage) == reference
            assert result_key(rows_batched) == reference

            # Within a strategy, both batchings ship identical entries.
            assert (
                stats_stage.posting_entries_shipped
                == stats_batched.posting_entries_shipped
            )
            assert stats_stage.per_stage_entries == stats_batched.per_stage_entries
            assert stats_stage.filter_bytes == stats_batched.filter_bytes
            assert stats_stage.critical_path_hops == stats_batched.critical_path_hops

            # Finite batches: the only byte delta is one header per extra
            # batch (each goes direct, one message); reconcile it exactly.
            extra_batches = (
                stats_batched.pipeline.batches_shipped
                - stats_stage.pipeline.batches_shipped
            )
            assert extra_batches >= 0
            assert stats_batched.bytes - stats_stage.bytes == extra_batches * header

        # The semi-join is the distributed join's chain over fileID
        # digests: the same posting entries, never more bytes.
        for semi, distributed in zip(
            shipped[JoinStrategy.SEMI_JOIN], shipped[JoinStrategy.DISTRIBUTED_JOIN]
        ):
            assert semi.posting_entries_shipped == distributed.posting_entries_shipped
            assert semi.bytes <= distributed.bytes


def test_equivalence_holds_for_results_across_batch_sizes():
    """One deeper check: every batch size returns the same answer set,
    for every strategy."""
    rng, network, catalog = build_world(4242)
    query_node = network.random_node_id()
    reference = result_key(oracle_items(catalog, ["nebula", "quasar"]))
    for strategy in ALL_STRATEGIES:
        plan = plan_for(catalog, strategy, ["nebula", "quasar"], query_node)
        for batch_size in (1, 2, 7, 64, None):
            dataflow = DataflowExecutor(network, catalog, rng=9)
            rows, stats = dataflow.execute(replace(plan, batch_size=batch_size))
            assert result_key(rows) == reference
            assert stats.pipeline.batch_size == batch_size
            assert stats.strategy is strategy

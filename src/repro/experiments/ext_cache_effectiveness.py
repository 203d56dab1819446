"""Extension: query-result cache effectiveness under Zipf-skewed load.

The paper's hybrid design absorbs popular queries cheaply by flooding and
rare ones via the DHT, but re-executes every repeated query from scratch.
This experiment measures what the :mod:`repro.cache` subsystem buys:
a hybrid ultrapeer races each leaf query on the hybrid query engine, every
one times out on Gnutella and re-queries through PIERSearch, with a
byte-budgeted result cache in front of the DHT. The simulator drains
after each query, so queries run one after another and each sees the
cache its predecessors left.

Sweeps the cache byte budget against the Zipf skew of query repetition
and reports, per cell: hit rate, per-query PIER bandwidth, bandwidth
saved versus the uncached baseline (budget 0 at the same skew), the
recall delta of cached answers versus fresh re-execution (must be zero —
content is static between publish rounds).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.rng import make_rng
from repro.common.zipf import ZipfSampler
from repro.dht.network import DhtNetwork
from repro.experiments.common import ExperimentResult, PaperScale, PAPER_SCALE, get_library
from repro.hybrid.world import build_world
from repro.piersearch.tokenizer import extract_keywords

BUDGETS_KB = (0, 32, 128)
ALPHAS = (0.6, 1.1)
#: each sweep cell's overlay size, published files and query stream
NUM_NODES = 48
NUM_FILES = 240
NUM_QUERIES = 500


@dataclass
class _CellResult:
    """Raw measurements for one (budget, alpha) sweep cell."""

    hit_rate: float = 0.0
    pier_bytes: int = 0
    queries: int = 0
    recall_mismatches: int = 0
    hits: int = 0
    population: int = 0
    outcomes: list = field(default_factory=list)


def run(scale: PaperScale = PAPER_SCALE) -> ExperimentResult:
    """Sweep cache budget x Zipf skew; returns the effectiveness table."""
    library = get_library(scale)
    rows = []
    for alpha in ALPHAS:
        baseline: _CellResult | None = None
        for budget_kb in BUDGETS_KB:
            cell = _measure(
                seed=scale.seed + 60,
                library=library,
                alpha=alpha,
                budget_kb=budget_kb,
            )
            if budget_kb == 0:
                baseline = cell
            saved_pct = 0.0
            if baseline is not None and baseline.pier_bytes > 0:
                saved_pct = 100.0 * (1.0 - cell.pier_bytes / baseline.pier_bytes)
            recall_delta = (
                cell.recall_mismatches / cell.hits if cell.hits else 0.0
            )
            rows.append(
                (
                    alpha,
                    budget_kb,
                    100.0 * cell.hit_rate,
                    cell.pier_bytes / cell.queries / 1024,
                    saved_pct,
                    recall_delta,
                )
            )
    return ExperimentResult(
        experiment_id="ext-cache",
        title="query-result cache effectiveness vs Zipf skew",
        columns=[
            "zipf_alpha",
            "budget_kb",
            "hit_rate_pct",
            "kb_per_query",
            "bandwidth_saved_pct",
            "recall_delta",
        ],
        rows=rows,
        notes=(
            "saved_pct is vs the budget-0 baseline at the same skew; "
            "recall_delta must be 0 (cached answers equal re-execution)"
        ),
    )


def _measure(
    seed: int,
    library,
    alpha: float,
    budget_kb: int,
) -> _CellResult:
    """One sweep cell: fresh overlay, Zipf query stream, cached ultrapeer."""
    rng = make_rng(seed + int(alpha * 100) * 7 + budget_kb)
    dht = DhtNetwork(rng=seed + 1)
    dht.populate(NUM_NODES)
    world = build_world(
        dht,
        [0],
        rng=seed + 2,
        cache_budget_bytes=budget_kb * 1024,
    )
    nodes, hybrid = world.nodes, world.hybrids[0]

    # Publish a slice of the content library (one replica per item) and
    # derive the query population from the published filenames, so every
    # query has a real answer in the DHT.
    population: list[list[str]] = []
    for index, item in enumerate(library.items[:NUM_FILES]):
        keywords = extract_keywords(item.filename)
        if not keywords:
            continue
        world.publisher.publish_file(
            filename=item.filename,
            filesize=item.filesize,
            ip_address=f"10.0.{index // 256}.{index % 256}",
            port=6346,
            origin=nodes[index % len(nodes)].node_id,
        )
        population.append(keywords[: min(2, len(keywords))])

    cell = _CellResult(population=len(population))
    cache = world.cache

    # Zipf-skewed repetition over the query population: no replica is in
    # flood reach, so every query times out on Gnutella and exercises the
    # cached PIER path.
    sampler = ZipfSampler(len(population), alpha, rng=rng)
    for _ in range(NUM_QUERIES):
        terms = population[sampler.sample() - 1]
        hybrid.handle_leaf_query_simulated(world.engine, list(terms), [], stop_ttl=3)
        world.sim.run()

    cell.outcomes = [race.outcome for race in world.engine.races]
    cell.queries = NUM_QUERIES
    cell.pier_bytes = sum(outcome.pier_bytes for outcome in cell.outcomes)
    if cache is not None:
        cell.hits = cache.stats.hits
        cell.hit_rate = cache.stats.hit_rate
        # Recall audit: every cached answer must equal fresh re-execution.
        # (Runs after the bandwidth numbers above are frozen, so the audit
        # searches do not pollute the measurement.)
        for entry in cache.entries():
            fresh = world.search.search(list(entry.key), query_node=nodes[0].node_id)
            if sorted(fresh.filenames) != sorted(entry.filenames):
                cell.recall_mismatches += entry.hits
    return cell

"""Extension: the cost-based join optimizer's strategy trade-off space.

The distributed join ships full framed posting tuples between sites; the
semi-join ships packed fileID digests over the same chain and the Bloom
join compresses the rarest list into a filter and ships back only the
probable matches. Which rewrite wins depends on the query's shape: how
skewed the term popularity is (Zipf exponent of the corpus), how many
keywords intersect (2-5), and how selective the intersection is
(rare∧rare, rare∧popular, popular∧popular mixes).

This experiment sweeps exactly that grid. Every scenario replays the
same queries under all four strategies at two batchings of the dataflow
— one batch per edge for the byte accounting the optimizer prices, the
planner's batch size for first-answer/completion latency in virtual time
— and reports per-strategy bandwidth, entries shipped, latency, the
reduction against the DISTRIBUTED_JOIN baseline, and the strategy the
cost model actually picks. Answer sets are verified identical across
strategies on every query (the equivalence the test matrix pins).

``python -m repro.experiments.ext_optimizer`` records the sweep into
``BENCH_optimizer.json`` at the repository root.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from pathlib import Path
from statistics import mean

from repro.dht.network import DhtNetwork
from repro.experiments.common import ExperimentResult, PaperScale, PAPER_SCALE, SMALL_SCALE
from repro.pier.catalog import Catalog
from repro.pier.dataflow import DataflowExecutor
from repro.pier.optimizer import CostBasedOptimizer
from repro.pier.planner import KeywordPlanner
from repro.pier.query import JoinStrategy
from repro.piersearch.publisher import Publisher

#: enum definition order keeps DISTRIBUTED_JOIN first (the baseline each
#: reduction is computed against); deriving from the enum means a future
#: fifth strategy cannot silently stay out of the sweep
STRATEGIES = tuple(JoinStrategy)

#: (scenario name, term popularity ranks — low rank = popular term)
SCENARIOS = (
    ("rare-rare", (80, 90)),
    ("rare-popular", (80, 1)),
    ("popular-popular", (1, 2)),
    ("rare-popular-3", (80, 40, 1)),
    ("popular-4", (1, 2, 3, 4)),
    ("mixed-5", (80, 40, 20, 2, 1)),
)

ZIPF_ALPHAS = (0.8, 1.2)


@dataclass
class _World:
    network: DhtNetwork
    catalog: Catalog
    planner: KeywordPlanner
    optimizer: CostBasedOptimizer
    queries: dict[str, list[str]]


def _term(rank: int) -> str:
    return f"wterm{rank:03d}"


def build_zipf_world(
    alpha: float, num_files: int, vocab_size: int, num_nodes: int, seed: int
) -> _World:
    """A corpus whose term document-frequencies follow Zipf(``alpha``).

    Each file draws 3 distinct terms by Zipf rank. A handful of seeded
    files per scenario contain exactly that scenario's terms, so every
    scenario's conjunction has a small non-empty answer — the *selective*
    regime the rewrites exist for.
    """
    rng = random.Random(seed)
    network = DhtNetwork(rng=seed)
    network.populate(num_nodes)
    catalog = Catalog(network)
    publisher = Publisher(network, catalog)
    cache_publisher = Publisher(network, catalog, inverted_cache=True)
    weights = [1.0 / (rank**alpha) for rank in range(1, vocab_size + 1)]
    ranks = list(range(1, vocab_size + 1))

    def publish(name: str, index: int) -> None:
        address = f"10.{index // 60000}.{(index // 250) % 250}.{index % 250}"
        publisher.publish_file(name, 1000 + index, address, 6346)
        cache_publisher.publish_file(name, 1000 + index, address, 6346)

    index = 0
    for _ in range(num_files):
        chosen = {
            _term(rank) for rank in rng.choices(ranks, weights=weights, k=3)
        }
        publish(" ".join(sorted(chosen)) + f" file{index:05d}.mp3", index)
        index += 1
    queries: dict[str, list[str]] = {}
    for name, term_ranks in SCENARIOS:
        terms = [_term(rank) for rank in term_ranks]
        queries[name] = terms
        for _ in range(3):  # the guaranteed (small) intersection
            publish(" ".join(terms) + f" seeded{index:05d}.mp3", index)
            index += 1
    optimizer = CostBasedOptimizer(catalog)
    return _World(
        network=network,
        catalog=catalog,
        planner=KeywordPlanner(catalog, optimizer=optimizer),
        optimizer=optimizer,
        queries=queries,
    )


def _result_key(rows):
    return sorted((row.get("fileID"), row.get("filename")) for row in rows)


def run(
    scale: PaperScale = PAPER_SCALE,
    alphas: tuple[float, ...] = ZIPF_ALPHAS,
    repeats: int = 3,
) -> ExperimentResult:
    num_files = max(200, scale.num_items // 4)
    vocab = 120
    rows = []
    for alpha in alphas:
        world = build_zipf_world(
            alpha, num_files=num_files, vocab_size=vocab, num_nodes=48,
            seed=scale.seed + int(alpha * 10),
        )
        unbatched = DataflowExecutor(world.network, world.catalog)
        dataflow = DataflowExecutor(world.network, world.catalog, rng=scale.seed + 5)
        for scenario, terms in world.queries.items():
            sizes = {t: world.catalog.posting_size("Inverted", t) for t in terms}
            pick = world.optimizer.pick(sizes, inverted_cache=False).strategy
            query_nodes = [
                world.network.random_node_id() for _ in range(repeats)
            ]
            baseline_bytes = None
            reference = None
            for strategy in STRATEGIES:
                total_bytes = 0
                total_entries = 0
                firsts: list[float] = []
                completions: list[float] = []
                for node in query_nodes:
                    plan = world.planner.plan(terms, node, strategy=strategy)
                    answer, stats = unbatched.execute(
                        replace(plan, batch_size=None)
                    )
                    total_bytes += stats.bytes
                    total_entries += stats.posting_entries_shipped
                    key = _result_key(answer)
                    if reference is None:
                        reference = key
                    elif key != reference:
                        raise AssertionError(
                            f"{scenario}/{strategy.value}: answer set diverged"
                        )
                    flow_rows, flow_stats = dataflow.execute(plan)
                    if _result_key(flow_rows) != reference:
                        raise AssertionError(
                            f"{scenario}/{strategy.value}: batched answer "
                            "set diverged from the unbatched reference"
                        )
                    pipeline = flow_stats.pipeline
                    if pipeline.first_answer_time is not None:
                        firsts.append(pipeline.first_answer_time)
                        completions.append(pipeline.completion_time)
                if strategy is JoinStrategy.DISTRIBUTED_JOIN:
                    baseline_bytes = total_bytes
                reduction = (
                    100.0 * (baseline_bytes - total_bytes) / baseline_bytes
                    if baseline_bytes
                    else 0.0
                )
                rows.append(
                    (
                        alpha,
                        scenario,
                        len(terms),
                        strategy.value,
                        total_bytes / 1024 / repeats,
                        reduction,
                        total_entries // repeats,
                        mean(firsts) if firsts else 0.0,
                        mean(completions) if completions else 0.0,
                        "<-" if strategy is pick else "",
                    )
                )
    return ExperimentResult(
        experiment_id="ext-optimizer",
        title="Join-strategy sweep: bandwidth/latency by selectivity, Zipf, and width",
        columns=[
            "zipf_alpha",
            "scenario",
            "keywords",
            "strategy",
            "query_kb",
            "reduction_vs_dist_pct",
            "entries_shipped",
            "mean_first_answer_s",
            "mean_completion_s",
            "optimizer_pick",
        ],
        rows=rows,
        notes=(
            "per-query means over replayed conjunctions; reduction is "
            "against the DISTRIBUTED_JOIN baseline; '<-' marks the "
            "cost model's choice (InvertedCache excluded from the pick "
            "— its bandwidth is prepaid at publish time)"
        ),
    )


def record(path: str | Path, result: ExperimentResult) -> Path:
    """Persist ``result``, the small-scale sweep, as the bench artifact.

    The caller runs the sweep, so the benchmark suite records the exact
    execution it asserts on.
    """
    payload = {
        "experiment": result.experiment_id,
        "title": result.title,
        "scale": SMALL_SCALE.name,
        "columns": result.columns,
        "rows": [list(row) for row in result.rows],
        "notes": result.notes,
    }
    target = Path(path)
    target.write_text(json.dumps(payload, indent=2) + "\n")
    return target


if __name__ == "__main__":
    recorded = record("BENCH_optimizer.json", run(SMALL_SCALE))
    print(recorded.read_text())

"""Extension: the dataflow runtime's batch-size trade-off.

The streaming exchange runtime ships posting-list tuples in fixed-size
batches. Small batches get the first tuple through the join pipeline —
and therefore the first answer to the query node — after a handful of
tuples; but every batch pays its own message header, so halving the
batch size roughly doubles the header overhead on the same payload.
This experiment sweeps batch size over the same multi-term query replay
and reports both ends of that trade-off, plus the unbatched baseline (one
batch per edge, the fewest headers) the totals are compared against.

``python -m repro.experiments.ext_dataflow`` records the sweep into
``BENCH_dataflow.json`` at the repository root;
``tests/test_dataflow_artifact.py`` re-derives the whole artifact and
holds it equal to the committed file, byte for byte.
"""

from __future__ import annotations

import json
from pathlib import Path
from statistics import mean

from repro.common.errors import PlanError
from repro.experiments.common import ExperimentResult, PaperScale, PAPER_SCALE, SMALL_SCALE, get_workload
from repro.experiments.sec5_posting import build_indexed_corpus
from repro.pier.dataflow import DataflowExecutor
from repro.pier.planner import KeywordPlanner
from repro.pier.query import JoinStrategy

BATCH_SIZES = (1, 16, 64, 256)


def run(
    scale: PaperScale = PAPER_SCALE,
    batch_sizes: tuple[int, ...] = BATCH_SIZES,
    max_queries: int = 60,
) -> ExperimentResult:
    network, catalog, _ = build_indexed_corpus(scale)
    planner = KeywordPlanner(catalog)
    unbatched = DataflowExecutor(network, catalog)

    queries = [
        query for query in list(get_workload(scale)) if len(query.terms) > 1
    ][:max_queries]

    # One shared plan list: every sweep point (and the unbatched baseline)
    # replays the identical plans, so byte deltas are purely batching.
    plans = []
    for query in queries:
        try:
            plans.append(
                planner.plan(
                    list(query.terms),
                    network.random_node_id(),
                    strategy=JoinStrategy.DISTRIBUTED_JOIN,
                )
            )
        except PlanError:
            continue

    unbatched_bytes = 0
    answered = 0
    for plan in plans:
        plan.batch_size = None
        rows, stats = unbatched.execute(plan, fetch_items=True)
        unbatched_bytes += stats.bytes
        answered += 1 if rows else 0

    result_rows = []
    for batch_size in batch_sizes:
        dataflow = DataflowExecutor(network, catalog, rng=scale.seed + 23)
        firsts: list[float] = []
        completions: list[float] = []
        total_bytes = 0
        batches = 0
        for plan in plans:
            plan.batch_size = batch_size
            rows, stats = dataflow.execute(plan, fetch_items=True)
            total_bytes += stats.bytes
            pipeline = stats.pipeline
            batches += pipeline.batches_shipped
            if pipeline.first_answer_time is not None:
                firsts.append(pipeline.first_answer_time)
                completions.append(pipeline.completion_time)
        overhead = (
            100.0 * (total_bytes - unbatched_bytes) / unbatched_bytes
            if unbatched_bytes
            else 0.0
        )
        result_rows.append(
            (
                batch_size,
                mean(firsts) if firsts else 0.0,
                mean(completions) if completions else 0.0,
                total_bytes / 1024,
                overhead,
                batches,
            )
        )
    return ExperimentResult(
        experiment_id="ext-dataflow",
        title="Dataflow batch-size sweep: first-answer latency vs bytes shipped",
        columns=[
            "batch_size",
            "mean_first_answer_s",
            "mean_completion_s",
            "total_kb",
            "overhead_vs_unbatched_pct",
            "batches_shipped",
        ],
        rows=result_rows,
        notes=(
            f"{len(queries)} multi-term replayed queries ({answered} with "
            f"answers); unbatched baseline {unbatched_bytes / 1024:.1f} KB; smaller "
            "batches answer sooner but pay more message headers"
        ),
    )


def record(path: str | Path) -> Path:
    """Run the sweep at small scale and persist it as the bench artifact."""
    result = run(SMALL_SCALE)
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
    recorded = record("BENCH_dataflow.json")
    print(recorded.read_text())

"""Extension: memory-adaptive join robustness under skew × budget.

A join site that can't hold its build state can fail two ways. An
all-or-nothing spill flushes the whole build the moment one row exceeds
the budget — after which every probe pays a spill-store read, however
rare its key. A join site here builds once on the posting list it stores
(:class:`~repro.pier.operators.StoredHashJoin`) and evicts only its
largest hash partitions, which stay in the site's store, so probes into
resident partitions stay free and throughput degrades smoothly as the
budget tightens. The all-or-nothing policy, and the symmetric join that
spilled both sides into temp tuples after it, are gone from the code;
the rows they recorded (policies ``"all"`` and ``"partitioned"`` in
``BENCH_join.json``, whose spilled/restore/role-reversal columns no
longer exist) stay in the artifact as frozen history.

This experiment sweeps the partitioned build:

* **Throughput sweep** — replayed multi-keyword conjunctions run
  pipelined under Zipf-skewed posting lists, for every (skew, budget)
  point; wall-clock queries/sec, probe reads, re-read bytes and
  partition evictions are recorded per point, and every budgeted answer
  set is asserted equal to the unlimited-memory reference. Each point's throughput ratio is measured against an
  unlimited-memory run interleaved in the *same* timing window
  (best-of-N both sides), so machine-level drift cancels; the spill
  metrics are deterministic and bit-stable across runs. Budgets in
  ``BUDGETS`` are the operating range the no-cliff floor is gated on;
  ``CLIFF_BUDGET`` is the far-undersized point where the recorded
  all-or-nothing baseline's eviction churn and probe re-reads blow up.
* **Equivalence matrix** — each scenario additionally runs every
  joining strategy unbudgeted with one batch per edge and tightly
  budgeted in batches of 16, and asserts identical answers.
* **Optimizer shift** — each scenario's posting sizes are priced with
  and without the optimizer's memory-pressure term; rows record where
  tight budgets flip the strategy choice (e.g. toward the Bloom join,
  whose 2-term chain holds no join build state at all).

``python -m repro.experiments.ext_join`` records the sweep into
``BENCH_join.json`` at the repository root;
``benchmarks/test_join_robustness.py`` gates CI on the no-cliff floor.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path
from time import perf_counter

from repro.experiments.common import ExperimentResult, PaperScale, PAPER_SCALE, SMALL_SCALE
from repro.experiments.ext_optimizer import build_zipf_world, _result_key
from repro.pier.dataflow import DataflowConfig, DataflowExecutor
from repro.pier.optimizer import CostBasedOptimizer, OptimizerConfig
from repro.pier.query import JoinStrategy

#: row budgets swept (None = unlimited reference point).
#: These are the *operating* budgets the no-cliff throughput floor is
#: gated on; the cliff point below is recorded separately.
BUDGETS = (None, 512, 128, 64)

#: the far-below-operating budget where the recorded all-or-nothing
#: baseline's collapse is starkest — gated on the deterministic spill
#: metrics (eviction churn, probe re-reads), which are bit-stable across
#: runs, rather than on wall clock
CLIFF_BUDGET = 32

#: Zipf exponents of the corpus term distribution; 1.1 is the skewed
#: regime the acceptance floor is pinned at
ZIPF_ALPHAS = (0.8, 1.1)

#: the skew the no-cliff floor is gated at
FLOOR_ALPHA = 1.1

#: worst partitioned operating-budget point must keep at least this
#: fraction of paired unlimited-memory throughput
NO_CLIFF_FLOOR = 0.5

#: tightening the budget one sweep step may cost at most this much:
#: each successive partitioned ratio must retain >= this fraction of
#: the previous (smooth degradation, no cliff between adjacent points)
MIN_STEP_RETENTION = 0.55

#: the tight budget used for the equivalence matrix and optimizer shift
TIGHT_BUDGET = 32

#: strategies exercised in the budgeted equivalence matrix (InvertedCache
#: never joins, so a budget cannot perturb it)
MATRIX_STRATEGIES = (
    JoinStrategy.DISTRIBUTED_JOIN,
    JoinStrategy.SEMI_JOIN,
    JoinStrategy.BLOOM_JOIN,
)

#: budgeted sweep points, widest first
SWEEP_BUDGETS = tuple(b for b in BUDGETS if b is not None) + (CLIFF_BUDGET,)


def run(
    scale: PaperScale = PAPER_SCALE,
    alphas: tuple[float, ...] = ZIPF_ALPHAS,
    repeats: int = 3,
    rounds: int = 6,
) -> ExperimentResult:
    num_files = max(300, scale.num_items // 3)
    rows = []
    for alpha in alphas:
        world = build_zipf_world(
            alpha, num_files=num_files, vocab_size=120, num_nodes=48,
            seed=scale.seed + int(alpha * 10),
        )
        unbatched = DataflowExecutor(
            world.network, world.catalog, config=DataflowConfig(batch_size=None)
        )

        # One fixed plan list per alpha: every sweep point replays the
        # same conjunctions against the same reference answer sets.
        plans = []
        references = []
        for scenario, terms in world.queries.items():
            for repeat in range(repeats):
                node = world.network.random_node_id()
                plan = world.planner.plan(
                    terms, node, strategy=JoinStrategy.DISTRIBUTED_JOIN
                )
                plans.append(plan)
                references.append(
                    _result_key(unbatched.execute(replace(plan, batch_size=None))[0])
                )

        def timed_pass(flow: DataflowExecutor) -> float:
            started = perf_counter()
            for plan in plans:
                flow.execute(plan)
            return perf_counter() - started

        unlimited = DataflowExecutor(
            world.network,
            world.catalog,
            config=DataflowConfig(batch_size=16),
            rng=scale.seed + 7,
        )
        timed_pass(unlimited)  # warm caches before any timing
        best_unlimited = min(timed_pass(unlimited) for _ in range(rounds))
        rows.append(
            (
                "throughput", alpha, "unlimited", 0,
                round(len(plans) / best_unlimited, 1), 1.0, 0, 0, 0,
            )
        )

        for budget in SWEEP_BUDGETS:
            config = DataflowConfig(batch_size=16, memory_budget=budget)
            flow = DataflowExecutor(
                world.network, world.catalog, config=config, rng=scale.seed + 7
            )
            # Paired best-of-N timing: each budgeted point interleaves
            # with a fresh unlimited pass in the *same* wall-clock
            # window, so slow machine-level drift (thermal, scheduler)
            # cancels out of the ratio; within the window, noise only
            # ever *adds* time, so best-of-N is the least-perturbed
            # estimate of both numerator and denominator.
            best = best_paired = None
            for _ in range(rounds):
                elapsed = timed_pass(unlimited)
                if best_paired is None or elapsed < best_paired:
                    best_paired = elapsed
                elapsed = timed_pass(flow)
                if best is None or elapsed < best:
                    best = elapsed
            # Untimed verification + accounting pass, on a fresh
            # executor so the executor's RNG position (and with it the
            # spill accounting) is independent of how many timed rounds
            # ran — the recorded metrics are bit-deterministic.
            fresh = DataflowExecutor(
                world.network, world.catalog, config=config, rng=scale.seed + 7
            )
            reads = reread_bytes = evictions = 0
            for plan, reference in zip(plans, references):
                answer, stats = fresh.execute(plan)
                if _result_key(answer) != reference:
                    raise AssertionError(
                        f"alpha={alpha} budget={budget}: budgeted answer "
                        "set diverged from the unlimited-memory reference"
                    )
                if stats.spill is not None:
                    reads += stats.spill.spill_reads
                    reread_bytes += stats.spill.reread_bytes
                    evictions += stats.spill.partition_evictions
            rows.append(
                (
                    "throughput",
                    alpha,
                    "partitioned",  # the artifact's frozen rows say "all"
                    budget,
                    round(len(plans) / best, 1),
                    round(best_paired / best, 3),
                    reads // len(plans),
                    reread_bytes // len(plans),
                    evictions,
                )
            )

        # Strategy × batching equivalence matrix at the tight budget.
        tight = DataflowExecutor(
            world.network,
            world.catalog,
            config=DataflowConfig(batch_size=16, memory_budget=TIGHT_BUDGET),
            rng=scale.seed + 9,
        )
        for scenario, terms in world.queries.items():
            node = world.network.random_node_id()
            reference = None
            for strategy in MATRIX_STRATEGIES:
                plan = world.planner.plan(terms, node, strategy=strategy)
                key = _result_key(
                    unbatched.execute(replace(plan, batch_size=None))[0]
                )
                if reference is None:
                    reference = key
                elif key != reference:
                    raise AssertionError(
                        f"{scenario}/{strategy.value}: unbudgeted answer diverged"
                    )
                if _result_key(tight.execute(plan)[0]) != reference:
                    raise AssertionError(
                        f"{scenario}/{strategy.value}: tightly budgeted "
                        "answer diverged"
                    )
            rows.append(
                ("equivalence", alpha, scenario, TIGHT_BUDGET,
                 len(MATRIX_STRATEGIES) * 2, 0, 0, 0, 0)
            )

        # Optimizer shift: the same posting stats priced with and without
        # the memory-pressure term.
        unbudgeted = CostBasedOptimizer(world.catalog)
        pressured = CostBasedOptimizer(
            world.catalog, config=OptimizerConfig(memory_budget=TIGHT_BUDGET)
        )
        for scenario, terms in world.queries.items():
            sizes = {t: world.catalog.posting_size("Inverted", t) for t in terms}
            free_pick = unbudgeted.pick(sizes, inverted_cache=False).strategy
            tight = pressured.pick(sizes, inverted_cache=False)
            tight_pick = tight.strategy
            rows.append(
                (
                    "optimizer",
                    alpha,
                    scenario,
                    TIGHT_BUDGET,
                    free_pick.value,
                    tight_pick.value,
                    int(free_pick is not tight_pick),
                    tight.spill_bytes,
                    0,
                )
            )
    return ExperimentResult(
        experiment_id="ext-join",
        title="Memory-adaptive join: skew × budget sweep, no-cliff throughput",
        columns=[
            "section",
            "zipf_alpha",
            "policy_or_scenario",
            "budget_rows",
            "qps_or_pick",
            "ratio_or_pick",
            "reads_or_shifted",
            "reread_bytes_or_spill_bytes",
            "evictions",
        ],
        rows=rows,
        notes=(
            "throughput rows: wall-clock q/s per row-budget "
            "point with the ratio vs an unlimited run interleaved in the "
            "same timing window (budget 0 = unlimited reference), probe "
            "reads and re-read bytes per query and partition evictions; "
            "answers pinned to the unbudgeted one-batch-per-edge reference; "
            "equivalence rows: strategy x batching matrix verified at the "
            "tight budget; optimizer rows: strategy pick without vs with "
            "the memory-pressure term (columns 5-8 = free pick, tight "
            "pick, shifted, predicted spill bytes)"
        ),
    )


def sweep_by_point(
    result: ExperimentResult, alpha: float
) -> dict[tuple[str, int], dict[str, float]]:
    """(policy, budget) -> named throughput/spill fields for one alpha."""
    points = {}
    for row in result.rows:
        if row[0] == "throughput" and row[1] == alpha:
            points[(row[2], row[3])] = {
                "qps": row[4],
                "ratio": row[5],
                "reads_per_query": row[6],
                "reread_bytes_per_query": row[7],
                "evictions": row[8],
            }
    return points


def record(
    path: str | Path = "BENCH_join.json",
    scale: PaperScale = SMALL_SCALE,
    alphas: tuple[float, ...] = ZIPF_ALPHAS,
    repeats: int = 3,
    rounds: int = 6,
    result: ExperimentResult | None = None,
) -> Path:
    """Persist the sweep as the bench artifact.

    Pass an already-computed ``result`` to record it without re-running
    the sweep (the benchmark suite asserts on the exact execution it
    records); otherwise the sweep runs here. The committed artifact is
    frozen history, recorded by the symmetric join with its old columns;
    re-recording over it drops its ``"all"`` baseline rows.
    """
    if result is None:
        result = run(scale, alphas=alphas, repeats=repeats, rounds=rounds)
    payload = {
        "experiment": result.experiment_id,
        "title": result.title,
        "scale": scale.name,
        "columns": result.columns,
        "rows": [list(row) for row in result.rows],
        "bounds": {
            "floor_alpha": FLOOR_ALPHA,
            "no_cliff_floor": NO_CLIFF_FLOOR,
            "min_step_retention": MIN_STEP_RETENTION,
        },
        "notes": result.notes,
    }
    target = Path(path)
    target.write_text(json.dumps(payload, indent=2) + "\n")
    return target


if __name__ == "__main__":
    recorded = record()
    print(recorded.read_text())

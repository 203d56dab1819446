"""Extension: memory-adaptive join robustness under skew × budget.

A join site that can't hold its build state can fail two ways. An
all-or-nothing spill flushes the whole build the moment one row exceeds
the budget — after which every probe pays a spill-store read, however
rare its key. A join site here builds once on the posting list it stores
(:class:`~repro.pier.operators.StoredHashJoin`) and evicts only its
largest hash partitions, which stay in the site's store, so probes into
resident partitions stay free and the cost grows smoothly as the budget
tightens.

This experiment sweeps the partitioned build, in counts that are a pure
function of the code (host time is ``bench/``'s to measure:
``conj_optimizer`` runs this path under a tight budget):

* **Spill sweep** — replayed multi-keyword conjunctions run pipelined
  under Zipf-skewed posting lists, for every (skew, budget) point; probe
  reads and re-read bytes per query and partition evictions are recorded
  per point, and every answer set is asserted equal to the unbatched,
  unlimited-memory reference. ``TIGHT_BUDGET``, the last point, is far
  below the operating range, where eviction churn and probe re-reads
  are largest.
* **Equivalence matrix** — each scenario additionally runs every
  joining strategy unbudgeted with one batch per edge and tightly
  budgeted in batches of 16, and asserts identical answers.
* **Optimizer shift** — each scenario's posting sizes are priced with
  and without the optimizer's memory-pressure term; rows record where
  tight budgets flip the strategy choice (e.g. toward the Bloom join,
  whose 2-term chain holds no join build state at all).
"""

from __future__ import annotations

from dataclasses import replace

from repro.experiments.common import ExperimentResult, PaperScale, PAPER_SCALE
from repro.experiments.ext_optimizer import build_zipf_world, _result_key
from repro.pier.dataflow import DataflowConfig, DataflowExecutor
from repro.pier.optimizer import CostBasedOptimizer, OptimizerConfig
from repro.pier.query import JoinStrategy

#: the far-below-operating budget: the last point of the spill sweep,
#: and the one the equivalence matrix and optimizer shift run at
TIGHT_BUDGET = 32

#: row budgets swept, widest first (None = the unlimited reference point)
BUDGETS = (None, 512, 128, 64, TIGHT_BUDGET)

#: Zipf exponents of the corpus term distribution
ZIPF_ALPHAS = (0.8, 1.1)

#: plans replayed per scenario, each from its own random origin node
REPEATS = 3

#: strategies exercised in the budgeted equivalence matrix (InvertedCache
#: never joins, so a budget cannot perturb it)
MATRIX_STRATEGIES = (
    JoinStrategy.DISTRIBUTED_JOIN,
    JoinStrategy.SEMI_JOIN,
    JoinStrategy.BLOOM_JOIN,
)


def run(
    scale: PaperScale = PAPER_SCALE,
    alphas: tuple[float, ...] = ZIPF_ALPHAS,
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
            for _ in range(REPEATS):
                node = world.network.random_node_id()
                plan = world.planner.plan(
                    terms, node, strategy=JoinStrategy.DISTRIBUTED_JOIN
                )
                plans.append(plan)
                references.append(
                    _result_key(unbatched.execute(replace(plan, batch_size=None))[0])
                )

        for budget in BUDGETS:
            # A fresh executor per point, so each point's accounting
            # starts from the same RNG position.
            flow = DataflowExecutor(
                world.network,
                world.catalog,
                config=DataflowConfig(batch_size=16, memory_budget=budget),
                rng=scale.seed + 7,
            )
            reads = reread_bytes = evictions = 0
            for plan, reference in zip(plans, references):
                answer, stats = flow.execute(plan)
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
                    "spill",
                    alpha,
                    "unlimited" if budget is None else "partitioned",
                    budget or 0,
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
                 len(MATRIX_STRATEGIES) * 2, 0, 0)
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
            rows.append(
                (
                    "optimizer",
                    alpha,
                    scenario,
                    TIGHT_BUDGET,
                    free_pick.value,
                    tight.strategy.value,
                    tight.spill_bytes,
                )
            )
    return ExperimentResult(
        experiment_id="ext-join",
        title="Memory-adaptive join: skew × budget sweep, spill counts",
        columns=[
            "section",
            "zipf_alpha",
            "policy_or_scenario",
            "budget_rows",
            "reads_or_free_pick",
            "reread_bytes_or_tight_pick",
            "evictions_or_spill_bytes",
        ],
        rows=rows,
        notes=(
            "spill rows: probe reads and re-read bytes per query and "
            "partition evictions per row-budget point (budget 0 = unlimited "
            "reference), answers pinned to the unbudgeted one-batch-per-edge "
            "reference; equivalence rows: strategy x batching matrix "
            "verified at the tight budget; optimizer rows: strategy pick "
            "without vs with the memory-pressure term, and its predicted "
            "spill bytes"
        ),
    )


def sweep_by_point(
    result: ExperimentResult, alpha: float
) -> dict[tuple[str, int], dict[str, int]]:
    """(policy, budget) -> named spill fields for one alpha."""
    points = {}
    for row in result.rows:
        if row[0] == "spill" and row[1] == alpha:
            points[(row[2], row[3])] = {
                "reads_per_query": row[4],
                "reread_bytes_per_query": row[5],
                "evictions": row[6],
            }
    return points

"""Keyword-query planner.

Turns a bag of search terms into a :class:`DistributedPlan`. For the
distributed-join strategy the planner orders stages so that smaller
posting lists are computed first — the optimization the paper applied when
replaying 70,000 queries in Section 5 — which minimises the number of
posting-list entries shipped between sites.

The planner also feeds the streaming dataflow runtime: from the same
posting-size statistics it picks the exchange **batch size** (small
batches for rare terms, so the first answer leaves quickly; larger
batches for popular terms, amortising per-message headers) and — when
asked to choose — the **strategy**: construct the planner with a
:class:`~repro.pier.optimizer.CostBasedOptimizer` and ``strategy=None``
plans price all four strategies' step lists from the same posting
statistics and take the cheapest.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING

from repro.common.errors import PlanError
from repro.pier.catalog import Catalog
from repro.pier.query import (
    DEFAULT_STRATEGY,
    POSTING_TABLE,
    DistributedPlan,
    JoinStrategy,
    Op,
    PlanStage,
    plan_steps,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.pier.optimizer import CostBasedOptimizer

#: batch-size bounds the planner chooses within (tuples per exchange batch)
MIN_BATCH_SIZE = 4
MAX_BATCH_SIZE = 256


def batch_size_for(smallest: int) -> int:
    """Exchange batch size of a plan whose smallest posting list holds
    ``smallest`` entries.

    The tuples actually shipped are bounded by the smallest list (the
    first join stage), so the batch size scales with it: roughly its
    square root, clamped to [MIN_BATCH_SIZE, MAX_BATCH_SIZE] and rounded
    up to a power of two. Rare terms get small batches (first answer
    leaves after a handful of tuples); popular terms get large ones
    (fewer per-message headers). The planner is its one caller, and no
    price reads it: the optimizer charges ``h`` headers per edge however
    the edge is batched.
    """
    if smallest <= 0:
        return MIN_BATCH_SIZE
    root = max(1, int(smallest**0.5))
    power = 1 << (root - 1).bit_length()
    return max(MIN_BATCH_SIZE, min(MAX_BATCH_SIZE, power))


class KeywordPlanner:
    """Builds distributed plans for conjunctive keyword queries."""

    def __init__(
        self,
        catalog: Catalog,
        optimizer: "CostBasedOptimizer | None" = None,
    ):
        self.catalog = catalog
        #: prices the four strategies for ``strategy=None`` plans
        self.optimizer = optimizer

    def _sizes(self, table: str, keywords: list[str]) -> dict[str, int]:
        return {keyword: self.catalog.posting_size(table, keyword) for keyword in keywords}

    def plan(
        self,
        keywords: Sequence[str],
        query_node: int,
        strategy: JoinStrategy | None = DEFAULT_STRATEGY,
        order_by_size: bool = True,
    ) -> DistributedPlan:
        """Build the plan for a conjunctive query over ``keywords``.

        With ``order_by_size`` (the default) stages run smallest posting
        list first. For the InvertedCache strategy only one stage executes
        remotely (the rest become local substring filters), and picking the
        rarest term minimises the rows the filters must consider.

        Sizes are the posting statistics PIER keeps at each list's hosting
        node, read through :meth:`Catalog.posting_size` (the owner's
        memoised view, so replanning a replayed workload builds nothing
        until a write changes a list). A named strategy's stages are sized
        from the table its scan step names; ``strategy=None`` prices the
        Inverted lists, the table every strategy's sizes are priced from.

        ``strategy`` defaults to :data:`~repro.pier.query.DEFAULT_STRATEGY`,
        the semi-join; a Figure 2 replay names ``DISTRIBUTED_JOIN``.
        ``strategy=None`` asks the optimizer for the cheapest strategy
        (without one, :class:`~repro.common.errors.PlanError`: nothing to
        price with). With an optimizer the plan keeps the estimate it was
        priced at — one pricing pass per plan. Every join strategy runs
        the same smallest-first stage chain; only what ships differs.
        """
        if not keywords:
            raise PlanError("keyword query needs at least one term")
        unique = list(dict.fromkeys(keywords))  # dedupe, keep order
        sizes: dict[str, int] | None = None
        estimate = None
        if strategy is None:
            if self.optimizer is None:
                raise PlanError(
                    "choosing a strategy needs a planner built with an optimizer"
                )
            sizes = self._sizes(POSTING_TABLE, unique)
            estimate = self.optimizer.pick(sizes)
            strategy = estimate.strategy
        # The plan legs lead the step list, one per stage they reach, and
        # the scan follows them; a stage no leg reaches runs at the first
        # site (the InvertedCache plan's substring filters, Figure 3).
        steps = plan_steps(strategy, len(unique))
        legs = next(index for index, step in enumerate(steps) if step.op == Op.SCAN)
        table = steps[legs].table
        if sizes is None and order_by_size:
            sizes = self._sizes(table, unique)
            if self.optimizer is not None:
                estimate = self.optimizer.estimates(sizes).get(strategy)
        if order_by_size:
            unique.sort(key=lambda keyword: (sizes[keyword], keyword))
        handle = self.catalog.table(table)
        sites = [handle.host_of(keyword) for keyword in unique]
        stages = [
            PlanStage(keyword=keyword, site=site if index < legs else sites[0])
            for index, (keyword, site) in enumerate(zip(unique, sites))
        ]
        return DistributedPlan(
            keywords=tuple(unique),
            stages=stages,
            strategy=strategy,
            query_node=query_node,
            batch_size=batch_size_for(min(sizes.values())) if sizes else None,
            estimate=estimate,
        )

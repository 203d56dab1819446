"""The PIERSearch Search Engine (Section 3.2).

Given a keyword query, the Search Engine builds the corresponding PIER
plan (a chain of posting-list joins, or a single-site InvertedCache scan)
and executes it on the streaming exchange dataflow
(:mod:`repro.pier.dataflow`). The blocking :meth:`SearchEngine.search`
drains the plan on the engine's private simulator with one batch per
exchange edge; the hybrid query engine instead takes the prepared plan
and submits it to a dataflow on its own shared simulator.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace

from repro.common.errors import PlanError
from repro.dht.network import DhtNetwork
from repro.pier.catalog import Catalog
from repro.pier.dataflow import DataflowExecutor
from repro.pier.optimizer import CostBasedOptimizer
from repro.pier.planner import KeywordPlanner
from repro.pier.query import DEFAULT_STRATEGY, DistributedPlan, JoinStrategy, QueryStats
from repro.pier.schema import Row
from repro.piersearch.tokenizer import extract_keywords


@dataclass
class SearchResult:
    """Answer to one keyword query."""

    terms: tuple[str, ...]
    items: list[Row]
    stats: QueryStats

    @property
    def filenames(self) -> list[str]:
        return [item["filename"] for item in self.items]

    def __len__(self) -> int:
        return len(self.items)


class SearchEngine:
    """Executes keyword queries against the published index.

    ``strategy`` is the join strategy every query runs. ``None`` (the
    default) lets an attached optimizer price all four per query and
    otherwise runs :data:`~repro.pier.query.DEFAULT_STRATEGY`, the
    semi-join. A caller
    that reproduces one of the paper's plans names it: Section 5's replay
    and the Section 7 deployment run ``DISTRIBUTED_JOIN`` (Figure 2), and
    ``INVERTED_CACHE`` (Figure 3) reads the InvertedCache table.

    The optimizer prices a plan by the bytes it ships and nothing else,
    so a ``memory_budget`` never changes which strategy runs.
    """

    def __init__(
        self,
        network: DhtNetwork,
        catalog: Catalog,
        strategy: JoinStrategy | None = None,
        optimizer: CostBasedOptimizer | bool | None = None,
        memory_budget: int | None = None,
        tracer=None,
        metrics=None,
    ):
        self.network = network
        self.catalog = catalog
        self.strategy = strategy
        self.tracer = tracer
        self.metrics = metrics
        #: ``True`` builds a cost-based optimizer; with one attached and
        #: no ``strategy``, queries price all four join strategies by the
        #: bytes they ship and execute the cheapest. A named ``strategy``
        #: is a choice already made, so the optimizer only prices it.
        #: ``memory_budget`` (join rows per site, not bytes) reaches only
        #: the executor, where it is accounting: it moves no answer, no
        #: wire byte and no price.
        if optimizer is True:
            optimizer = CostBasedOptimizer(catalog, metrics=metrics)
        self.optimizer = optimizer or None
        self.planner = KeywordPlanner(catalog, optimizer=self.optimizer)
        self.executor = DataflowExecutor(
            network, catalog, memory_budget=memory_budget, tracer=tracer, metrics=metrics
        )

    def prepare(self, terms: list[str], query_node: int | None = None) -> DistributedPlan:
        """Normalise ``terms`` and build the plan without executing it.

        ``terms`` are normalised with the same tokenizer used at publish
        time, so stop words in the query are ignored (a query that is all
        stop words raises :class:`~repro.common.errors.PlanError`). A
        caller that already holds the normalised keywords — the hybrid
        query engine, whose race carries its
        :func:`~repro.cache.results.query_key` — plans them with
        :meth:`prepare_keywords` and skips the tokenizer: the planner
        dedupes and orders the keywords itself, so both build the same
        plan.
        """
        normalised: list[str] = []
        for term in terms:
            normalised.extend(extract_keywords(term))
        if not normalised:
            raise PlanError(f"query {terms!r} contains no indexable keyword")
        return self.prepare_keywords(normalised, query_node)

    def prepare_keywords(
        self, keywords: Sequence[str], query_node: int | None = None
    ) -> DistributedPlan:
        """:meth:`prepare` for already-normalised ``keywords`` (tokens the
        publisher indexes, as :func:`extract_keywords` yields them). The
        hybrid query engine uses this to learn the keyword-site chain it
        must route hop by hop before executing."""
        if not keywords:
            raise PlanError("query contains no indexable keyword")
        if query_node is None:
            query_node = self.network.random_node_id()
        strategy = self.strategy
        if strategy is None and self.optimizer is None:
            strategy = DEFAULT_STRATEGY
        # None left here is the cost-based choice: the planner prices all
        # four strategies from its posting statistics.
        return self.planner.plan(keywords, query_node, strategy=strategy)

    def execute_plan(self, plan: DistributedPlan) -> SearchResult:
        """Execute an already-prepared plan. See :meth:`search`.

        A blocking call returns the whole answer at once, so there is no
        first-answer time to buy with small batches: every edge ships one
        batch whatever size the planner picked, which costs the fewest
        routing headers.
        """
        items, stats = self.executor.execute(replace(plan, batch_size=None))
        self.observe_execution(plan, stats)
        return self.finalize(plan, items, stats)

    def observe_execution(self, plan: DistributedPlan, stats: QueryStats) -> None:
        """Feed an executed plan's metered bytes back to the optimizer.

        No-op unless a cost-based optimizer priced the plan — the hook
        behind the predicted-vs-actual bytes error metric. Called by the
        synchronous path above and by the hybrid engine when a race's
        dataflow drains.
        """
        if self.optimizer is not None and plan.estimate is not None:
            self.optimizer.observe_actual(plan.estimate, stats.bytes)

    @staticmethod
    def finalize(plan: DistributedPlan, items: list[Row], stats: QueryStats) -> SearchResult:
        """Post-filter executed Item rows into a :class:`SearchResult`.

        DHT keyword match is exact-token; this re-checks conjunctive
        semantics on the returned filenames (mirrors client behavior).
        Shared by the synchronous path and the hybrid engine, which
        receives its Item rows from answer batches instead of a blocking
        execute call.
        """
        keywords = list(plan.keywords)
        matching = [item for item in items if _matches_all(item["filename"], keywords)]
        stats.results = len(matching)
        return SearchResult(terms=plan.keywords, items=matching, stats=stats)

    def search(self, terms: list[str], query_node: int | None = None) -> SearchResult:
        """Run a conjunctive keyword query (:meth:`prepare` + :meth:`execute_plan`)
        under the engine's own strategy."""
        return self.execute_plan(self.prepare(terms, query_node))


def _matches_all(filename: str, terms: list[str]) -> bool:
    keywords = set(extract_keywords(filename))
    return all(term in keywords for term in terms)

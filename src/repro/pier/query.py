"""Distributed query plans, the step list each one runs as, and
execution statistics.

A keyword query over ``k`` terms becomes a :class:`DistributedPlan` with
one :class:`PlanStage` per term. Stages are ordered (the planner decides
the order); stage ``i`` executes at the DHT node hosting term ``i``'s
posting list, receiving the surviving tuples from stage ``i-1``.

What each site does is the plan's **step list**, :func:`plan_steps`: a
pure, memoised function of ``(strategy, k, fetch_items)`` to a flat
tuple of :class:`Step` over stage indices, and the one place a strategy
is spelled out — the dataflow runtime (:mod:`repro.pier.dataflow`)
interprets it and the optimizer (:mod:`repro.pier.optimizer`) prices it.
It runs the plan legs first, then a scan, the site-local steps after
it, and alternating ship/operator steps down to the Item fetch and the
answer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cache
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.common.units import CostModel
    from repro.pier.optimizer import CostEstimate

#: the posting table every chain strategy scans and joins against
POSTING_TABLE = "Inverted"
#: the full-text table the InvertedCache strategy scans
CACHE_TABLE = "InvertedCache"
#: the stage index a step uses for the query node
QUERY_NODE = -1
#: target false-positive rate of the Bloom join's filter: the rate a plan
#: builds its filter at and the optimizer prices it at
BLOOM_FP_RATE = 0.01


class JoinStrategy(Enum):
    """Query-processing strategies: Section 3.2's two plus the PIER
    lineage's bandwidth-saving join rewrites (cost-picked by
    :mod:`repro.pier.optimizer`). Each is a step list (:func:`plan_steps`;
    ``i`` runs over stages ``1..k-1``):

    * ``DISTRIBUTED_JOIN`` — scan 0; ship *rehash* ``i-1 → i`` (framed
      posting tuples, ~531 B/entry) and key-join at ``i``; ship *answer*
      (framed answer tuples, 512 B each) and fetch at the query node.
      The paper's Figure 2 plan: Section 5's posting-entry replay and the
      Section 7 deployment name it. Wins single-term queries, where
      nothing ships between sites.
    * ``SEMI_JOIN`` — the same chain over a distinct-key scan and *semi*
      edges (packed fileID digests, ~20 B/entry), and a fetch at the last
      join site: the same answers for a fraction of the bytes, each
      distinct fileID shipped once and no answer leg, so it is
      :data:`DEFAULT_STRATEGY`, the chain a hybrid race runs when the
      caller names no strategy and attaches no optimizer. Wins
      rare∧very-popular mixes, where Bloom false positives on the huge
      list would dominate.
    * ``BLOOM_JOIN`` — distinct-key scan 0 and Bloom build; ship *filter*
      ``0 → 1`` (~1.2 B/entry at 1% FP) and Bloom probe at 1; *digest*
      edges and key-joins on to ``k-1``; a *digest* return leg ``k-1 → 0``
      that lengthens the critical path; Bloom verify at 0, where false
      positives die; fetch at 0. Wins comparable list sizes.
    * ``INVERTED_CACHE`` — one plan leg; scan 0 of the InvertedCache
      table, a substring filter per other term, ship *answer* and fetch at
      the query node: nothing ships between sites. Wins very popular
      terms once published.

    Every chain starts with one plan leg per stage (query node → 0 → 1 →
    ...), and a one-stage semi or Bloom plan runs the distributed join's
    steps. A fetch step routes one request per matched fileID to the
    host of its Item tuple, which replies straight to the query node; a
    plan run without Item fetches ships its answer keys to the query node
    instead, whatever its strategy.
    """

    DISTRIBUTED_JOIN = "distributed_join"  # Figure 2
    INVERTED_CACHE = "inverted_cache"  # Figure 3
    SEMI_JOIN = "semi_join"
    BLOOM_JOIN = "bloom_join"


#: the strategy a plan runs when its caller names none and no optimizer
#: prices one: the key-join chain shipping fileID digests, never framed
#: posting tuples (for ``k = 1`` it runs the distributed join's steps)
DEFAULT_STRATEGY = JoinStrategy.SEMI_JOIN


class Edge:
    """What a ship step carries; each constant is its traffic category.
    The plan and filter legs ship one payload each (the serialized plan;
    one Bloom filter standing for the whole scanned list), the others
    stream tuples: framed posting tuples, packed fileID digests, digests
    of probable matches, answer tuples straight to the query node. Plain
    strings, like :class:`Op`: the runtime reads them on every query, and
    on CPython 3.11 an ``Enum`` member read costs ~4x a class attribute."""

    PLAN = "pier.query"
    REHASH = "pier.rehash"
    SEMI = "pier.semijoin"
    FILTER = "pier.bloom.filter"
    DIGEST = "pier.bloom.digest"
    ANSWER = "pier.answer"


def edge_tuple_bytes(edge: str, cost: "CostModel") -> int:
    """Wire bytes of one tuple on a streaming edge."""
    if edge == Edge.REHASH:
        return cost.rehash_tuple_bytes()
    if edge == Edge.ANSWER:
        return cost.tuple_bytes(cost.fileid_bytes)
    return cost.digest_bytes(1)


class Op:
    """The operation of one :class:`Step`. A scan reads the stage's
    posting list; a ship charges and delivers a stream between two sites;
    a key-join intersects arriving keys with the stage's posting list (a
    hash join built once per version of that stored list); the Bloom
    build makes a
    filter of the scanned keys, the Bloom probe keeps the stage's keys
    that pass it, and the Bloom verify keeps the arriving candidates the
    filter was built from; a substring filter keeps scanned rows whose
    full text holds another stage's keyword."""

    SCAN = "scan"
    SHIP = "ship"
    JOIN = "key-join"
    BLOOM_BUILD = "bloom build"
    BLOOM_PROBE = "bloom probe"
    BLOOM_VERIFY = "bloom verify"
    FILTER = "substring filter"
    FETCH = "fetch"
    ANSWER = "answer"


class Step(NamedTuple):
    """One step of a plan, at a stage index (:data:`QUERY_NODE` for the
    query node)."""

    op: str  # an :class:`Op`
    stage: int
    #: ship: the target stage; substring filter: the needle's stage;
    #: fetch: where the Item replies go
    to: int = QUERY_NODE
    #: ship: an :class:`Edge`
    edge: str | None = None
    #: scan: the table read, whether it keeps one row per distinct key,
    #: and the columns it offers (every other step offers bare keys)
    table: str = POSTING_TABLE
    distinct: bool = False
    columns: tuple[str, ...] = ("fileID",)
    #: ship: the leg adds its hops to the critical path when it carries
    #: anything (it runs after the dissemination chain)
    extends_path: bool = False


def _ship(edge: str, source: int, target: int, **extra) -> Step:
    return Step(Op.SHIP, source, target, edge, **extra)


def _answer(stage: int, fetch_here: bool, fetch_items: bool) -> list[Step]:
    """The tail from the stage holding the matches: a fetch there when
    ``fetch_here``, or else an answer leg to the query node (fetching
    there when ``fetch_items``)."""
    if fetch_items and fetch_here:
        return [Step(Op.FETCH, stage), Step(Op.ANSWER, QUERY_NODE)]
    tail = [_ship(Edge.ANSWER, stage, QUERY_NODE)]
    if fetch_items:
        tail.append(Step(Op.FETCH, QUERY_NODE))
    return tail + [Step(Op.ANSWER, QUERY_NODE)]


@cache
def plan_steps(
    strategy: JoinStrategy, k: int, fetch_items: bool = True
) -> tuple[Step, ...]:
    """The step list of ``strategy`` over ``k`` stages (see
    :class:`JoinStrategy` for each list), with or without its Item fetch.
    The only place that branches on the strategy: the runtime interprets
    this list and the optimizer prices it."""
    if strategy is JoinStrategy.INVERTED_CACHE:
        return (
            _ship(Edge.PLAN, QUERY_NODE, 0),
            Step(Op.SCAN, 0, table=CACHE_TABLE, distinct=True),
            *(Step(Op.FILTER, 0, to=index) for index in range(1, k)),
            *_answer(0, False, fetch_items),
        )
    if k == 1:
        # Nothing to intersect: the scan answers with whole posting rows.
        strategy = JoinStrategy.DISTRIBUTED_JOIN
    steps = [_ship(Edge.PLAN, index - 1 if index else QUERY_NODE, index) for index in range(k)]
    if strategy is JoinStrategy.BLOOM_JOIN:
        steps += [
            Step(Op.SCAN, 0, distinct=True),
            Step(Op.BLOOM_BUILD, 0),
            _ship(Edge.FILTER, 0, 1),
            Step(Op.BLOOM_PROBE, 1),
        ]
        for index in range(2, k):
            steps += [_ship(Edge.DIGEST, index - 1, index), Step(Op.JOIN, index)]
        steps += [
            _ship(Edge.DIGEST, k - 1, 0, extends_path=True),
            Step(Op.BLOOM_VERIFY, 0),
            *_answer(0, True, fetch_items),
        ]
    else:
        semi = strategy is JoinStrategy.SEMI_JOIN
        columns = ("fileID",) if k > 1 else ("keyword", "fileID")
        steps.append(Step(Op.SCAN, 0, distinct=semi, columns=columns))
        for index in range(1, k):
            edge = Edge.SEMI if semi else Edge.REHASH
            steps += [_ship(edge, index - 1, index), Step(Op.JOIN, index)]
        steps += _answer(k - 1, semi, fetch_items)
    return tuple(steps)


@dataclass(frozen=True)
class PlanStage:
    """One stage of a distributed keyword plan."""

    keyword: str
    site: int  # DHT node hosting this keyword's posting list


@dataclass
class DistributedPlan:
    """An ordered chain of per-keyword stages plus the final Item fetch."""

    keywords: tuple[str, ...]
    stages: list[PlanStage]
    strategy: JoinStrategy
    query_node: int
    #: tuples per exchange batch, chosen by the planner from posting-size
    #: stats — the only batch size (None = one batch per edge)
    batch_size: int | None = None
    #: the optimizer's price of this plan, when a cost-based optimizer
    #: priced it (observability only — execution never reads it)
    estimate: "CostEstimate | None" = None

    def __post_init__(self) -> None:
        if not self.stages:
            raise ValueError("a plan needs at least one stage")


@dataclass
class SpillStats:
    """Memory-budgeted join accounting, summed over a query's key-joins.

    Present on ``QueryStats.spill`` only when the execution ran under a
    join ``memory_budget`` (which counts *rows*, not bytes) and the plan
    has a key-join; otherwise ``None``. A join site builds on the posting
    list it stores (:class:`~repro.pier.operators.StoredHashJoin`), so an
    evicted build partition writes nothing — its rows stay in the site's
    store — and what a budget costs is re-reading them: site-local work
    priced at :meth:`repro.common.units.CostModel.spill_tuple_bytes` per
    row, never wire bytes.
    """

    #: probe-time reads — one per evicted partition an arriving batch's
    #: keys land in
    spill_reads: int = 0
    #: bytes those reads scan: the evicted partitions' stored rows
    reread_bytes: int = 0
    #: build partitions evicted to fit the budget
    partition_evictions: int = 0


@dataclass
class PipelineStats:
    """Batch-level and virtual-time statistics of one dataflow execution.

    Times are virtual seconds from query submission on the dataflow's
    simulator clock.
    """

    #: tuples per exchange batch (None = stage-granularity, one batch/edge)
    batch_size: int | None = None
    #: batches actually sent over exchange edges (rehash + answer)
    batches_shipped: int = 0
    #: virtual time the first answer tuple reached the query node
    first_answer_time: float | None = None
    #: virtual time the pipeline fully drained (or failed)
    completion_time: float | None = None


@dataclass
class QueryStats:
    """Everything measured while executing one query."""

    strategy: JoinStrategy
    keywords: tuple[str, ...] = ()
    #: batch/pipeline metadata of the dataflow execution
    pipeline: PipelineStats = field(default_factory=PipelineStats)
    #: memory-budgeted join accounting (budgeted executions only)
    spill: "SpillStats | None" = None
    results: int = 0
    #: posting-list entries shipped between sites (Section 5's key metric);
    #: for SEMI_JOIN/BLOOM_JOIN these ship as packed key digests, so the
    #: same entry count costs far fewer bytes
    posting_entries_shipped: int = 0
    #: Bloom-filter payload bytes shipped (BLOOM_JOIN only)
    filter_bytes: int = 0
    #: overlay messages used end to end
    messages: int = 0
    #: bytes on the wire end to end
    bytes: int = 0
    #: overlay hops on the longest sequential path (drives latency)
    critical_path_hops: int = 0
    #: hops of the sequential plan-dissemination chain, a prefix of the
    #: critical path (the remainder is the answer/item-fetch tail)
    chain_hops: int = 0
    #: fileIDs that survived the posting join (answer tuples before the
    #: Item fetch). Non-zero with ``results == 0`` means the matched Item
    #: rows themselves were missing — evidence of data loss that the
    #: posting lists alone cannot show.
    join_matches: int = 0
    per_stage_entries: list[int] = field(default_factory=list)

    @property
    def kilobytes(self) -> float:
        return self.bytes / 1024

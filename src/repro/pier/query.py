"""Distributed query plans and execution statistics.

A keyword query over ``k`` terms becomes a :class:`DistributedPlan` with
one :class:`PlanStage` per term. Stages are ordered (the planner decides
the order); stage ``i`` executes at the DHT node hosting term ``i``'s
posting list, receiving the surviving tuples from stage ``i-1``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum


class JoinStrategy(Enum):
    """Query-processing strategies: Section 3.2's two plus the PIER
    lineage's bandwidth-saving join rewrites (cost-picked by
    :mod:`repro.pier.optimizer`).

    Strategy matrix — what ships between sites, and when each wins:

    ===================  ==============================  =======================
    strategy             bytes shipped site-to-site      when it wins
    ===================  ==============================  =======================
    DISTRIBUTED_JOIN     full framed posting tuples      single-term queries
                         (~531 B/entry)                  (nothing ships at all)
    SEMI_JOIN            packed fileID digests           rare∧very-popular mixes
                         (~20 B/entry)                   (digest of the rare
                                                         list is tiny; Bloom FP
                                                         traffic on the huge
                                                         list would dominate)
    BLOOM_JOIN           one Bloom filter (~1.2 B/entry  multi-term queries with
                         at 1% FP) + digests of the      comparable list sizes
                         *probable* matches only         (even the rarest list
                                                         is worth compressing)
    INVERTED_CACHE       nothing (single-site            very popular terms —
                         substring filtering)            when the InvertedCache
                                                         table was published
    ===================  ==============================  =======================
    """

    #: Distributed symmetric-hash-join over Inverted posting lists (Fig. 2).
    DISTRIBUTED_JOIN = "distributed_join"
    #: Single-site substring filtering over InvertedCache tuples (Fig. 3).
    INVERTED_CACHE = "inverted_cache"
    #: Symmetric semi-join: ship packed fileID digests down the chain
    #: instead of framed posting tuples; payloads (Item tuples) are
    #: fetched second, only for surviving fileIDs.
    SEMI_JOIN = "semi_join"
    #: Bloom join: ship a Bloom filter built from the rarest posting list,
    #: then digests of only the *probable* matches; the filter site
    #: verifies candidates exactly, so false positives cost bytes but can
    #: never change the answer set.
    BLOOM_JOIN = "bloom_join"


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
    #: exchange batch size chosen by the planner from posting-size stats
    #: (None = the executing runtime's default)
    batch_size: int | None = None
    #: per-keyword posting-list sizes the planner observed, when it probed
    posting_sizes: dict[str, int] | None = None
    #: target false-positive rate for the Bloom join's filter (ignored by
    #: the other strategies)
    bloom_fp_rate: float = 0.01
    #: the optimizer's differential byte estimate for the chosen strategy,
    #: when a cost-based optimizer priced this plan (observability only —
    #: execution never reads it)
    predicted_bytes: int | None = None

    def __post_init__(self) -> None:
        if not self.stages:
            raise ValueError("a plan needs at least one stage")

    @property
    def first_site(self) -> int:
        return self.stages[0].site

    @property
    def last_site(self) -> int:
        return self.stages[-1].site


@dataclass
class SpillStats:
    """Memory-budgeted join accounting, aggregated across a query's joins.

    Present on ``QueryStats.spill`` only when the execution ran under a
    join ``memory_budget`` (which counts *rows*, not bytes); unbudgeted
    runs carry ``None``. Byte figures are priced at
    :meth:`repro.common.units.CostModel.spill_tuple_bytes` per logical
    row — spills land in the site-local DHT temp-tuple store, so they
    cost storage and re-read work but never wire bytes.
    """

    #: join build rows parked in spill partitions (cumulative)
    spilled_tuples: int = 0
    #: probe-time sink reads — only probes into *spilled* partitions count
    spill_reads: int = 0
    #: bytes written to spill storage (spilled_tuples × spill tuple size)
    spilled_bytes: int = 0
    #: bytes re-read from spill storage by probes
    reread_bytes: int = 0
    #: whole-partition evictions (the spill granularity)
    partition_evictions: int = 0
    #: whole-partition restores back into memory after budget freed up
    partition_restores: int = 0
    #: eviction-side flips — the "small" build side outgrew the other
    role_reversals: int = 0
    #: rows spilled after their site churned out, parked in the base
    #: in-memory sink instead of the DHT temp store
    orphan_rows: int = 0

    def merge(self, other: "SpillStats") -> None:
        """Accumulate another join's (or shard's) spill accounting."""
        self.spilled_tuples += other.spilled_tuples
        self.spill_reads += other.spill_reads
        self.spilled_bytes += other.spilled_bytes
        self.reread_bytes += other.reread_bytes
        self.partition_evictions += other.partition_evictions
        self.partition_restores += other.partition_restores
        self.role_reversals += other.role_reversals
        self.orphan_rows += other.orphan_rows


def spill_stats_from_join(join) -> SpillStats:
    """Snapshot one :class:`~repro.pier.operators.SymmetricHashJoin`'s
    spill accounting (duck-typed so this module need not import the
    operator layer)."""
    return SpillStats(
        spilled_tuples=join.spilled_rows,
        spill_reads=join.spill_reads,
        spilled_bytes=join.spilled_bytes,
        reread_bytes=join.reread_bytes,
        partition_evictions=join.partition_evictions,
        partition_restores=join.partition_restores,
        role_reversals=join.role_reversals,
        orphan_rows=join.spill_sink.orphan_rows if join.spill_sink else 0,
    )


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
    #: batches cancelled by early termination before send or processing
    batches_cancelled: int = 0
    #: join build rows spilled to the DHT temp-tuple store
    spilled_tuples: int = 0
    #: probe-time re-reads of spilled partitions
    spill_reads: int = 0
    #: virtual time the first answer tuple reached the query node
    first_answer_time: float | None = None
    #: virtual time the pipeline fully drained (or was cancelled)
    completion_time: float | None = None
    #: stop_after fired: upstream in-flight batches were cancelled
    early_terminated: bool = False


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

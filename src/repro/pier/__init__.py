"""PIER: a relational query processor over a DHT.

This package reproduces the slice of PIER [Huebsch et al., VLDB 2003] that
PIERSearch exercises: relational schemas and tuples, a catalog of DHT-
indexed tables (with memoized per-epoch posting statistics), local
physical operators (a substring filter, and a hash join built once per
version of a site's stored posting list, with an optional memory budget
whose evicted partitions stay in the site's store), and one execution
runtime: the streaming exchange dataflow
(:mod:`repro.pier.dataflow`) that ships tuple batches between sites as
events in virtual time, charging every shipped tuple to the bandwidth
meter. A blocking caller drains it with one batch per edge; the hybrid
engine submits plans onto its shared simulator and takes the first
answer batch.

Four join strategies execute on it, picked per query by the cost-based
optimizer (:mod:`repro.pier.optimizer`) from memoized posting statistics
— what ships between sites, and when each wins:

=================  ================================  =====================
strategy           bytes shipped site-to-site        when it wins
=================  ================================  =====================
DISTRIBUTED_JOIN   framed posting tuples             single-term queries;
                   (~531 B/entry)                    the paper's Figure 2,
                                                     named by Sections 5
                                                     and 7
SEMI_JOIN          packed fileID digests             rare∧very-popular
                   (~20 B/entry)                     term mixes; the
                                                     default chain when
                                                     no optimizer prices
BLOOM_JOIN         Bloom filter of the rarest list   comparable/large
                   (~1.2 B/entry) + probable-match   posting lists
                   digests, verified at the source
INVERTED_CACHE     nothing (single-site substring    whenever that table
                   filtering)                        was published
=================  ================================  =====================
"""

from repro.pier.schema import Row, Schema, row_identity
from repro.pier.rows import RowBatch
from repro.pier.catalog import Catalog, TableHandle
from repro.pier.operators import JoinProbe, Operator, StoredHashJoin, SubstringFilter
from repro.pier.query import DistributedPlan, PipelineStats, PlanStage, QueryStats
from repro.pier.dataflow import DataflowExecutor, DataflowQuery
from repro.pier.optimizer import CostBasedOptimizer, CostEstimate
from repro.pier.planner import KeywordPlanner

__all__ = [
    "Row",
    "RowBatch",
    "Schema",
    "row_identity",
    "Catalog",
    "TableHandle",
    "Operator",
    "SubstringFilter",
    "StoredHashJoin",
    "JoinProbe",
    "DistributedPlan",
    "PlanStage",
    "QueryStats",
    "PipelineStats",
    "DataflowExecutor",
    "DataflowQuery",
    "CostBasedOptimizer",
    "CostEstimate",
    "KeywordPlanner",
]

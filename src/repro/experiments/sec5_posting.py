"""Section 5's motivating claim: rare queries ship few posting entries.

The paper replayed 70,000 queries over 700,000 files with the SHJ
algorithm (smaller posting lists first) and found queries returning <= 10
results ship ~7x fewer posting-list entries than the average query.

We publish the corpus (every replica) into a DHT, replay the workload
through PIERSearch's distributed-join path, and compare the mean entries
shipped for small-result queries against the overall mean. Also reports
the smaller-list-first vs naive-order ablation,
and the streaming-runtime ablation: the same multi-term queries run again
on the pipelined dataflow, which must ship the identical entry count
while its first answer leaves before the join drains.

The 70k-query replay is also the workload the catalog's memoized posting
statistics exist for: with no publishes between queries, every replan
after the first serves its posting-size probes from the per-epoch cache.
"""

from __future__ import annotations

from statistics import mean

from repro.common.errors import PlanError
from repro.dht.network import DhtNetwork
from repro.experiments.common import ExperimentResult, PaperScale, PAPER_SCALE, get_library, get_workload
from repro.pier.catalog import Catalog
from repro.pier.dataflow import DataflowExecutor
from repro.pier.planner import KeywordPlanner
from repro.pier.query import JoinStrategy
from repro.piersearch.publisher import Publisher
from repro.piersearch.search import SearchEngine

_corpus_cache: dict[str, tuple] = {}

#: peers of the DHT the corpus is published into
DHT_NODES = 64
#: the published corpus's replica cap
MAX_FILES = 25_000
#: workload queries replayed
MAX_QUERIES = 200


def build_indexed_corpus(scale: PaperScale):
    """A DHT with the scale's replica corpus published into it.

    The paper replayed its queries over a *sample* of 700,000 files; we
    likewise cap the published corpus at :data:`MAX_FILES` replicas (capping
    per item, so every distinct item keeps at least one replica and the
    long-tail shape survives subsampling).
    """
    if scale.name in _corpus_cache:
        return _corpus_cache[scale.name]
    library = get_library(scale)
    network = DhtNetwork(rng=scale.seed + 20)
    network.populate(DHT_NODES)
    catalog = Catalog(network)
    publisher = Publisher(network, catalog, inverted_cache=False)
    placement = library.place(list(range(scale.num_ultrapeers)), rng=scale.seed + 21)
    total = placement.total_replicas
    keep_fraction = min(1.0, MAX_FILES / total) if total else 1.0
    published = 0
    for filename, replicas in placement.replicas_by_filename.items():
        keep = max(1, int(round(len(replicas) * keep_fraction)))
        for file in replicas[:keep]:
            publisher.publish_file(
                file.filename, file.filesize, file.ip_address, file.port
            )
            published += 1
    _corpus_cache[scale.name] = (network, catalog, publisher)
    return _corpus_cache[scale.name]


def run(scale: PaperScale = PAPER_SCALE) -> ExperimentResult:
    network, catalog, _ = build_indexed_corpus(scale)
    # Section 5 replays the paper's Figure 2 plan.
    engine = SearchEngine(
        network, catalog, strategy=JoinStrategy.DISTRIBUTED_JOIN
    )
    workload = get_workload(scale)

    shipped_small: list[int] = []
    shipped_all: list[int] = []
    shipped_naive: list[int] = []
    shipped_pipelined: list[int] = []
    first_vs_complete: list[float] = []
    planner = KeywordPlanner(catalog)
    unbatched = DataflowExecutor(network, catalog)
    dataflow = DataflowExecutor(network, catalog, rng=scale.seed + 22)
    for query in list(workload)[:MAX_QUERIES]:
        try:
            result = engine.search(list(query.terms))
        except PlanError:
            continue
        shipped_all.append(result.stats.posting_entries_shipped)
        if 0 < len(result.items) <= 10:
            shipped_small.append(result.stats.posting_entries_shipped)
        # Ablations on the same multi-term query: naive stage order, and
        # the streaming dataflow runtime (identical entries shipped, first
        # answer ahead of pipeline completion).
        if len(query.terms) > 1:
            plan = planner.plan(
                list(query.terms),
                network.random_node_id(),
                strategy=JoinStrategy.DISTRIBUTED_JOIN,
                order_by_size=False,
            )
            plan.batch_size = None
            _, stats = unbatched.execute(plan, fetch_items=False)
            shipped_naive.append(stats.posting_entries_shipped)
            pipelined_plan = planner.plan(
                list(query.terms),
                network.random_node_id(),
                strategy=JoinStrategy.DISTRIBUTED_JOIN,
            )
            _, pipe_stats = dataflow.execute(pipelined_plan, fetch_items=False)
            shipped_pipelined.append(pipe_stats.posting_entries_shipped)
            pipeline = pipe_stats.pipeline
            if (
                pipeline.first_answer_time is not None
                and pipeline.completion_time
            ):
                first_vs_complete.append(
                    pipeline.first_answer_time / pipeline.completion_time
                )

    mean_all = mean(shipped_all) if shipped_all else 0.0
    mean_small = mean(shipped_small) if shipped_small else 0.0
    ratio = mean_all / mean_small if mean_small else float("inf")
    mean_naive = mean(shipped_naive) if shipped_naive else 0.0
    multi_term_ordered = [
        s for s, q in zip(shipped_all, workload) if len(q.terms) > 1
    ]
    mean_ordered = mean(multi_term_ordered) if multi_term_ordered else 0.0
    rows = [
        ("mean entries shipped (all queries)", mean_all),
        ("mean entries shipped (<=10 results)", mean_small),
        ("ratio all/small (paper: ~7x)", ratio),
        ("mean entries, multi-term, smallest-first", mean_ordered),
        ("mean entries, multi-term, naive order", mean_naive),
        (
            "mean entries, multi-term, pipelined dataflow",
            mean(shipped_pipelined) if shipped_pipelined else 0.0,
        ),
        (
            "mean first-answer/completion time (pipelined)",
            mean(first_vs_complete) if first_vs_complete else 0.0,
        ),
    ]
    return ExperimentResult(
        experiment_id="sec5-posting",
        title="Posting-list entries shipped by the distributed join",
        columns=["statistic", "value"],
        rows=rows,
        notes=(
            "rare queries are cheap to answer via the DHT; ordering and "
            "streaming-runtime ablations included (pipelined ships identical "
            "entries; first-answer/completion < 1 is pipelining)"
        ),
    )

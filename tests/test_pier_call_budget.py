"""Guard against sliding back to tuple-at-a-time on the conjunction path.

The key-only path of the PIER pipeline is set-at-a-time: a join site
builds one key set on the list it stores (plus, over budget, one
partition count per stored key, through the shared memo), each arriving
batch costs one membership pass and one partition lookup per key, and a
Bloom key costs one memo lookup and one OR or masked compare (its mask is
built once per filter shape). That build, the Bloom filter and a Bloom
probe's matches are made once per version of the stored list, and a
size profile is priced once, so a replayed query makes none of them. A
shipped batch is one check-and-charge call and one hop-delay draw call,
with no message object built. Nothing about that shows in an
answer or a byte count, so a regression to per-key calls, or to
per-query builds, would pass every other test. This one counts
*function calls* — deterministic, no timing — over a small Bloom-join
world and a batched key-join world, and holds them under recorded
ceilings and, for the builds, filters and pricings, to exact counts.
"""

import cProfile
import pstats
import random

from repro.common.bloom import bloom_for_keys
from repro.dht.network import DhtNetwork
from repro.pier.catalog import Catalog
from repro.pier.dataflow import DataflowExecutor
from repro.pier.operators import StoredHashJoin
from repro.pier.optimizer import CostBasedOptimizer
from repro.pier.query import JoinStrategy
from repro.piersearch.publisher import Publisher
from repro.piersearch.search import SearchEngine

FAMILIES = ("alpha", "beta", "gamma", "delta")
NUM_FILES = 256
QUERIES = 24
#: Primitive calls per query (built-in calls included), recorded on
#: CPython 3.11: 5,734 on the per-key path, 3,563 when the bulk path
#: landed, 2,771 with the symmetric join and its buffered DHT spill sink
#: (the last commit that had them), 1,459 once a join site built on its
#: stored list and wrote no spill, 1,370 once a batch shipped in one call
#: (1,357 once a leaf query was normalised once), and 1,073 once a join
#: site kept its list's build, Bloom filter and Bloom probe results until
#: the list changed and a size profile was priced once (893 on a second
#: pass over the same queries). The ceiling leaves ~20 % headroom for
#: interpreter versions and unrelated bookkeeping; per-query builds and
#: pricings overshoot it, and the symmetric join by more than double.
CALLS_PER_QUERY_CEILING = 1_300
#: Primitive calls per shipped batch of a two-term key join at two tuples
#: a batch, recorded on CPython 3.11: 69.3 while each batch built a
#: lookup result, a typed message, a delivery record and a shipment
#: record and drew each hop's delay through four frames (3.12: 67.1),
#: 57.5 once it shipped in one call and drew all its hops in another
#: (3.12: 54.9).
CALLS_PER_BATCH_CEILING = 63


def terms_of(index):
    return [
        f"{family}{(index // 4**position) % 4:02d}"
        for position, family in enumerate(FAMILIES)
    ]


def budgeted_bloom_world():
    """(engine, queries): a 16-node index whose every conjunction runs as
    a spilling Bloom join (``tests/test_pier_memory.py`` drains it too)."""
    network = DhtNetwork(rng=5)
    network.populate(16)
    catalog = Catalog(network)
    publisher = Publisher(network, catalog)
    # Mixed-radix names: each term matches a quarter of the corpus (64
    # postings against a join budget of 32, so every join site spills),
    # all four together exactly one file.
    for index in range(NUM_FILES):
        name = " ".join(terms_of(index)) + f" take{index:04d}.mp3"
        publisher.publish_file(name, 1000 + index, f"10.0.0.{index}", 6346)
    engine = SearchEngine(network, catalog, optimizer=True, memory_budget=32)
    rng = random.Random(9)
    return engine, [terms_of(rng.randrange(NUM_FILES)) for _ in range(QUERIES)]


def test_budgeted_bloom_conjunctions_stay_set_at_a_time():
    engine, queries = budgeted_bloom_world()
    engine.search(queries[0])  # lazy set-up and memo fills stay outside the count

    profile = cProfile.Profile()
    profile.enable()
    results = [engine.search(terms) for terms in queries]
    profile.disable()

    for result in results:
        assert len(result) == 1
        assert result.stats.strategy is JoinStrategy.BLOOM_JOIN
        assert result.stats.spill.partition_evictions > 0
    calls_per_query = pstats.Stats(profile).prim_calls / QUERIES
    assert calls_per_query < CALLS_PER_QUERY_CEILING, calls_per_query


def calls_to(profile, function):
    """How many times ``profile`` saw ``function`` called."""
    code = function.__code__
    entry = pstats.Stats(profile).stats.get(
        (code.co_filename, code.co_firstlineno, code.co_name)
    )
    return entry[1] if entry else 0


def test_a_replay_builds_filters_and_prices_nothing():
    """Join builds, Bloom filters and strategy pricings per pass over the
    24 queries: once the first pass has met every stored list and size
    profile, a second builds, filters and prices nothing. Recorded on the
    commit that memoised them; per query they were 48, 24 and 72 a pass
    (two join sites and one filter per query, three strategies priced)."""
    engine, queries = budgeted_bloom_world()
    engine.search(queries[0])  # its lists and size profile are met here
    passes = []
    for _ in range(2):
        profile = cProfile.Profile()
        profile.enable()
        for terms in queries:
            engine.search(terms)
        profile.disable()
        passes.append(
            [
                calls_to(profile, function)
                for function in (
                    StoredHashJoin.__init__,
                    bloom_for_keys,
                    CostBasedOptimizer._price,
                )
            ]
        )
    assert passes == [[6, 3, 0], [0, 0, 0]]


def test_a_shipped_batch_costs_one_call_and_one_draw():
    engine, queries = budgeted_bloom_world()
    network, catalog = engine.network, engine.catalog
    flow = DataflowExecutor(network, catalog, rng=3)
    nodes = sorted(network.nodes)
    plans = [
        engine.planner.plan(
            terms[:2], nodes[index % len(nodes)], strategy=JoinStrategy.DISTRIBUTED_JOIN
        )
        for index, terms in enumerate(queries)
    ]
    flow.execute(plans[0], fetch_items=False)  # route cache and memo fills

    profile = cProfile.Profile()
    profile.enable()
    results = [flow.execute(plan, fetch_items=False) for plan in plans]
    profile.disable()

    batches = sum(stats.pipeline.batches_shipped for _, stats in results)
    assert all(rows for rows, _ in results)
    assert batches > 10 * QUERIES  # the planner ships 64-entry lists 8 at a time
    calls_per_batch = pstats.Stats(profile).prim_calls / batches
    assert calls_per_batch < CALLS_PER_BATCH_CEILING, calls_per_batch

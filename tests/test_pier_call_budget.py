"""Guard against sliding back to tuple-at-a-time on the conjunction path.

The key-only path of the PIER pipeline is set-at-a-time: one
``insert_keys`` per posting list or batch, one ``route_counts`` per run
of routed keys, one ``put_local_many`` per partition a join call
surfaced (the sink's ``flush``, not one per eviction or routed run), no
call per probe of a spilled partition, and one memo lookup and one OR or
masked compare per Bloom key (its mask is built once per filter shape).
Nothing about that shows in an answer or a byte count, so a regression
to per-key calls would pass every other test. This one counts *function
calls* — deterministic, no timing — over a small Bloom-join world and
holds them under a recorded ceiling, and counts the store writes of
every join call.
"""

import cProfile
import pstats
import random

import repro.pier.dataflow as dataflow
from repro.dht.network import DhtNetwork
from repro.pier.catalog import Catalog
from repro.pier.operators import SymmetricHashJoin
from repro.pier.query import JoinStrategy
from repro.piersearch.publisher import Publisher
from repro.piersearch.search import SearchEngine

from oracle import ReferenceSpillSink

FAMILIES = ("alpha", "beta", "gamma", "delta")
NUM_FILES = 256
QUERIES = 24
#: Primitive calls per query (built-in calls included), recorded on
#: CPython 3.11: 5,734 on the per-key path, 3,563 when the bulk path
#: landed, 3,311 on the parent of the bare-key spill surface, 3,005 with
#: it (an eviction hands its mapping over: no ``sum``, no membership
#: scan, no merge loop, no regrouping), and 2,854 once the surface was
#: written once per partition per join call (no ``ring_key`` and
#: ``put_local_many`` per eviction or routed run, no regrouping dict),
#: probes and restore scans read the parked index with no method call
#: per partition, and a Bloom key cost one mask lookup. The ceiling
#: leaves ~20 % headroom for interpreter versions and unrelated
#: bookkeeping; the per-key path overshoots it by more than two thirds.
CALLS_PER_QUERY_CEILING = 3_400


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
        assert result.stats.spill.spilled_tuples > 0
    calls_per_query = pstats.Stats(profile).prim_calls / QUERIES
    assert calls_per_query < CALLS_PER_QUERY_CEILING, calls_per_query


def spill_writes_per_join_call(monkeypatch, sink_class):
    """Drain the world with ``sink_class`` as the join sites' spill sink;
    returns the ring keys each join call wrote, one list per call."""
    monkeypatch.setattr(dataflow, "_DhtSpillSink", sink_class)
    calls, open_calls = [], []
    put_local_many = DhtNetwork.put_local_many
    insert_keys = SymmetricHashJoin.insert_keys

    def recording_put(network, node_id, key, entries):
        assert open_calls, "a spill write outside a join call"
        open_calls[-1].append(key)
        return put_local_many(network, node_id, key, entries)

    def recording_insert(join, side, keys):
        open_calls.append([])
        try:
            return insert_keys(join, side, keys)
        finally:
            calls.append(open_calls.pop())

    monkeypatch.setattr(DhtNetwork, "put_local_many", recording_put)
    monkeypatch.setattr(SymmetricHashJoin, "insert_keys", recording_insert)
    engine, queries = budgeted_bloom_world()
    for terms in queries:
        engine.search(terms)
    monkeypatch.undo()
    return calls


def test_a_join_call_writes_each_surfaced_partition_once(monkeypatch):
    """At most one ``put_local_many`` per partition a join call surfaced,
    where the unbuffered reference sink writes once per eviction and
    once per partition of every routed run (497 writes against 236 in
    this world)."""
    buffered = spill_writes_per_join_call(monkeypatch, dataflow._DhtSpillSink)
    unbuffered = spill_writes_per_join_call(monkeypatch, ReferenceSpillSink)
    assert len(buffered) == len(unbuffered)
    for keys in buffered:
        assert len(keys) == len(set(keys))
    for keys, reference in zip(buffered, unbuffered):
        assert set(keys) <= set(reference)
    written = sum(map(len, buffered))
    assert 0 < written < sum(map(len, unbuffered)) * 2 // 3

"""Guard the leaf-query path against normalising a query more than once.

A leaf query is tokenised into its :func:`~repro.cache.results.query_key`
once, when its race is submitted; the result cache and the zero-answer
check both read that key, and the table-qualified posting keys are hashed
only when a PIER answer comes back empty. The engine's registry series
are resolved once each. None of that shows in an answer or a byte count,
so this test counts *function calls* under
``cProfile`` — deterministic, no timing — over a small cached world of
Zipf-repeated two-term queries, where most races are answered by the cache
and the rest re-query through PIER.
"""

import cProfile
import math
import pstats
import random

from repro.cache.results import QueryResultCache, query_key
from repro.common import ids
from repro.dht.network import DhtNetwork
from repro.hybrid.engine import HybridQueryEngine
from repro.hybrid.ultrapeer import HybridUltrapeer
from repro.pier.catalog import Catalog
from repro.piersearch.publisher import Publisher
from repro.piersearch.search import SearchEngine
from repro.sim.engine import Simulator

DISTINCT = 8
RACES = 160
#: Primitive calls per race (built-in calls included), recorded on CPython
#: 3.11: 228.6 while every race tokenised its terms in the ultrapeer, the
#: cache lookup and the cache get, hashed its posting keys at submission
#: and looked each registry series up by name (3.10: 228.6, 3.12: 227.3);
#: 154.2 once the race carried one key and the engine held its registry
#: handles (3.10: 154.8, 3.12: 153.5). The ceiling leaves ~10 % headroom
#: for interpreter versions; the per-call path overshoots it by a third.
CALLS_PER_RACE_CEILING = 170


def cached_world():
    """(sim, engine, hybrid, queries): one ultrapeer with a shared result
    cache over a 32-node index, and a Zipf-repeated stream of two-term
    queries that every flood misses, so each race reaches the cache."""
    dht = DhtNetwork(rng=23)
    nodes = dht.populate(32)
    catalog = Catalog(dht)
    publisher = Publisher(dht, catalog)
    for index in range(DISTINCT):
        for take in range(3):
            publisher.publish_file(
                filename=f"montia{index} Klorena{index} take{take}.mp3",
                filesize=100 + take,
                ip_address=f"10.0.{index}.{take}",
                port=6346,
            )
    sim = Simulator()
    engine = HybridQueryEngine(sim, dht, rng=5)
    hybrid = HybridUltrapeer(
        ultrapeer_id=1,
        dht_node_id=nodes[0].node_id,
        publisher=publisher,
        search_engine=SearchEngine(dht, catalog),
        result_cache=QueryResultCache(
            1 << 20, clock=lambda: sim.now, cost_model=dht.cost_model
        ),
    )
    distinct = [[f"Montia{index}", f"klorena{index}!"] for index in range(DISTINCT)]
    weights = [1 / rank for rank in range(1, DISTINCT + 1)]
    queries = random.Random(7).choices(distinct, weights, k=RACES)
    return sim, engine, hybrid, queries


def submit_all(sim, engine, hybrid, queries):
    for index, terms in enumerate(queries):
        sim.schedule(
            index * 2.0,
            lambda terms=terms: hybrid.handle_leaf_query_simulated(
                engine, list(terms), [math.inf], 3
            ),
        )
    sim.run()


def calls_to(stats, function):
    code = function.__code__
    return sum(
        primitive
        for (filename, line, name), (primitive, *_rest) in stats.stats.items()
        if (filename, line, name) == (code.co_filename, code.co_firstlineno, code.co_name)
    )


def test_calls_per_race_under_ceiling():
    sim, engine, hybrid, queries = cached_world()

    profile = cProfile.Profile()
    profile.enable()
    submit_all(sim, engine, hybrid, queries)
    profile.disable()

    races = engine.races
    assert len(races) == RACES and all(race.done for race in races)
    hits = sum(race.outcome.cache_hit for race in races)
    assert RACES // 2 < hits < RACES  # most races hit, some re-query
    assert all(race.outcome.pier_results == 3 for race in races)
    calls_per_race = pstats.Stats(profile).prim_calls / RACES
    assert calls_per_race < CALLS_PER_RACE_CEILING, calls_per_race


def test_one_query_key_per_race_and_no_posting_hash_on_a_hit():
    sim, engine, hybrid, queries = cached_world()
    distinct = sorted({tuple(terms) for terms in queries})
    submit_all(sim, engine, hybrid, [list(terms) for terms in distinct])  # warm

    profile = cProfile.Profile()
    profile.enable()
    submit_all(sim, engine, hybrid, queries)
    profile.disable()

    measured = engine.races[len(distinct):]
    assert all(race.outcome.cache_hit for race in measured)
    stats = pstats.Stats(profile)
    assert calls_to(stats, query_key) == RACES
    assert calls_to(stats, ids.hash_key) == 0

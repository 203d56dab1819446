"""Guard the leaf query's re-query path against redoing pure work per use.

Between membership changes nothing a re-query resolves changes: a
keyword's ring key (one SHA-1 of ``"Inverted|keyword"``), the query's
normalised keywords (its race already carries them as ``QueryRace.key``)
and the overlay hops between two sites. So a table handle hashes a value
once (:meth:`~repro.pier.catalog.TableHandle.ring_key`), the engine plans
from the race's key instead of tokenising the terms again, and
:meth:`~repro.dht.network.DhtNetwork.route_hops` reads a hop count
memoised per ``(origin, key)`` in the route cache's epoch. None of that
shows in an answer, a byte count or a simulated time, so this test
counts *function calls* under ``cProfile`` —
deterministic, no timing — over a small conjunctive world whose every
flood misses, so each race re-queries through PIER, and holds them under
recorded ceilings. It pins the route cache's counters too, so the saving
cannot come from caching differently: a hop memo hit counts as the
route-cache hit it stands for.

Every memo key is a string or an int, so the counts do not move with
``PYTHONHASHSEED`` (CI runs this file under a second salt).
"""

import cProfile
import math
import pstats
import random

from repro.common import ids
from repro.dht.network import DhtNetwork
from repro.hybrid.engine import RaceConfig
from repro.hybrid.world import build_world
from repro.piersearch import tokenizer

FAMILIES = ("alpha", "beta", "gamma", "delta")
NUM_FILES = 256
QUERIES = 48
#: Per query, recorded on CPython 3.11 over this world. While every use
#: re-derived its value (the commit before): 16.8 SHA-1 hashes
#: (``hash_to_int``), 9.6 ``extract_keywords`` calls and 1,439.3
#: primitive calls (3.10: 1,442.5, 3.12: 1,426.0). Once each value was
#: resolved once per world or epoch: 2.7 hashes (the first read of each
#: keyword and of each answered fileID), 6.2 extractions (the race's
#: ``query_key`` and the answer's conjunctive re-check) and 1,276.0 calls
#: (3.10: 1,279.3, 3.12: 1,262.8; one process in three read ~3 more on
#: 3.11). With exchange batches sent direct: 2.4 hashes, 6.2 extractions
#: and 1,249.7 calls on 3.11. With the semi-join's and the Bloom join's
#: Item fetches sent from the site holding the matches (no answer leg):
#: 2.4 hashes, 6.2 extractions and 1,197.6 calls (3.10: 1,197.6, 3.12:
#: 1,181.2). Each ceiling sits just above the second count and below
#: the first.
HASHES_PER_QUERY_CEILING = 3
KEYWORD_EXTRACTIONS_PER_QUERY_CEILING = 7
CALLS_PER_QUERY_CEILING = 1_330
#: The route cache's counters over the same run, identical with and
#: without the hop memo: the memo made a hit cheaper, it did not change
#: what is one. Exchange batches go direct to the site their plan leg
#: resolved and look no route up. A rewrite's Item fetches route from the
#: site holding its matches, not from the query node (188 hits and 98
#: misses when every fetch started at the query node).
ROUTE_CACHE_HITS = 194
ROUTE_CACHE_MISSES = 92


def terms_of(index):
    """Mixed-radix names: each term matches a quarter of the corpus, all
    four together exactly one file."""
    return [
        f"{family}{(index // 4**position) % 4:02d}"
        for position, family in enumerate(FAMILIES)
    ]


def conjunctive_world():
    """(world, queries): four hybrid ultrapeers over a 32-node index of
    ``NUM_FILES`` files, and three- and four-term conjunctions that no
    flood answers."""
    dht = DhtNetwork(rng=11)
    dht.populate(32)
    world = build_world(
        dht, range(4), optimizer=True, race_config=RaceConfig(memory_budget=32), rng=5
    )
    nodes = world.nodes
    for index in range(NUM_FILES):
        world.publisher.publish_file(
            " ".join(terms_of(index)) + f" take{index:04d}.mp3",
            1000 + index,
            f"10.0.{index // 250}.{index % 250}",
            6346,
            origin=nodes[index % len(nodes)].node_id,
        )
    rng = random.Random(9)
    queries = []
    for _ in range(QUERIES):
        terms = terms_of(rng.randrange(NUM_FILES))
        queries.append(terms[: rng.choice((3, 4))])
    return world, queries


def run_queries(world, queries):
    engine, hybrids = world.engine, world.hybrids
    for index, terms in enumerate(queries):
        world.sim.schedule(
            index * 3.0,
            lambda index=index, terms=terms: hybrids[index % len(hybrids)]
            .handle_leaf_query_simulated(engine, list(terms), [math.inf], 3),
        )
    world.sim.run()


def calls_to(stats, function):
    code = function.__code__
    return sum(
        primitive
        for (filename, line, name), (primitive, *_rest) in stats.stats.items()
        if (filename, line, name) == (code.co_filename, code.co_firstlineno, code.co_name)
    )


def test_a_requery_resolves_each_key_site_pair_and_query_once():
    world, queries = conjunctive_world()
    dht = world.dht
    hits, misses = dht.route_cache_hits, dht.route_cache_misses

    profile = cProfile.Profile()
    profile.enable()
    run_queries(world, queries)
    profile.disable()

    races = world.engine.races
    assert len(races) == QUERIES and all(race.done for race in races)
    assert all(race.outcome.used_pier and not race.outcome.degraded for race in races)
    assert all(race.outcome.pier_results >= 1 for race in races)
    assert (dht.route_cache_hits - hits, dht.route_cache_misses - misses) == (
        ROUTE_CACHE_HITS,
        ROUTE_CACHE_MISSES,
    )
    stats = pstats.Stats(profile)
    hashes = calls_to(stats, ids.hash_to_int) / QUERIES
    extractions = calls_to(stats, tokenizer.extract_keywords) / QUERIES
    calls = stats.prim_calls / QUERIES
    assert hashes < HASHES_PER_QUERY_CEILING, hashes
    assert extractions < KEYWORD_EXTRACTIONS_PER_QUERY_CEILING, extractions
    assert calls < CALLS_PER_QUERY_CEILING, calls

"""Graceful degradation taxonomy: every lossy answer is explicitly flagged.

A zero-result DHT answer is only reported clean when it is provably
honest; otherwise the race resolves ``degraded`` with a reason:

* ``deadline`` — the re-query outlived ``requery_deadline``;
* ``requery-abandoned`` — every re-query attempt dead-ended;
* ``suspect-range`` — a posting key lies in a suspect range, or the
  posting join matched rows whose Item tuples are gone;
* ``membership-change`` — the ring moved under the walk and the empty
  answer cannot be distinguished from handed-off-but-lost data.

Degraded answers must never poison the result cache.
"""

import math

import pytest

from repro.cache.results import QueryResultCache
from repro.common.ids import hash_key
from repro.dht.network import DhtNetwork
from repro.hybrid.engine import HybridQueryEngine, RaceConfig
from repro.hybrid.ultrapeer import HybridUltrapeer
from repro.pier.catalog import Catalog
from repro.piersearch.publisher import Publisher, compute_file_id
from repro.piersearch.search import SearchEngine
from repro.sim.engine import Simulator

TIMEOUT = 30.0


def build_world(config=None, cache=False):
    dht = DhtNetwork(rng=41)
    nodes = dht.populate(32)
    catalog = Catalog(dht)
    publisher = Publisher(dht, catalog)
    search = SearchEngine(dht, catalog)
    sim = Simulator()
    engine = HybridQueryEngine(
        sim, dht, config=config or RaceConfig(retry_backoff=0.5), rng=5
    )
    result_cache = None
    if cache:
        result_cache = QueryResultCache(
            1 << 20, clock=lambda: sim.now, cost_model=dht.cost_model
        )
    hybrid = HybridUltrapeer(
        ultrapeer_id=1,
        dht_node_id=nodes[0].node_id,
        publisher=publisher,
        search_engine=search,
        gnutella_timeout=TIMEOUT,
        result_cache=result_cache,
    )
    return sim, dht, engine, hybrid


def publish(hybrid, name="rare montia klorena.mp3"):
    hybrid.publisher.publish_file(
        filename=name, filesize=100, ip_address="10.0.0.1", port=6346
    )


def rare_query(engine, hybrid, terms=("montia",)):
    return hybrid.handle_leaf_query_simulated(
        engine, list(terms), [math.inf], 3
    )


def test_clean_answer_is_not_degraded():
    sim, _, engine, hybrid = build_world()
    publish(hybrid)
    race = rare_query(engine, hybrid)
    sim.run()
    assert race.outcome.pier_results == 1
    assert not race.outcome.degraded
    assert not race.outcome.degraded_reason


def test_honest_empty_answer_is_not_degraded():
    """Nothing published, nothing churned: zero results, zero flags."""
    sim, _, engine, hybrid = build_world()
    race = rare_query(engine, hybrid)
    sim.run()
    assert race.outcome.used_pier
    assert race.outcome.pier_results == 0
    assert not race.outcome.degraded


def test_deadline_degrades_instead_of_waiting():
    sim, _, engine, hybrid = build_world(
        config=RaceConfig(retry_backoff=0.5, requery_deadline=0.001)
    )
    publish(hybrid)
    race = rare_query(engine, hybrid)
    sim.run()
    assert race.done and race.pier_failed
    assert race.outcome.degraded
    assert race.outcome.degraded_reason == "deadline"
    assert engine.metrics.counter("hybrid.requery_deadline_exceeded").value == 1


def test_abandoned_requery_degrades_with_reason():
    sim, dht, engine, hybrid = build_world()
    publish(hybrid)
    race = rare_query(engine, hybrid)

    def nuke():
        for node_id in list(dht.nodes):
            dht.remove_node(node_id, graceful=False)

    sim.schedule(TIMEOUT - 0.01, nuke)
    sim.run()
    assert race.done and race.pier_failed
    assert race.outcome.degraded_reason == "requery-abandoned"


def test_suspect_posting_key_degrades_zero_answer():
    """The posting list's owner died with no handoff: empty is not honest."""
    sim, dht, engine, hybrid = build_world()
    publish(hybrid)
    race = rare_query(engine, hybrid)
    posting_key = hash_key("Inverted|montia")
    sim.schedule(
        TIMEOUT - 0.01,
        lambda: dht.remove_node(dht.owner_of(posting_key), graceful=False),
    )
    sim.run()
    assert race.done
    assert race.outcome.pier_results == 0
    assert race.outcome.degraded
    assert race.outcome.degraded_reason == "suspect-range"
    assert dht.is_suspect(posting_key)


@pytest.mark.parametrize(
    "terms",
    [("montia",), ("montia", "rare")],
    ids=["answer-leg", "semi-join-fetch"],
)
def test_lost_item_rows_degrade_zero_answer(terms):
    """Posting join matches but the Item tuples are gone: flagged loss,
    whether the query node fetches after an answer leg (one term) or the
    semi-join's last join site fetches (two terms)."""
    sim, dht, engine, hybrid = build_world()
    name = "rare montia klorena.mp3"
    publish(hybrid, name)
    file_id = compute_file_id(name, 100, "10.0.0.1", 6346)
    item_key = hash_key(f"Item|{file_id}")
    for term in terms:
        assert dht.owner_of(item_key) != dht.owner_of(hash_key(f"Inverted|{term}"))
    race = rare_query(engine, hybrid, terms)
    sim.schedule(
        TIMEOUT - 0.01,
        lambda: dht.remove_node(dht.owner_of(item_key), graceful=False),
    )
    sim.run()
    assert race.done
    assert race.outcome.pier_results == 0
    # The join itself matched: the loss is in the Item table, which the
    # posting keys alone could never prove.
    assert race.join_matches > 0
    assert race.outcome.degraded_reason == "suspect-range"


def test_membership_change_is_the_conservative_fallback():
    """No suspects, but the epoch moved mid-race: empty stays untrusted."""
    sim, dht, engine, hybrid = build_world()
    race = rare_query(engine, hybrid)
    victim = sorted(dht.nodes)[-1]
    sim.schedule(TIMEOUT + 0.1, lambda: dht.remove_node(victim, graceful=True))
    sim.run()
    assert race.done
    assert race.outcome.pier_results == 0
    assert not dht.suspect_ranges
    assert race.outcome.degraded_reason == "membership-change"


def test_degraded_counter_labels_by_reason():
    sim, dht, engine, hybrid = build_world()
    publish(hybrid)
    race = rare_query(engine, hybrid)
    posting_key = hash_key("Inverted|montia")
    sim.schedule(
        TIMEOUT - 0.01,
        lambda: dht.remove_node(dht.owner_of(posting_key), graceful=False),
    )
    sim.run()
    assert race.outcome.degraded
    counter = engine.metrics.counter(
        "hybrid.degraded", labels={"reason": race.outcome.degraded_reason}
    )
    assert counter.value == 1


def test_degraded_answers_never_poison_the_cache():
    sim, dht, engine, hybrid = build_world(cache=True)
    publish(hybrid)
    posting_key = hash_key("Inverted|montia")
    first = rare_query(engine, hybrid)
    sim.schedule(
        TIMEOUT - 0.01,
        lambda: dht.remove_node(dht.owner_of(posting_key), graceful=False),
    )
    sim.run()
    assert first.outcome.degraded
    # The degraded empty answer was not stored: a repeat query misses.
    second = rare_query(engine, hybrid)
    sim.run()
    assert not second.outcome.cache_hit
    assert engine.metrics.counter("hybrid.cache_hits").value == 0


def test_clean_answers_are_cached():
    """Control for the poisoning guard: an honest answer does populate
    the cache and the repeat query hits it."""
    sim, _, engine, hybrid = build_world(cache=True)
    publish(hybrid)
    first = rare_query(engine, hybrid)
    sim.run()
    assert first.outcome.pier_results == 1 and not first.outcome.degraded
    second = rare_query(engine, hybrid)
    sim.run()
    assert second.outcome.cache_hit
    assert second.outcome.pier_results == 1

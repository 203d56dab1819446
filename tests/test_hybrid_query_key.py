"""A race carries one normalised key, and the zero-answer check derives
its posting keys from it.

``HybridQueryEngine.submit`` stores the query's ``query_key`` on the race
and nothing else: the table-qualified posting keys are hashed only when a
PIER answer comes back empty (a query of stop words only is never
re-issued, so it reads none). The property: over arbitrary term lists —
mixed case, punctuation, stop words, duplicates, multi-word terms, queries
of stop words only — the keys that check reads are exactly the set
``tests/oracle.py::reference_posting_keys`` derives term by term.
"""

import math
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import reference_posting_keys
from repro.cache.results import query_key
from repro.dht.network import DhtNetwork
from repro.hybrid.engine import HybridQueryEngine
from repro.hybrid.ultrapeer import HybridUltrapeer
from repro.pier.catalog import Catalog
from repro.pier.query import JoinStrategy
from repro.piersearch.publisher import Publisher
from repro.piersearch.search import SearchEngine
from repro.sim.engine import Simulator

WORDS = st.sampled_from(
    ["the", "Of", "MP3", "feat", "a", "montia", "Klorena", "take01", "x", "Beatles"]
)
NOISE = st.text(alphabet="abcMNO019 -_!.'&", max_size=12)
TERM = st.one_of(
    WORDS,
    NOISE,
    st.lists(st.one_of(WORDS, NOISE), min_size=2, max_size=4).map(" ".join),
)
TERM_LISTS = st.one_of(
    st.lists(TERM, max_size=5),
    st.lists(TERM, min_size=1, max_size=3).map(lambda terms: terms + terms[::-1]),
)


@lru_cache(maxsize=None)
def hybrid_for(strategy):
    dht = DhtNetwork(rng=3)
    nodes = dht.populate(8)
    catalog = Catalog(dht)
    return HybridUltrapeer(
        ultrapeer_id=1,
        dht_node_id=nodes[0].node_id,
        publisher=Publisher(dht, catalog),
        search_engine=SearchEngine(dht, catalog, strategy=strategy),
    )


def keys_read_by_zero_answer_check(hybrid, terms):
    """(race, keys): race ``terms`` against an empty index, where every
    answer is a clean zero, recording each key checked for suspicion."""
    dht = hybrid.search_engine.network
    sim = Simulator()
    engine = HybridQueryEngine(sim, dht, rng=1)
    read = []

    def is_suspect(key):
        read.append(key)
        return False

    dht.is_suspect = is_suspect
    try:
        race = hybrid.handle_leaf_query_simulated(engine, terms, [math.inf], 3)
        sim.run()
    finally:
        del dht.is_suspect
    assert race.done and race.outcome.pier_results == 0
    assert not race.outcome.degraded
    return race, read


@pytest.mark.parametrize(
    "strategy, table", [(None, "Inverted"), (JoinStrategy.INVERTED_CACHE, "InvertedCache")]
)
@settings(max_examples=150, deadline=None)
@given(terms=TERM_LISTS)
def test_zero_answer_reads_the_reference_posting_keys(strategy, table, terms):
    race, read = keys_read_by_zero_answer_check(hybrid_for(strategy), terms)
    assert race.key == query_key(terms)
    assert sorted(read) == sorted(set(reference_posting_keys(table, terms)))


def test_stop_words_only_read_no_posting_key():
    race, read = keys_read_by_zero_answer_check(hybrid_for(None), ["The", "of MP3"])
    assert race.key == ()
    assert read == [] == list(reference_posting_keys("Inverted", ["The", "of MP3"]))

"""One hybrid world: the race stack of Section 7, wired in one place.

:func:`build_world` wires hybrid ultrapeers, a catalog, a publisher, a
search engine, the race engine and the optional result cache onto a DHT
the caller has built and populated (worlds differ there: RNG stream,
replication, a fault-injecting transport). It decides three things for
every caller: the i-th hybrid ultrapeer sits on the i-th DHT node; the
cache and a passed tracer read the world's virtual clock; one
``metrics``/``tracer`` reaches the search engine, the race engine and
every ultrapeer. Nothing is published and nothing is scheduled.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.cache.results import QueryResultCache
from repro.dht.network import DhtNetwork
from repro.hybrid.engine import HybridQueryEngine, RaceConfig
from repro.hybrid.ultrapeer import DEFAULT_GNUTELLA_TIMEOUT, HybridUltrapeer
from repro.pier.catalog import Catalog
from repro.pier.query import JoinStrategy
from repro.piersearch.publisher import Publisher
from repro.piersearch.search import SearchEngine
from repro.sim.engine import Simulator

@dataclass
class HybridWorld:
    """Everything a leaf query touches, built once by :func:`build_world`."""

    sim: Simulator
    dht: DhtNetwork
    #: the DHT's nodes in join order; ``hybrids[i]`` sits on ``nodes[i]``
    nodes: list
    catalog: Catalog
    publisher: Publisher
    search: SearchEngine
    engine: HybridQueryEngine
    hybrids: list[HybridUltrapeer]
    #: shared result cache (None when the budget is 0)
    cache: QueryResultCache | None


def build_world(
    dht: DhtNetwork,
    ultrapeer_ids: Sequence[int],
    *,
    gnutella_timeout: float = DEFAULT_GNUTELLA_TIMEOUT,
    strategy: JoinStrategy | None = None,
    optimizer: bool = False,
    race_config: RaceConfig | None = None,
    rng=None,
    cache_budget_bytes: int = 0,
    tracer=None,
    metrics=None,
) -> HybridWorld:
    """Wire the hybrid stack onto the populated ``dht``.

    One hybrid ultrapeer is built per entry of ``ultrapeer_ids``, on the
    DHT node of the same position. ``rng`` seeds the race engine's latency
    draws. ``strategy`` is the search engine's join strategy (``None``:
    the optimizer's pick, else the semi-join); ``INVERTED_CACHE`` also
    makes the publisher publish that table. A positive
    ``cache_budget_bytes`` adds the shared result cache.
    """
    nodes = list(dht.nodes.values())
    if len(ultrapeer_ids) > len(nodes):
        raise ValueError(
            f"{len(ultrapeer_ids)} hybrids need as many DHT nodes, not {len(nodes)}"
        )
    sim = Simulator()
    if tracer is not None:
        tracer.bind_clock(lambda: sim.now)
    catalog = Catalog(dht)
    publisher = Publisher(
        dht, catalog, inverted_cache=strategy is JoinStrategy.INVERTED_CACHE
    )
    search = SearchEngine(
        dht, catalog, strategy=strategy, optimizer=optimizer,
        tracer=tracer, metrics=metrics,
    )
    engine = HybridQueryEngine(
        sim, dht, config=race_config, rng=rng,
        tracer=tracer, metrics=metrics,
    )
    cache = None
    if cache_budget_bytes > 0:
        cache = QueryResultCache(
            cache_budget_bytes, clock=lambda: sim.now, cost_model=dht.cost_model
        )
    hybrids = [
        HybridUltrapeer(
            ultrapeer, node.node_id, publisher, search,
            gnutella_timeout=gnutella_timeout, result_cache=cache,
            metrics=metrics,
        )
        for ultrapeer, node in zip(ultrapeer_ids, nodes)
    ]
    return HybridWorld(
        sim, dht, nodes, catalog, publisher, search, engine, hybrids, cache
    )

"""Cost-based join optimizer: pick the cheapest of the four strategies.

The distributed hash join rehashes framed posting tuples (~531 B per
entry under the default :class:`~repro.common.units.CostModel`); the
PIER lineage's answer is bandwidth-saving rewrites — the semi-join,
the Bloom join and the InvertedCache plan (see
:class:`~repro.pier.query.JoinStrategy`). This module prices all four
per query from the memoized :class:`~repro.pier.catalog.Catalog` posting
statistics, by walking each strategy's step list
(:func:`~repro.pier.query.plan_steps`) — the same list the dataflow
runtime executes, so a strategy or edge is priced the moment it is
spelled out there.

Per-step prices
---------------

The optimizer prices what a plan ships over the network and nothing
else: a join site's memory budget changes no answer and no wire byte
(:class:`~repro.pier.operators.StoredHashJoin` re-reads evicted rows from
its own store, in no virtual time), so it moves no price. It has no
configuration. The cost model is the network's, the hop estimate ``h``
is ``ceil(log2)`` of the live ring, the join selectivity ``sigma`` (the
fraction of the stream surviving each intersection) is
:data:`JOIN_SELECTIVITY`, and the Bloom FP target ``fp`` is
:data:`~repro.pier.query.BLOOM_FP_RATE`, the rate every plan's filter is
built at.

With posting sizes sorted ascending ``n1 <= ... <= nk`` (stage ``i``
holds ``n(i+1)``), the stream reaching a step after ``j``
intersections (key-joins, Bloom probes and substring filters) is
``s = round(n1 * sigma^j)``, plus — past a Bloom probe at stage ``p``,
the ``jp``-th intersection — ``n(p+1) * fp * sigma^(j-jp)`` false
positives:

=====================  ==============================================
step                   price
=====================  ==============================================
ship *plan*            ``query_plan_bytes`` + ``h`` headers
ship *rehash*          ``s * tuple_bytes(fileid + 12)`` + ``h`` headers
ship *semi*/*digest*   ``s * fileid_bytes`` + ``h`` headers
ship *filter*          a Bloom filter for ``n1`` keys at ``fp`` + ``h``
                       headers
ship *answer*          ``s * tuple_bytes(fileid)`` + ``h`` headers; only
                       the distributed join and the InvertedCache plan
                       ship one (the rewrites fetch where their matches
                       are)
fetch                  0 — one request and one reply per answer,
                       wherever the step sits
any other step         0 — site-local; a key-join or substring filter
                       only shrinks the stream and the Bloom probe only
                       adds its false positives to it
=====================  ==============================================

Only the plan leg routes. Every other ship step's batches go direct to
the site the plan leg resolved, one header each
(:meth:`~repro.dht.network.DhtNetwork.ship_batch`), so their ``h``
headers per edge stand in for one header per batch. Pricing one header
per edge moved chosen plans and raised ``pier.optimizer_byte_err`` on
the ``--quick`` ``conj_optimizer`` bench from 0.055 to 0.234. With the
prices kept, that row reads 0.012, but only because two errors cancel,
not because the prices are right. Re-pricing belongs with a join
selectivity observed per table instead of :data:`JOIN_SELECTIVITY`.

Ship steps sum to an estimate's ``bytes``, which strategies are compared
on. Ties break toward the simpler strategy, and a single-term query
always takes the distributed join — nothing ships when there is nothing
to intersect.

The prices depend only on the sorted sizes and ``h``, so each such size
profile is priced once per optimizer and memoised
(:data:`PRICE_MEMO_MAX`); only the InvertedCache strategy's availability
is checked per query.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.common.bloom import BloomFilter
from repro.pier.catalog import Catalog
from repro.pier.query import (
    BLOOM_FP_RATE,
    CACHE_TABLE,
    Edge,
    JoinStrategy,
    Op,
    Step,
    edge_tuple_bytes,
    plan_steps,
)


def inverted_cache_covers(catalog: Catalog, sizes: dict[str, int]) -> bool:
    """Whether the InvertedCache strategy can answer this query.

    The table being *registered* is not enough — the publisher registers
    every schema up front, so an Inverted-only deployment still has an
    (empty) InvertedCache table. The strategy is only equivalent when the
    cache actually covers the rarest term's posting list; a smaller cache
    list means partially-published content and would silently drop
    answers.
    """
    if CACHE_TABLE not in catalog:
        return False
    rarest, rarest_size = min(sizes.items(), key=lambda kv: (kv[1], kv[0]))
    if rarest_size == 0:
        return True  # empty intersection either way
    return catalog.posting_size(CACHE_TABLE, rarest) >= rarest_size


#: tie-break preference: simpler machinery wins equal-cost comparisons
_PREFERENCE = (
    JoinStrategy.DISTRIBUTED_JOIN,
    JoinStrategy.SEMI_JOIN,
    JoinStrategy.BLOOM_JOIN,
    JoinStrategy.INVERTED_CACHE,
)

#: expected fraction of the rarest posting list surviving each
#: additional intersection (drives the decaying survivor estimate)
JOIN_SELECTIVITY = 0.1

#: bound on an optimizer's memo of priced size profiles; cleared wholesale
#: when full (a price is recomputed from the profile, so dropping is
#: always safe)
PRICE_MEMO_MAX = 1 << 12


@dataclass(frozen=True)
class CostEstimate:
    """Predicted differential cost of one strategy for one query."""

    strategy: JoinStrategy
    #: plan dissemination plus inter-site shipping — what
    #: :meth:`CostBasedOptimizer.pick` minimises
    bytes: int


class CostBasedOptimizer:
    """Prices every executable strategy and picks the cheapest.

    Statistics come in as the planner's per-keyword posting sizes (which
    the :class:`Catalog` memoizes per epoch, so pricing a replayed
    workload costs no extra ring probes); availability comes from the
    catalog (the InvertedCache strategy needs its table registered), and
    the cost model and ring size from the catalog's network.
    """

    def __init__(self, catalog: Catalog, metrics=None):
        self.catalog = catalog
        self.cost_model = catalog.network.cost_model
        #: optional :class:`repro.obs.metrics.MetricsRegistry` — counts
        #: per-strategy picks and predicted and actual bytes
        self.metrics = metrics
        #: per-strategy metric handles, resolved once (label encoding is
        #: too costly to repeat on every pick/observation)
        self._strategy_handles: dict = {}
        #: (sorted sizes, hop estimate) -> ((estimate, needs the
        #: InvertedCache table), ...) per candidate strategy, in preference
        #: order
        self._prices: dict[tuple, tuple[tuple[CostEstimate, bool], ...]] = {}

    def _handles_for(self, strategy_name: str):
        handles = self._strategy_handles.get(strategy_name)
        if handles is None:
            labels = {"strategy": strategy_name}
            handles = self._strategy_handles[strategy_name] = (
                self.metrics.counter("optimizer.picks", labels=labels),
                self.metrics.counter("optimizer.predicted_bytes", labels=labels),
                self.metrics.counter("optimizer.actual_bytes", labels=labels),
            )
        return handles

    # ------------------------------------------------------------------
    # Cost model
    # ------------------------------------------------------------------

    def hop_estimate(self) -> int:
        """Overlay hops charged per routed leg: ``ceil(log2)`` of the live
        ring, at least 1."""
        live = len(self.catalog.network.nodes)
        return max(1, math.ceil(math.log2(live)) if live > 1 else 1)

    def estimates(
        self, sizes: dict[str, int], inverted_cache: bool | None = None
    ) -> dict[JoinStrategy, CostEstimate]:
        """Price every strategy executable for these posting sizes.

        ``inverted_cache`` forces the InvertedCache strategy's
        availability; ``None`` (the planner's path) probes the catalog
        (:func:`inverted_cache_covers`). The override exists for pricing
        hypothetical stats tables — the golden-file regression test pins
        choices on a canonical table without publishing a corpus.
        """
        ordered = sorted(sizes.values())
        profile = (tuple(ordered), self.hop_estimate())
        prices = self._prices.get(profile)
        if prices is None:
            prices = self._price_profile(ordered)
            if len(self._prices) >= PRICE_MEMO_MAX:
                self._prices.clear()
            self._prices[profile] = prices
        priced = {}
        for estimate, needs_cache in prices:
            if needs_cache:
                if inverted_cache is None:
                    inverted_cache = inverted_cache_covers(self.catalog, sizes)
                if not inverted_cache:
                    continue
            priced[estimate.strategy] = estimate
        return priced

    def _price_profile(self, ordered: list[int]) -> tuple[tuple[CostEstimate, bool], ...]:
        """Every candidate strategy's estimate for one sorted size profile,
        with whether it needs the InvertedCache table."""
        # Nothing to intersect: only the simplest strategy is priced.
        candidates = _PREFERENCE if len(ordered) > 1 else _PREFERENCE[:1]
        prices = []
        for strategy in candidates:
            steps = plan_steps(strategy, max(1, len(ordered)))
            needs_cache = any(step.table == CACHE_TABLE for step in steps)
            prices.append((CostEstimate(strategy, self._price(steps, ordered)), needs_cache))
        return tuple(prices)

    def _price(self, steps: tuple[Step, ...], ordered: list[int]) -> int:
        """Wire bytes of one step list, priced step by step (see the
        module docstring)."""
        cost = self.cost_model
        header = cost.header_bytes * self.hop_estimate()
        sigma = JOIN_SELECTIVITY
        fp = BLOOM_FP_RATE
        rarest = ordered[0] if ordered else 0
        joins = 0  # intersections the stream has passed
        false_hits = 0.0  # Bloom false positives let through, at the probe
        probed = 0  # ``joins`` right after the Bloom probe
        wire = 0
        for step in steps:
            op, edge = step.op, step.edge
            if edge == Edge.PLAN:
                wire += cost.query_plan_bytes + header
            elif edge == Edge.FILTER:
                wire += BloomFilter.with_capacity(max(1, rarest), fp).size_bytes + header
            elif op == Op.BLOOM_PROBE:
                false_hits = ordered[step.stage] * fp
                joins += 1
                probed = joins
            elif op == Op.FILTER or op == Op.JOIN:
                joins += 1
            elif op == Op.SHIP:
                arriving = int(round(rarest * sigma**joins))
                if false_hits:
                    arriving = int(round(arriving + false_hits * sigma ** (joins - probed)))
                wire += arriving * edge_tuple_bytes(edge, cost) + header
        return wire

    def pick(
        self, sizes: dict[str, int], inverted_cache: bool | None = None
    ) -> CostEstimate:
        """The cheapest executable strategy's estimate for these posting
        sizes — the one pricing pass a plan keeps."""
        winner = min(
            self.estimates(sizes, inverted_cache=inverted_cache).values(),
            key=lambda e: (e.bytes, _PREFERENCE.index(e.strategy)),
        )
        if self.metrics is not None:
            self._handles_for(winner.strategy.name)[0].add(1)
        return winner

    def observe_actual(self, estimate: CostEstimate, actual_bytes: int) -> None:
        """Record how one executed query's bytes compared to its estimate.

        The prediction is the estimate's ``bytes`` — plan dissemination,
        inter-site shipping and (for the distributed join and the
        InvertedCache plan) the answer leg; ``actual_bytes`` is the
        query's full metered total, which also includes the Item fetches
        (one request and one reply per answer under every strategy) and
        any empty answer message the model excludes, so the ratio sits
        somewhat above 1.0. The signal to watch is the per-strategy drift
        of the ratio of the two counters, not its absolute level.
        """
        if self.metrics is None:
            return
        _, predicted, actual = self._handles_for(estimate.strategy.name)
        predicted.add(estimate.bytes)
        actual.add(actual_bytes)

"""The hybrid LimeWire/PIERSearch ultrapeer (Figure 17).

A hybrid ultrapeer participates in both networks: it behaves as an
ordinary Gnutella ultrapeer toward Gnutella, while its Gnutella proxy
snoops queries and results from the forwarded traffic, identifies rare
items (QRS scheme: results of queries returning fewer than 20 results),
and hands them to the PIERSearch client for publishing into the DHT.
Leaf queries that return nothing from Gnutella within a timeout are
re-issued through PIERSearch.

A leaf query runs as a race on the hybrid query engine
(:mod:`repro.hybrid.engine`, entered through
:meth:`HybridUltrapeer.handle_leaf_query_simulated`): Gnutella result
arrivals, the re-query timeout, and every DHT routing hop are simulator
events in virtual time, so concurrent queries overlap, churn breaks routes
mid-query, and whichever source delivers first wins for real.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.cache.results import QueryResultCache
from repro.piersearch.publisher import PublishReceipt, Publisher
from repro.piersearch.search import SearchEngine, SearchResult
from repro.workload.library import SharedFile

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.hybrid.engine import HybridQueryEngine, QueryRace

QRS_RESULT_SIZE_THRESHOLD = 20
DEFAULT_GNUTELLA_TIMEOUT = 30.0
#: time to serve a leaf from the local result cache (no overlay hops)
DEFAULT_CACHE_LATENCY = 0.05


@dataclass
class HybridQueryOutcome:
    """What happened to one leaf query under the hybrid scheme."""

    terms: tuple[str, ...]
    gnutella_results: int
    gnutella_latency: float
    used_pier: bool = False
    pier_results: int = 0
    pier_latency: float = 0.0
    #: virtual time until PIER's pipeline fully drained (races resolve at
    #: the first answer batch, so this is >= pier_latency; cache hits set
    #: it equal to pier_latency)
    pier_completion_latency: float = 0.0
    pier_bytes: int = 0
    #: PIER answer served from the ultrapeer's result cache
    cache_hit: bool = False
    #: wire bytes the cache hit avoided re-spending
    saved_bytes: int = 0
    #: the answer is partial or uncertain (route abandoned, deadline hit,
    #: pipeline broke after first batch, or a zero-result walk ran against
    #: a ring whose membership changed mid-race). Degradation is always
    #: flagged, never silent: a scenario's recall accounting can separate
    #: "honestly empty" from "lost to the fault".
    degraded: bool = False
    #: why the answer is degraded ("" when it is not): "requery-abandoned",
    #: "deadline", "partial-answer", "suspect-range", or "membership-change"
    degraded_reason: str = ""

    @property
    def total_results(self) -> int:
        return self.gnutella_results + self.pier_results

    @property
    def first_result_latency(self) -> float:
        """Latency to the first result under the hybrid policy.

        Whichever source answered first wins: Gnutella's own first result,
        or PIER's (timeout + PIER execution) when the query was re-issued.
        No results at all -> inf.
        """
        candidates: list[float] = []
        if self.gnutella_results > 0:
            candidates.append(self.gnutella_latency)
        if self.used_pier and self.pier_results > 0:
            candidates.append(self.pier_latency)
        return min(candidates, default=math.inf)


class HybridUltrapeer:
    """One deployed hybrid ultrapeer: proxy + PIERSearch client."""

    def __init__(
        self,
        ultrapeer_id: int,
        dht_node_id: int,
        publisher: Publisher,
        search_engine: SearchEngine,
        qrs_threshold: int = QRS_RESULT_SIZE_THRESHOLD,
        gnutella_timeout: float = DEFAULT_GNUTELLA_TIMEOUT,
        result_cache: QueryResultCache | None = None,
        metrics=None,
    ):
        self.ultrapeer_id = ultrapeer_id
        self.dht_node_id = dht_node_id
        self.publisher = publisher
        self.search_engine = search_engine
        self.qrs_threshold = qrs_threshold
        self.gnutella_timeout = gnutella_timeout
        #: optional (possibly shared) query-result cache consulted before
        #: re-issuing a timed-out leaf query through PIERSearch
        self.result_cache = result_cache
        #: optional (usually shared) :class:`repro.obs.metrics.MetricsRegistry`
        #: — QRS publish volume
        self.metrics = metrics
        self.receipts: list[PublishReceipt] = []
        self._published_keys: set[tuple] = set()
        self.outcomes: list[HybridQueryOutcome] = []

    # ------------------------------------------------------------------
    # Proxy: rare-item identification and publishing (QRS)
    # ------------------------------------------------------------------

    def observe_query_results(self, results: list[SharedFile]) -> int:
        """Snoop one forwarded query's result set; publish if it is small.

        Implements the QRS rare-item scheme the deployment used: result
        sets smaller than the threshold are treated as rare and published.
        Returns the number of files newly published.
        """
        if not results or len(results) >= self.qrs_threshold:
            return 0
        published = 0
        for file in results:
            if self.publish_file(file):
                published += 1
        return published

    def publish_file(self, file: SharedFile) -> bool:
        """Publish one file unless this ultrapeer already published it.

        Its plan is compiled once on the shared publisher, however many
        ultrapeers snoop it; a publish that raises leaves it unpublished
        here, to be offered again.
        """
        key = file.result_key
        if key in self._published_keys:
            return False
        plans = self.publisher.plans
        plan = plans.get(key)
        if plan is None:
            plan = plans[key] = self.publisher.plan_file(
                file.filename, file.filesize, file.ip_address, file.port
            )
        receipt = self.publisher.publish_plan(plan, origin=self.dht_node_id)
        self._published_keys.add(key)
        self.receipts.append(receipt)
        if self.metrics is not None:
            self.metrics.counter("ultrapeer.qrs_published").add(1)
            self.metrics.counter("ultrapeer.qrs_publish_bytes").add(receipt.bytes)
        return True

    @property
    def files_published(self) -> int:
        return len(self.receipts)

    @property
    def publish_bytes(self) -> int:
        return sum(receipt.bytes for receipt in self.receipts)

    # ------------------------------------------------------------------
    # Hybrid query path
    # ------------------------------------------------------------------

    def handle_leaf_query_simulated(
        self,
        engine: "HybridQueryEngine",
        terms: list[str],
        match_depths: list[float],
        stop_ttl: int,
    ) -> "QueryRace":
        """Run one leaf query as a virtual-time race on ``engine``.

        The Gnutella side is described by ``match_depths`` — the overlay
        depth of every matching replica from this ultrapeer (``inf`` when
        unreachable) — and the dynamic-query stopping TTL. The engine
        schedules the result arrivals, the re-query timeout, and the
        hop-by-hop DHT walk; the returned race's outcome (also appended
        to :attr:`outcomes`) is final once the simulator drains.
        """
        race = engine.submit(self, terms, match_depths, stop_ttl)
        self.outcomes.append(race.outcome)
        return race

    # ------------------------------------------------------------------
    # Result-cache hooks (the engine's re-query path)
    # ------------------------------------------------------------------

    def cache_lookup(self, key: tuple[str, ...]):
        """Consult the shared result cache; None on miss or when disabled."""
        if self.result_cache is None or not key:
            return None
        return self.result_cache.get(key)

    def cache_store(self, key: tuple[str, ...], result: SearchResult) -> None:
        """Offer a freshly executed answer to the result cache."""
        if self.result_cache is None or not key:
            return
        self.result_cache.put(
            key,
            result.filenames,
            cost_bytes=result.stats.bytes,
            result_count=len(result),
        )

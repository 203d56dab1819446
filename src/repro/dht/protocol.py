"""Event-driven DHT protocol over the simulated network.

The synchronous :class:`~repro.dht.network.DhtNetwork` resolves lookups
instantly and charges per-hop costs analytically; this module provides the
message-level counterpart used to study *timing*: every hop is a real
:class:`~repro.sim.network.Message` delivered through the simulator with
sampled latency, requests can time out and retry through successors, and
churn may strike mid-lookup — the operating regime Bamboo [Rhea et al.]
was built for and the substrate the deployment's DHT latencies rest on.

The protocol is iterative (the querier drives each hop), like Bamboo's
default and like PIER's deployment:

    querier -> node A:   FIND_OWNER(key)
    node A  -> querier:  NEXT_HOP(B)          (A's routing step)
    querier -> node B:   FIND_OWNER(key)
    node B  -> querier:  OWNER                (B owns the key)

Timeouts re-issue the step to the last known good node's next-best
candidate; a lookup fails only when no candidates remain or the hop budget
is exhausted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.common.ids import KEY_SPACE
from repro.dht.network import DhtNetwork
from repro.dht.node import OWNS
from repro.sim.engine import Event, Simulator
from repro.sim.network import Message, SimNetwork

FIND_OWNER = "dht.find_owner"
NEXT_HOP = "dht.next_hop"
OWNER = "dht.owner"

DEFAULT_TIMEOUT = 2.0
DEFAULT_MAX_HOPS = 64


@dataclass
class AsyncLookup:
    """One in-flight lookup and its final outcome."""

    key: int
    origin: int
    started_at: float
    finished_at: float | None = None
    owner: int | None = None
    hops: int = 0
    retries: int = 0
    failed: bool = False
    #: invoked exactly once on completion (success or failure)
    callback: Callable[["AsyncLookup"], None] | None = None

    @property
    def latency(self) -> float | None:
        if self.finished_at is None:
            return None
        return self.finished_at - self.started_at


class DhtProtocol:
    """Message-level iterative lookups over a DhtNetwork's routing state.

    Wraps an existing :class:`DhtNetwork` (which owns membership, finger
    tables and storage) and runs its lookups as simulator messages. Node
    failures are modelled by partitioning the address in the SimNetwork;
    requests to failed nodes silently vanish and trigger timeout recovery.
    """

    def __init__(
        self,
        dht: DhtNetwork,
        sim: Simulator,
        net: SimNetwork,
        timeout: float = DEFAULT_TIMEOUT,
        max_hops: int = DEFAULT_MAX_HOPS,
    ):
        self.dht = dht
        self.sim = sim
        self.net = net
        self.timeout = timeout
        self.max_hops = max_hops
        self.completed: list[AsyncLookup] = []
        for node_id in self.dht.nodes:
            self.net.register(node_id, self._handle)

    # ------------------------------------------------------------------
    # Failure injection
    # ------------------------------------------------------------------

    def fail_node(self, node_id: int) -> None:
        """Silently kill a node: it stops answering but stays in others'
        (now stale) routing tables — the hard churn case."""
        self.net.partition(node_id)

    def recover_node(self, node_id: int) -> None:
        self.net.heal(node_id)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def lookup(
        self,
        key: int,
        origin: int | None = None,
        callback: Callable[[AsyncLookup], None] | None = None,
    ) -> AsyncLookup:
        """Start an asynchronous lookup; returns its (live) record.

        Drive the simulator (``sim.run()``) to make progress; the record's
        ``owner``/``failed`` fields are set on completion and ``callback``
        fires once.
        """
        key %= KEY_SPACE
        if origin is None:
            origin = self.dht.random_node_id()
        lookup = AsyncLookup(
            key=key, origin=origin, started_at=self.sim.now, callback=callback
        )
        self._step(lookup, target=origin, excluded=set())
        return lookup

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _step(self, lookup: AsyncLookup, target: int, excluded: set[int]) -> None:
        if lookup.hops >= self.max_hops:
            self._finish(lookup, owner=None)
            return
        lookup.hops += 1
        pending: dict[str, Any] = {"answered": False}
        request = Message(
            source=lookup.origin,
            destination=target,
            kind=FIND_OWNER,
            payload={"key": lookup.key, "lookup": lookup, "pending": pending},
            size_bytes=self.dht.cost_model.message_bytes(20),
        )
        timer: Event = self.sim.schedule(
            self.timeout, lambda: self._on_timeout(lookup, target, excluded, pending)
        )
        pending["timer"] = timer
        self.net.send(request)

    def _handle(self, message: Message) -> None:
        """Per-node message dispatch: requests node-side, replies querier-side."""
        if message.kind == FIND_OWNER:
            self._handle_request(message)
        elif message.kind in (OWNER, NEXT_HOP):
            self._handle_reply(message)

    def _handle_request(self, message: Message) -> None:
        node = self.dht.nodes.get(message.destination)
        if node is None:
            return  # departed between routing-table refreshes
        payload = message.payload
        next_hop = node.route(payload["key"])
        if next_hop == OWNS or next_hop is None:
            # A node with nobody to forward to answers for the key itself.
            kind, value = OWNER, message.destination
        else:
            kind, value = NEXT_HOP, next_hop
        reply = Message(
            source=message.destination,
            destination=message.source,
            kind=kind,
            payload={
                "value": value,
                "lookup": payload["lookup"],
                "pending": payload["pending"],
            },
            size_bytes=self.dht.cost_model.message_bytes(24),
        )
        self.net.send(reply)

    def _handle_reply(self, message: Message) -> None:
        payload = message.payload
        pending = payload["pending"]
        if pending.get("answered"):
            return  # duplicate / late reply after timeout recovery
        pending["answered"] = True
        pending["timer"].cancel()
        lookup: AsyncLookup = payload["lookup"]
        if message.kind == OWNER:
            self._finish(lookup, owner=payload["value"])
        else:
            self._step(lookup, target=payload["value"], excluded=set())

    def _on_timeout(
        self, lookup: AsyncLookup, target: int, excluded: set[int], pending: dict
    ) -> None:
        if pending.get("answered"):
            return
        pending["answered"] = True
        lookup.retries += 1
        excluded = excluded | {target}
        fallback = self._fallback_candidate(lookup, excluded)
        if fallback is None:
            self._finish(lookup, owner=None)
            return
        self._step(lookup, target=fallback, excluded=excluded)

    def _fallback_candidate(self, lookup: AsyncLookup, excluded: set[int]) -> int | None:
        """Next-best alive-looking node from the origin's routing state."""
        origin_node = self.dht.nodes.get(lookup.origin)
        if origin_node is None:
            return None
        for candidate in origin_node.successors + origin_node.fingers:
            if candidate not in excluded and candidate in self.dht.nodes:
                return candidate
        return None

    def _finish(self, lookup: AsyncLookup, owner: int | None) -> None:
        lookup.finished_at = self.sim.now
        lookup.owner = owner
        lookup.failed = owner is None
        self.completed.append(lookup)
        if lookup.callback is not None:
            lookup.callback(lookup)

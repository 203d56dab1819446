"""Wire-cost model.

All system costs in the paper are dominated by communication overhead,
measured in transmitted messages and bytes. This module centralises the
per-message byte accounting so the PIER executor, the PIERSearch publisher
and the Gnutella simulator all charge consistent costs.

The defaults are calibrated to the numbers reported in Section 7 of the
paper: ~3.5 KB to publish one file (4 KB with the InvertedCache option),
~850 bytes to ship a PIER query, and ~20 KB per distributed-join query.
The dominant contributor in the paper was Java serialization and
self-describing tuples, which we model with ``serialization_overhead``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

BYTES_PER_KB = 1024


@dataclass(frozen=True)
class MessageCost:
    """Bytes and message count charged for one logical operation."""

    messages: int
    bytes: int

    def __add__(self, other: "MessageCost") -> "MessageCost":
        return MessageCost(self.messages + other.messages, self.bytes + other.bytes)

    @property
    def kilobytes(self) -> float:
        return self.bytes / BYTES_PER_KB


@dataclass(frozen=True)
class CostModel:
    """Byte-level cost parameters for PIER/PIERSearch messages.

    Attributes mirror the artifacts the paper attributes costs to:

    * ``header_bytes`` — DHT routing + transport header per message.
    * ``serialization_overhead`` — multiplicative factor modelling Java
      serialization and self-describing tuples (the paper notes both could
      "in principle be eliminated").
    * ``tuple_base_bytes`` — fixed per-tuple framing.
    * ``fileid_bytes`` — a SHA-1 fileID.
    * ``address_bytes`` — IP + port + filesize metadata on an Item tuple.
    * ``query_plan_bytes`` — a serialized PIER query plan (~850 B on the
      wire in the deployment).
    """

    header_bytes: int = 60
    serialization_overhead: float = 1.6
    tuple_base_bytes: int = 300
    fileid_bytes: int = 20
    address_bytes: int = 10
    query_plan_bytes: int = 850

    def tuple_bytes(self, payload_bytes: int) -> int:
        """Wire size of one tuple with ``payload_bytes`` of real content."""
        raw = self.tuple_base_bytes + payload_bytes
        return int(raw * self.serialization_overhead)

    def item_tuple_bytes(self, filename: str) -> int:
        """Wire size of an Item(fileID, filename, filesize, ip, port) tuple."""
        payload = self.fileid_bytes + len(filename.encode()) + self.address_bytes
        return self.tuple_bytes(payload)

    def inverted_tuple_bytes(self, keyword: str) -> int:
        """Wire size of an Inverted(keyword, fileID) tuple."""
        payload = self.fileid_bytes + len(keyword.encode())
        return self.tuple_bytes(payload)

    def inverted_cache_tuple_bytes(self, keyword: str, filename: str) -> int:
        """Wire size of an InvertedCache(keyword, fileID, fulltext) tuple."""
        payload = self.fileid_bytes + len(keyword.encode()) + len(filename.encode())
        return self.tuple_bytes(payload)

    def rehash_tuple_bytes(self) -> int:
        """Wire size of one framed posting tuple on a rehash edge.

        The distributed join ships ``(fileID, keyword-allowance)`` tuples
        with full framing and serialization; the executor, the streaming
        dataflow, and the optimizer's cost model must all use this one
        figure — a drifted copy would make the pricer mis-rank
        DISTRIBUTED_JOIN against the digest rewrites.
        """
        return self.tuple_bytes(self.fileid_bytes + 12)

    def spill_tuple_bytes(self) -> int:
        """Size of one join build row a probe re-reads from the site's store.

        A memory-budgeted join evicts build partitions, which stay in the
        site's local store; a probe landing in one scans its rows back:
        a serialized single-column tuple, framed like any stored tuple but
        with no routing header (the read is local, so spilling costs
        re-read work — never wire bytes, so the cost optimizer never
        prices it). The streaming dataflow charges this figure.
        """
        return self.tuple_bytes(self.fileid_bytes)

    def digest_bytes(self, entry_count: int) -> int:
        """Wire size of a packed fileID digest carrying ``entry_count`` keys.

        The semi-join/Bloom-join rewrites ship raw fileIDs back to back —
        no per-tuple framing and no self-describing serialization (the
        overhead the paper says could "in principle be eliminated"; a
        packed binary digest eliminates it). This is why a digest entry
        costs ~26x less than the same entry as a framed posting tuple.
        """
        return entry_count * self.fileid_bytes

    def message_bytes(self, payload_bytes: int) -> int:
        """One DHT message carrying ``payload_bytes``."""
        return self.header_bytes + payload_bytes

    def routed_bytes(self, payload_bytes: int, hops: int) -> int:
        """Node-level cost of routing a payload over ``hops`` overlay hops.

        The paper reports *per-node* bandwidth (what one publisher's NIC
        sees): the payload leaves the node once; intermediate hops add
        routing headers but are other nodes' traffic. We therefore charge
        the payload once plus one header per hop.
        """
        return payload_bytes + self.header_bytes * max(1, hops)


DEFAULT_COST_MODEL = CostModel()


@dataclass
class BandwidthMeter:
    """Mutable accumulator for message/byte accounting during a run."""

    messages: int = 0
    bytes: int = 0
    by_category: dict[str, MessageCost] = field(default_factory=dict)

    def charge(self, category: str, messages: int, byte_count: int) -> None:
        self.messages += messages
        self.bytes += byte_count
        by_category = self.by_category
        previous = by_category.get(category)
        if previous is not None:
            messages += previous.messages
            byte_count += previous.bytes
        by_category[category] = MessageCost(messages, byte_count)

    def snapshot(self) -> MessageCost:
        return MessageCost(self.messages, self.bytes)

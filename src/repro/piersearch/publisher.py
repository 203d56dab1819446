"""The PIERSearch Publisher (Section 3.1).

For each shared item the Publisher generates one Item tuple, indexed by
fileID, plus one Inverted tuple per keyword, indexed by keyword — so all
Inverted tuples for a keyword land on the same DHT node. With the
InvertedCache option the Inverted table is replaced by
InvertedCache(keyword, fileID, fulltext), caching the filename redundantly
with every posting entry so queries can be answered at a single site.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Hashable, NamedTuple

from repro.common.units import CostModel
from repro.dht.network import DhtNetwork
from repro.pier.catalog import Catalog, PublishEntry, TableHandle
from repro.pier.schema import (
    INVERTED_CACHE_SCHEMA,
    INVERTED_SCHEMA,
    ITEM_SCHEMA,
    Row,
)
from repro.piersearch.tokenizer import extract_keywords


def compute_file_id(filename: str, filesize: int, ip_address: str, port: int) -> str:
    """Unique file identifier: hash over the item's other fields."""
    digest = hashlib.sha1(f"{filename}|{filesize}|{ip_address}|{port}".encode()).hexdigest()
    return digest


@dataclass
class PublishReceipt:
    """What publishing one file cost."""

    file_id: str
    keywords: tuple[str, ...]
    tuples_published: int
    bytes: int
    messages: int

    @property
    def kilobytes(self) -> float:
        return self.bytes / 1024


class PublishPlan(NamedTuple):
    """One file compiled into the tuples that publish it: everything about
    publishing it that does not depend on who does. ``entries`` are the
    Item tuple, then one posting per keyword."""

    file_id: str
    keywords: tuple[str, ...]
    entries: tuple[PublishEntry, ...]


class Publisher:
    """Publishes shared files into the DHT as PIER tuples.

    Two steps: :meth:`plan_file` compiles a file into a
    :class:`PublishPlan` (fileID, keywords, validated rows, ring keys,
    identities, wire sizes) and :meth:`publish_plan` sends the plan's
    tuples from one origin as a single routed batch. :meth:`publish_file`
    does both and retains nothing; callers that publish one file from
    many origins (the hybrid ultrapeers) keep plans in :attr:`plans`.
    """

    def __init__(
        self,
        network: DhtNetwork,
        catalog: Catalog,
        inverted_cache: bool = False,
        cost_model: CostModel | None = None,
    ):
        self.network = network
        self.catalog = catalog
        self.inverted_cache = inverted_cache
        self.cost_model = cost_model or network.cost_model
        self.items: TableHandle = self._ensure(ITEM_SCHEMA.name, ITEM_SCHEMA)
        self.inverted: TableHandle = self._ensure(INVERTED_SCHEMA.name, INVERTED_SCHEMA)
        self.cache: TableHandle = self._ensure(
            INVERTED_CACHE_SCHEMA.name, INVERTED_CACHE_SCHEMA
        )
        #: plans kept by callers that publish a file more than once, under
        #: a key of their choosing; :meth:`publish_file` never writes here
        self.plans: dict[Hashable, PublishPlan] = {}
        self.published_files = 0
        self.published_bytes = 0

    def _ensure(self, name: str, schema) -> TableHandle:
        if name in self.catalog:
            return self.catalog.table(name)
        return self.catalog.register(schema)

    def plan_file(self, filename: str, filesize: int, ip_address: str, port: int) -> PublishPlan:
        """Compile one shared file into its publish plan.

        Files whose names contain no indexable keyword (all stop words)
        still get an Item tuple but no posting entries, and therefore can
        never be found by keyword search — same as the real system.
        """
        file_id = compute_file_id(filename, filesize, ip_address, port)
        keywords = tuple(extract_keywords(filename))
        costs = self.cost_model
        item_row: Row = {
            "fileID": file_id,
            "filename": filename,
            "filesize": filesize,
            "ipAddress": ip_address,
            "port": port,
        }
        entries = [self.items.entry(item_row, costs.item_tuple_bytes(filename))]
        for keyword in keywords:
            if self.inverted_cache:
                cache_row: Row = {"keyword": keyword, "fileID": file_id, "fulltext": filename}
                size = costs.inverted_cache_tuple_bytes(keyword, filename)
                entries.append(self.cache.entry(cache_row, size))
            else:
                inverted_row: Row = {"keyword": keyword, "fileID": file_id}
                entries.append(
                    self.inverted.entry(inverted_row, costs.inverted_tuple_bytes(keyword))
                )
        return PublishPlan(file_id, keywords, tuple(entries))

    def publish_plan(self, plan: PublishPlan, origin: int | None = None) -> PublishReceipt:
        """Publish a compiled file from ``origin``; returns the receipt.

        Rows are copied on store: a store that lacks a row's identity gets
        a fresh copy of the plan's row (the owner and its successors share
        one copy per put), and a store that holds it already gets nothing,
        so republishing a plan copies only what is new and no store holds
        the plan's own row. A key handoff dedups the rows it moves by the
        same identity, so an heir that holds a row stores nothing for it.
        """
        return self._publish(plan, origin, copy=dict.copy)

    def _publish(
        self, plan: PublishPlan, origin: int | None, copy: Callable[[Row], Row] | None
    ) -> PublishReceipt:
        messages, byte_count = self.network.put_many(plan.entries, origin, copy=copy)
        self.published_files += 1
        self.published_bytes += byte_count
        return PublishReceipt(
            file_id=plan.file_id,
            keywords=plan.keywords,
            tuples_published=len(plan.entries),
            bytes=byte_count,
            messages=messages,
        )

    def publish_file(
        self,
        filename: str,
        filesize: int,
        ip_address: str,
        port: int,
        origin: int | None = None,
    ) -> PublishReceipt:
        """Publish one shared file; returns the receipt with costs.

        The plan is compiled for this publish alone, so its rows are
        stored as they are, not copied."""
        return self._publish(self.plan_file(filename, filesize, ip_address, port), origin, None)

    @property
    def average_bytes_per_file(self) -> float:
        """Mean publish cost per file so far (the paper reports ~3.5 KB)."""
        if self.published_files == 0:
            return 0.0
        return self.published_bytes / self.published_files

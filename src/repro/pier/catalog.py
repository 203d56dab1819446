"""Catalog of DHT-indexed tables.

The catalog maps table names to schemas and mediates all tuple publishing
and index lookups. A tuple of table ``T`` with index value ``v`` lives on
the DHT node responsible for ``hash("T|v")`` — this is how PIER uses the
DHT itself as its index structure (Section 3.1 of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.common.errors import KeyNotFoundError, SchemaError
from repro.common.ids import hash_key
from repro.dht.network import DhtNetwork
from repro.pier.operators import StoredList
from repro.pier.schema import Row, Schema, row_identity


def table_key(table: str, index_value: Any) -> int:
    """Ring key for tuples of ``table`` whose index column equals ``index_value``."""
    return hash_key(f"{table}|{index_value}")


#: one validated tuple ready for :meth:`DhtNetwork.put_many`:
#: ``(ring key, row, identity, payload_bytes, category)``
PublishEntry = tuple[int, Row, tuple, int, str]


@dataclass
class TableHandle:
    """One registered table: schema plus publish/fetch helpers.

    Every read resolves its index value through :meth:`ring_key`, which
    hashes a value once per handle and keeps the key: a table's ring keys
    never change, and the handle lives as long as its catalog, so a
    keyword read by every query of a world is hashed once in that world.
    The write path (:meth:`entry`) goes through the same memo when the
    index value names a list of rows (Inverted and InvertedCache, by
    keyword: a posting list that reads keep anyway), and hashes without
    keeping anything when the index value is the whole primary key, so a
    table keyed by unique ids (Item, by fileID) keeps no entry per
    published file — only one per id a query has fetched.
    """

    schema: Schema
    network: DhtNetwork
    #: ring key per resolved str index value (see :meth:`ring_key`)
    _ring_keys: dict[str, int] = field(default_factory=dict, repr=False, compare=False)
    #: whether :meth:`entry` keeps its keys: the index value is not the
    #: whole primary key, so many rows share it
    _keep_write_keys: bool = field(init=False, repr=False, compare=False)
    #: :meth:`entry`'s default category, ``publish.<table>``
    _category: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        schema = self.schema
        self._keep_write_keys = schema.key != (schema.index_column,)
        self._category = f"publish.{schema.name}"

    def ring_key(self, index_value: Any) -> int:
        """:func:`table_key` of ``index_value``, hashed once per handle.

        Only ``str`` values are kept: equal strings format equal, which
        equal values of mixed types (``1``, ``1.0``, ``True``) do not.
        """
        key = self._ring_keys.get(index_value)
        if key is None:
            key = hash_key(f"{self.schema.name}|{index_value}")  # table_key, inlined
            if type(index_value) is str:
                self._ring_keys[index_value] = key
        return key

    def entry(self, row: Row, payload_bytes: int = 0, category: str | None = None) -> PublishEntry:
        """Validate ``row`` and resolve where and as what it is stored."""
        schema = self.schema
        schema.validate(row)
        index_value = row[schema.index_column]
        if self._keep_write_keys:
            key = self.ring_key(index_value)
        else:
            key = hash_key(f"{schema.name}|{index_value}")  # table_key, inlined
        return (
            key,
            row,
            row_identity(schema, row),
            payload_bytes,
            category or self._category,
        )

    def publish(
        self,
        row: Row,
        origin: int | None = None,
        payload_bytes: int = 0,
        category: str | None = None,
    ) -> tuple[int, int]:
        """Validate and publish ``row``: the one-entry :meth:`DhtNetwork.put_many`."""
        return self.network.put_many((self.entry(row, payload_bytes, category),), origin)

    def fetch(self, index_value: Any, origin: int | None = None) -> list[Row]:
        """All rows with the given index value; empty list when none exist."""
        key = self.ring_key(index_value)
        try:
            return self.network.get_raw(key, origin=origin, category=f"fetch.{self.schema.name}")
        except KeyNotFoundError:
            return []

    def fetch_local(self, node_id: int, index_value: Any) -> list[Row]:
        """Rows at a specific node, read without network messages."""
        return self.network.get_local(node_id, self.ring_key(index_value))

    def view_local(self, node_id: int, index_value: Any, build: Callable[[list[Row]], Any]) -> Any:
        """``build`` over the rows at a specific node, read without network
        messages and memoised there until a write changes those rows
        (:meth:`DhtNetwork.local_view`)."""
        return self.network.local_view(node_id, self.ring_key(index_value), build)

    def host_of(self, index_value: Any) -> int:
        """The DHT node that serves reads of this index value: its ring owner."""
        return self.network.owner_of(self.ring_key(index_value))


class Catalog:
    """Registry of the tables available to the query processor.

    Besides table registration the catalog answers the planner's
    **posting statistics**: :meth:`posting_size` reads the length of the
    ring owner's :class:`~repro.pier.operators.StoredList` view of the
    list — the store's memo that the dataflow's join sites read too,
    dropped by any write that changes the list. A repeated probe builds
    nothing, and a publish or a churn handoff that changes a list
    changes its size at the next probe, with no epoch of its own.
    """

    def __init__(self, network: DhtNetwork):
        self.network = network
        self._tables: dict[str, TableHandle] = {}

    def register(self, schema: Schema) -> TableHandle:
        if schema.name in self._tables:
            raise SchemaError(f"table {schema.name!r} already registered")
        handle = TableHandle(schema, self.network)
        self._tables[schema.name] = handle
        return handle

    def posting_size(self, table: str, index_value: Any) -> int:
        """Stored-tuple count under ``index_value`` at its ring owner,
        read locally: statistics gathering charges no data read."""
        key = self.table(table).ring_key(index_value)  # unknown tables raise
        network = self.network
        owner = network.owner_of(key)
        if not network.local_contains(owner, key):
            return 0  # an absent list has no view to keep
        return len(network.local_view(owner, key, StoredList).ids)

    def table(self, name: str) -> TableHandle:
        if name not in self._tables:
            raise SchemaError(f"unknown table {name!r}")
        return self._tables[name]

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    def names(self) -> list[str]:
        return sorted(self._tables)

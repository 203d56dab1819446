"""Relational schemas and tuples.

PIER tuples are flat maps from column names to hashable scalars. A
:class:`Schema` fixes the column set, the primary key, and the *index
column* — the column whose value is hashed to pick the DHT node that hosts
the tuple (the "publishing key" in the paper's terminology).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.common.errors import SchemaError

# A relational tuple. Values must be hashable so rows can be deduplicated.
Row = dict[str, Any]


@dataclass(frozen=True)
class Schema:
    """Definition of one PIER table.

    Attributes:
        name: table name, unique within a catalog.
        columns: ordered column names.
        key: primary-key columns (subset of ``columns``).
        index_column: the column hashed to choose the hosting DHT node.
    """

    name: str
    columns: tuple[str, ...]
    key: tuple[str, ...]
    index_column: str
    #: ``columns`` as a set, built once: what :meth:`validate` compares
    #: a row's keys against
    column_set: frozenset[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "column_set", frozenset(self.columns))
        if not self.columns:
            raise SchemaError(f"table {self.name!r} has no columns")
        if len(set(self.columns)) != len(self.columns):
            raise SchemaError(f"table {self.name!r} has duplicate columns")
        missing = [column for column in self.key if column not in self.columns]
        if missing:
            raise SchemaError(f"key columns {missing} not in table {self.name!r}")
        if not self.key:
            raise SchemaError(f"table {self.name!r} has an empty primary key")
        if self.index_column not in self.columns:
            raise SchemaError(
                f"index column {self.index_column!r} not in table {self.name!r}"
            )

    def validate(self, row: Row) -> Row:
        """Check ``row`` matches this schema exactly; returns the row."""
        expected = self.column_set
        if row.keys() != expected:
            row_columns = set(row)
            extra = sorted(row_columns - expected)
            missing = sorted(expected - row_columns)
            raise SchemaError(
                f"row does not match {self.name!r}: missing={missing} extra={extra}"
            )
        for column, value in row.items():
            try:
                hash(value)
            except TypeError:
                raise SchemaError(
                    f"column {column!r} of {self.name!r} holds unhashable {value!r}"
                ) from None
        return row

    def index_value(self, row: Row) -> Any:
        """Value of the DHT publishing key for ``row``."""
        return row[self.index_column]


def row_identity(schema: Schema, row: Row) -> tuple:
    """Stable dedup handle for a row: (table name, primary-key values)."""
    return (schema.name, *map(row.__getitem__, schema.key))


# ---------------------------------------------------------------------------
# The PIERSearch schemas from Section 3 of the paper.
# ---------------------------------------------------------------------------

ITEM_SCHEMA = Schema(
    name="Item",
    columns=("fileID", "filename", "filesize", "ipAddress", "port"),
    key=("fileID",),
    index_column="fileID",
)

INVERTED_SCHEMA = Schema(
    name="Inverted",
    columns=("keyword", "fileID"),
    key=("keyword", "fileID"),
    index_column="keyword",
)

INVERTED_CACHE_SCHEMA = Schema(
    name="InvertedCache",
    columns=("keyword", "fileID", "fulltext"),
    key=("keyword", "fileID"),
    index_column="keyword",
)

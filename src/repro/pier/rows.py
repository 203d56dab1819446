"""Compact batch-row representation for the streaming dataflow.

The dataflow's exchange edges used to ship one freshly-allocated dict per
tuple, even though every tuple on an edge has the same shape and the
receiving stage reads exactly one column. A :class:`RowBatch` stores that
shape *once* — a shared schema tuple — and the payload as one value tuple
per row, so shipping a batch allocates tuples instead of dicts and the
dict form is materialised only at query-result boundaries
(:meth:`RowBatch.to_rows`). The byte accounting of a batch never depends
on the in-memory representation: wire costs are ``per_tuple_bytes *
len(batch)`` either way, which is what keeps the compact form
byte-identical to the dict-shipping one.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.pier.schema import Row


class RowBatch:
    """One exchange batch: a shared schema tuple plus one value tuple per row.

    ``columns`` names the row shape once for the whole batch; ``values``
    holds a ``tuple`` of column values per row, in ``columns`` order.
    Construction is cheap by design: the dataflow's hot loops build bare
    value-tuple lists inline (``[(key,) for key in ...]``), the exchange
    wraps them in a ``RowBatch`` at delivery time, and nothing touches
    more than scalars until :meth:`to_rows` converts to dicts at the
    query-result boundary.

    >>> batch = RowBatch(("fileID",), [("a",), ("b",)])
    >>> len(batch)
    2
    >>> batch.column("fileID")
    ['a', 'b']
    >>> batch.to_rows()
    [{'fileID': 'a'}, {'fileID': 'b'}]
    """

    __slots__ = ("columns", "values")

    def __init__(self, columns: tuple[str, ...], values: list[tuple]):
        self.columns = columns
        self.values = values

    def column(self, name: str) -> list[Any]:
        """All values of one column, in row order."""
        index = self.columns.index(name)
        return [value[index] for value in self.values]

    def to_rows(self) -> list[Row]:
        """Materialise dict rows — only for query-result boundaries."""
        columns = self.columns
        return [dict(zip(columns, value)) for value in self.values]

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.values)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RowBatch({self.columns!r}, rows={len(self.values)})"

"""Local physical operators.

These are the node-local building blocks of PIER query plans. ``Scan``
and ``SubstringFilter`` are iterator operators over row streams (the
InvertedCache stage filters cached full text with them);
:class:`StoredHashJoin` is the one join — built once on the posting list
a site stores, probed by each arriving batch of bare join keys, with a
partitioned, memory-budgeted build whose evicted partitions stay in the
site's store. The dataflow runtime composes them per site; shipping
between sites is the runtime's job, so everything here is purely local.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Sequence
from zlib import crc32

from repro.pier.schema import Row

#: default hash-partition fan-out of a memory-budgeted join's build state
NUM_SPILL_PARTITIONS = 8


#: cross-query memos for :func:`spill_partition`, one per fan-out: a
#: corpus re-uses the same join keys (fileIDs) across every query, so
#: the hash runs once per distinct key process-wide. Bounded — cleared
#: wholesale when full (the hash is pure, so dropping is always safe).
_partition_memos: dict[int, dict[Any, int]] = {}
_PARTITION_MEMO_MAX = 1 << 16


def _partition_memo_for(num_partitions: int) -> dict[Any, int]:
    """The shared key→partition memo for one fan-out value."""
    return _partition_memos.setdefault(num_partitions, {})


def spill_partition(key: Any, num_partitions: int) -> int:
    """Hash partition of a join key, shared by the build and its probes.

    Deliberately *not* Python's builtin ``hash``: string hashing is
    salted per interpreter (PYTHONHASHSEED), which would make partition
    placement — and therefore spill/eviction traces — differ between
    runs and break the repo's bit-identical digest story. Integer keys
    take a Fibonacci-hashing fast path (one multiply, top 32 bits);
    anything else falls back to CRC32 over the ``str()`` form, memoised
    per distinct key, which is likewise stable everywhere.
    """
    memo = _partition_memos.setdefault(num_partitions, {})
    pid = memo.get(key)
    if pid is None:
        if type(key) is int:
            pid = (
                (key * 0x9E3779B97F4A7C15 & 0xFFFFFFFFFFFFFFFF) >> 32
            ) % num_partitions
        else:
            pid = crc32(str(key).encode()) % num_partitions
        if len(memo) >= _PARTITION_MEMO_MAX:
            memo.clear()
        memo[key] = pid
    return pid


class Operator:
    """Base iterator operator: ``iter(op)`` yields output rows."""

    def __iter__(self) -> Iterator[Row]:
        raise NotImplementedError

    def rows(self) -> list[Row]:
        """Materialise the full output."""
        return list(self)


class Scan(Operator):
    """Leaf operator over an already-materialised list of rows."""

    def __init__(self, rows: Iterable[Row]):
        self._rows = list(rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)


class SubstringFilter(Operator):
    """Keep rows whose ``column`` contains ``needle`` as a substring.

    This is the local filtering operator the InvertedCache plan (Figure 3)
    applies to the cached full text: remaining query terms are resolved
    with substring selection instead of distributed joins.
    """

    def __init__(self, child: Operator, column: str, needle: str, case_sensitive: bool = False):
        self.child = child
        self.column = column
        self.needle = needle if case_sensitive else needle.lower()
        self.case_sensitive = case_sensitive

    def __iter__(self) -> Iterator[Row]:
        for row in self.child:
            haystack = str(row[self.column])
            if not self.case_sensitive:
                haystack = haystack.lower()
            if self.needle in haystack:
                yield row


class StoredHashJoin:
    """Hash join of arriving join keys against the list a site stores.

    In PIER's keyword join (Section 3.2) the surviving tuples of one term
    ship to the next term's site and are joined there against the posting
    list that site stores — a relation fully materialised before the
    first tuple arrives. So the stored list is the build side, built once
    here, and the arrivals are the probe side, streamed through it a
    batch at a time: :meth:`probe` keeps the arriving keys the list holds,
    in arrival order (a stage forwards only the key of a match, so this is
    the semi-join of the arrivals with the list). Arriving keys are never
    held, so they never need memory and never spill.

    With ``memory_budget`` set, the build holds at most that many rows
    (not bytes), hash-partitioned by :func:`spill_partition`. A list over
    budget evicts whole partitions — the largest first, ties to the lowest
    partition id — until the rest fits, and writes nothing: an evicted
    partition's rows are still in the site's store. Each :meth:`probe`
    call then pays, for every evicted partition its keys land in, one read
    (``reads``) and a scan of that partition's rows (``reread_bytes``,
    ``row_bytes`` per row). Evictions depend on the stored list alone;
    reads are per call, so how the arrivals are cut into batches moves
    them, never a match. Membership is answered from the key set built
    here whatever the budget: the budget prices memory pressure, it saves
    no real memory.
    """

    def __init__(
        self,
        keys: Sequence[Any],
        memory_budget: int | None = None,
        num_partitions: int = NUM_SPILL_PARTITIONS,
        row_bytes: int = 0,
    ):
        if memory_budget is not None and memory_budget < 1:
            raise ValueError(f"memory_budget must be >= 1, got {memory_budget}")
        if num_partitions < 1:
            raise ValueError(f"num_partitions must be >= 1, got {num_partitions}")
        self.num_partitions = num_partitions
        #: bytes charged per stored row a probe re-reads (accounting only)
        self.row_bytes = row_bytes
        #: the stored list's join keys
        self.keys = set(keys)
        #: evicted partition id -> its stored rows, in eviction order
        self.evicted: dict[int, int] = {}
        #: stored rows the build holds in memory
        self.resident_rows = len(keys)
        self.reads = 0
        self.reread_bytes = 0
        #: direct handle on the shared key→partition memo
        self._pid_memo = _partition_memo_for(num_partitions)
        if memory_budget is not None and len(keys) > memory_budget:
            rows = [0] * num_partitions
            for pid in self._partitions(keys):
                rows[pid] += 1
            while self.resident_rows > memory_budget:
                pid = max(range(num_partitions), key=rows.__getitem__)
                self.evicted[pid] = rows[pid]
                self.resident_rows -= rows[pid]
                rows[pid] = 0

    @property
    def partition_evictions(self) -> int:
        return len(self.evicted)

    def _partitions(self, keys: Sequence[Any]) -> list[int]:
        """Each key's partition, read through the shared memo."""
        pids = list(map(self._pid_memo.get, keys))
        if None in pids:
            fan_out = self.num_partitions
            pids = [
                spill_partition(key, fan_out) if pid is None else pid
                for key, pid in zip(keys, pids)
            ]
        return pids

    def probe(self, keys: list) -> list:
        """The arriving ``keys`` the stored list holds, in order; charges a
        read and a partition scan per evicted partition they land in."""
        evicted = self.evicted
        if evicted:
            touched = evicted.keys() & set(self._partitions(keys))
            if touched:
                self.reads += len(touched)
                self.reread_bytes += sum(map(evicted.__getitem__, touched)) * self.row_bytes
        stored = self.keys
        return [key for key in keys if key in stored]

"""Local physical operators.

These are the node-local building blocks of PIER query plans.
``SubstringFilter`` is an iterator operator over a row stream (the
InvertedCache stage filters cached full text with it);
:class:`StoredHashJoin` is the one join — built on the posting list a
site stores, probed by each arriving batch of bare join keys through a
per-query :class:`JoinProbe`, with a partitioned, memory-budgeted build
whose evicted partitions stay in the site's store. A
:class:`StoredList` is one version of a stored posting list and holds
what queries derive from it — the build, the Bloom filter, the Bloom
probe results — so each is made once per version, not once per query.
The dataflow runtime composes them per site; shipping between sites is
the runtime's job, so everything here is purely local.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Iterable, Iterator, Sequence
from zlib import crc32

from repro.common.bloom import BloomFilter, bloom_for_keys
from repro.pier.schema import Row

_FILE_ID = itemgetter("fileID")

#: hash-partition fan-out of a memory-budgeted join's build state
NUM_SPILL_PARTITIONS = 8


#: cross-query memo for :func:`spill_partition`: a corpus re-uses the
#: same join keys (fileIDs) across every query, so the hash runs once per
#: distinct key process-wide. Bounded — cleared wholesale when full (the
#: hash is pure, so dropping is always safe).
_partition_memo: dict[Any, int] = {}
_PARTITION_MEMO_MAX = 1 << 16


def spill_partition(key: Any) -> int:
    """Hash partition of a join key, shared by the build and its probes.

    Deliberately *not* Python's builtin ``hash``: string hashing is
    salted per interpreter (PYTHONHASHSEED), which would make partition
    placement — and therefore spill/eviction traces — differ between
    runs and break the repo's bit-identical digest story. Integer keys
    take a Fibonacci-hashing fast path (one multiply, top 32 bits);
    anything else falls back to CRC32 over the ``str()`` form, memoised
    per distinct key, which is likewise stable everywhere.
    """
    memo = _partition_memo
    pid = memo.get(key)
    if pid is None:
        if type(key) is int:
            pid = (
                (key * 0x9E3779B97F4A7C15 & 0xFFFFFFFFFFFFFFFF) >> 32
            ) % NUM_SPILL_PARTITIONS
        else:
            pid = crc32(str(key).encode()) % NUM_SPILL_PARTITIONS
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


class SubstringFilter(Operator):
    """Keep rows whose ``column`` contains ``needle`` as a substring.

    This is the local filtering operator the InvertedCache plan (Figure 3)
    applies to the cached full text: remaining query terms are resolved
    with substring selection instead of distributed joins.
    """

    def __init__(
        self, child: Iterable[Row], column: str, needle: str, case_sensitive: bool = False
    ):
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
    """A join site's build on the posting list it stores: shared, read-only.

    In PIER's keyword join (Section 3.2) the surviving tuples of one term
    ship to the next term's site and are joined there against the posting
    list that site stores — a relation fully materialised before the
    first tuple arrives. So the stored list is the build side, and the
    arrivals are the probe side, streamed through it a batch at a time by
    a :class:`JoinProbe`. Arriving keys are never held, so they never need
    memory and never spill.

    The build depends on the stored list alone, so it is built once per
    stored list version (:meth:`StoredList.join`) and shared, unchanged,
    by every query that joins against that version; each query probes it
    through its own :class:`JoinProbe`, which holds that query's reads.

    With ``memory_budget`` set, the build holds at most that many rows
    (not bytes), hash-partitioned by :func:`spill_partition`. A list over
    budget evicts whole partitions — the largest first, ties to the lowest
    partition id — until the rest fits, and writes nothing: an evicted
    partition's rows are still in the site's store. A probe then pays,
    for every evicted partition its keys land in, one read and a scan of
    that partition's rows (``row_bytes`` per row; see :class:`JoinProbe`).
    Evictions depend on the stored list alone; reads are per probe call,
    so how the arrivals are cut into batches moves them, never a match.
    Membership is answered from the key set whatever the budget: the
    budget counts re-reads, it saves no real memory and moves no price.
    """

    def __init__(
        self,
        keys: Sequence[Any],
        memory_budget: int | None = None,
        row_bytes: int = 0,
        key_set: set | None = None,
    ):
        if memory_budget is not None and memory_budget < 1:
            raise ValueError(f"memory_budget must be >= 1, got {memory_budget}")
        #: bytes charged per stored row a probe re-reads (accounting only)
        self.row_bytes = row_bytes
        #: the stored list's join keys (``key_set``, when the caller
        #: already holds them as a set: it is shared, never copied)
        self.keys = set(keys) if key_set is None else key_set
        #: evicted partition id -> its stored rows, in eviction order
        self.evicted: dict[int, int] = {}
        #: stored rows the build holds in memory
        self.resident_rows = len(keys)
        if memory_budget is not None and len(keys) > memory_budget:
            rows = [0] * NUM_SPILL_PARTITIONS
            for pid in self._partitions(keys):
                rows[pid] += 1
            while self.resident_rows > memory_budget:
                pid = max(range(NUM_SPILL_PARTITIONS), key=rows.__getitem__)
                self.evicted[pid] = rows[pid]
                self.resident_rows -= rows[pid]
                rows[pid] = 0

    @property
    def partition_evictions(self) -> int:
        return len(self.evicted)

    def _partitions(self, keys: Sequence[Any]) -> list[int]:
        """Each key's partition, read through the shared memo."""
        pids = list(map(_partition_memo.get, keys))
        if None in pids:
            pids = [
                spill_partition(key) if pid is None else pid
                for key, pid in zip(keys, pids)
            ]
        return pids


class JoinProbe:
    """One query's probes of a shared :class:`StoredHashJoin`, with that
    query's accounting.

    :meth:`probe` keeps the arriving keys the stored list holds, in
    arrival order (a stage forwards only the key of a match, so this is
    the semi-join of the arrivals with the list), and each call pays one
    read (``reads``) and a scan of the partition's stored rows
    (``reread_bytes``) for every evicted partition its keys land in.
    """

    __slots__ = ("build", "reads", "reread_bytes")

    def __init__(self, build: StoredHashJoin):
        self.build = build
        self.reads = 0
        self.reread_bytes = 0

    def probe(self, keys: list) -> list:
        """The arriving ``keys`` the stored list holds, in order; charges a
        read and a partition scan per evicted partition they land in."""
        build = self.build
        evicted = build.evicted
        if evicted:
            touched = evicted.keys() & set(build._partitions(keys))
            if touched:
                self.reads += len(touched)
                self.reread_bytes += sum(map(evicted.__getitem__, touched)) * build.row_bytes
        stored = build.keys
        return [key for key in keys if key in stored]


#: bound on one stored list's memo of Bloom probe results (one entry per
#: filter it was probed with); cleared wholesale when full — a result is
#: recomputed from the filter and the list, so dropping is always safe
BLOOM_PROBE_MEMO_MAX = 64


class StoredList:
    """One version of a posting list a site stores, and what a query
    derives from it.

    Built by the store's view memo (:meth:`repro.dht.network.DhtNetwork.local_view`)
    on the list's rows, once per version of the list: any write that
    changes the list drops it, and the next read builds a new one. Until
    then every query that scans, joins against or probes the list shares
    it, so it is read-only. It holds ``rows`` and their join keys
    (fileIDs) in stored order, ``ids``; every other piece is built on
    first use:

    * ``key_set`` — the ids as a set, shared with every join build;
    * ``distinct`` — the distinct ids, in stored order (insertion order,
      never a set's, so it does not move with the string-hash salt);
    * :meth:`join` — the :class:`StoredHashJoin` build per ``(budget, row
      bytes)``;
    * :meth:`bloom` — the Bloom filter of the distinct ids per FP rate;
    * :meth:`bloom_matches` — the ids a filter may contain, per filter
      (a filter is never changed once built, so the filter object itself
      is the key), bounded by :data:`BLOOM_PROBE_MEMO_MAX`.
    """

    __slots__ = ("rows", "ids", "_key_set", "_distinct", "_joins", "_blooms", "_bloom_hits")

    def __init__(self, rows: list[Row]):
        #: the stored rows, in stored order
        self.rows = rows
        self.ids = list(map(_FILE_ID, rows))
        self._key_set: set | None = None
        self._distinct: list | None = None
        self._joins: dict[tuple, StoredHashJoin] | None = None
        self._blooms: dict[float, BloomFilter] | None = None
        self._bloom_hits: dict[BloomFilter, list] | None = None

    @property
    def key_set(self) -> set:
        keys = self._key_set
        if keys is None:
            keys = self._key_set = set(self.ids)
        return keys

    @property
    def distinct(self) -> list:
        distinct = self._distinct
        if distinct is None:
            distinct = self._distinct = list(dict.fromkeys(self.ids))
        return distinct

    def join(self, memory_budget: int | None, row_bytes: int) -> StoredHashJoin:
        """The join build on this list under one budget configuration."""
        joins = self._joins
        if joins is None:
            joins = self._joins = {}
        config = (memory_budget, row_bytes)
        build = joins.get(config)
        if build is None:
            build = joins[config] = StoredHashJoin(
                self.ids,
                memory_budget=memory_budget,
                row_bytes=row_bytes,
                key_set=self.key_set,
            )
        return build

    def bloom(self, false_positive_rate: float) -> BloomFilter:
        """The Bloom filter of this list's distinct ids at one FP rate."""
        blooms = self._blooms
        if blooms is None:
            blooms = self._blooms = {}
        bloom = blooms.get(false_positive_rate)
        if bloom is None:
            bloom = blooms[false_positive_rate] = bloom_for_keys(
                self.distinct, false_positive_rate
            )
        return bloom

    def bloom_matches(self, bloom: BloomFilter) -> list:
        """The ids ``bloom`` may contain, in stored order
        (:meth:`BloomFilter.matching` over :attr:`ids`)."""
        hits = self._bloom_hits
        if hits is None:
            hits = self._bloom_hits = {}
        found = hits.get(bloom)
        if found is None:
            if len(hits) >= BLOOM_PROBE_MEMO_MAX:
                hits.clear()
            found = hits[bloom] = bloom.matching(self.ids)
        return found

"""Local physical operators.

These are the node-local building blocks of PIER query plans. ``Scan``
and ``SubstringFilter`` are iterator operators over row streams (the
InvertedCache stage filters cached full text with them);
:class:`SymmetricHashJoin` is the one join — a set-at-a-time join of
bare join-key multisets with a partitioned, memory-budgeted build state
parked in a :class:`SpillSink`. The dataflow runtime composes them per
site; shipping between sites is the runtime's job, so everything here is
purely local.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator
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
    """Hash partition of a join key, shared by join and spill sink.

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


class SpillSink:
    """Where a memory-bounded join parks build-state *partitions*.

    Storage is partition-granular and compact — ``(key, count)``
    multiplicities, never one row per duplicate: the join evicts whole
    hash partitions (``write_counts``), routes later build keys of a
    partition that stays spilled straight in (``route_counts`` — one call
    per run of routed keys, never one per key), and a partition restores
    wholesale when the budget frees up (``take_counts``). Probes re-read
    single keys' multiplicities straight out of the parked index
    (``_counts``) and restore decisions scan the per-partition totals
    (``_part_totals``) — :class:`SymmetricHashJoin` reads both directly
    and settles ``reads``/``reread_bytes`` once per call. The join ends
    every call that can spill with :meth:`flush`.

    The reference implementation keeps everything in plain dicts; the
    dataflow runtime subclasses it with a DHT-backed sink whose extra
    copy lands in the site's temp-tuple store (and survives exactly as
    long as the query does). Reads, logical rows and bytes (``row_bytes``
    per logical row, 0 = untracked) are counted so experiments can report
    the spill/re-read cost of running under a memory budget.
    """

    def __init__(self, column: str, row_bytes: int = 0):
        self.column = column
        #: bytes charged per logical spilled/re-read row (accounting only)
        self.row_bytes = row_bytes
        #: spilled state: side -> partition id -> key -> count, indexed by
        #: join key so a probe re-reads only its own multiplicity instead
        #: of scanning the whole partition (which would make a budgeted
        #: join quadratic)
        self._counts: dict[str, dict[int, dict[Any, int]]] = {
            "left": {},
            "right": {},
        }
        #: logical rows per spilled partition, maintained incrementally so
        #: restore scans never re-sum partition contents
        self._part_totals: dict[str, dict[int, int]] = {"left": {}, "right": {}}
        #: cumulative accounting (never decremented on restore)
        self.spilled_rows = 0
        self.reads = 0
        self.spilled_bytes = 0
        self.reread_bytes = 0
        self.restored_rows = 0
        #: rows parked while their site was gone (DHT-backed sinks only —
        #: the base sink always counts 0)
        self.orphan_rows = 0

    def write_counts(
        self, side: str, pid: int, mapping: dict[Any, int], rows: int
    ) -> None:
        """Park an evicted partition: join key -> multiplicity, ``rows``
        logical rows in all.

        The sink takes ``mapping`` over — it *becomes* the parked
        partition — so the caller must not touch it afterwards. Nothing
        may be parked under ``pid``: a join only evicts resident
        partitions, and a spilled one is restored whole
        (:meth:`take_counts`) before it can fill and be evicted again.
        """
        partitions = self._counts[side]
        assert pid not in partitions, f"{side} partition {pid} is already parked"
        partitions[pid] = mapping
        self.spilled_rows += rows
        self.spilled_bytes += rows * self.row_bytes
        self._part_totals[side][pid] = rows

    def route_counts(
        self, side: str, routed: list[tuple[int, Any]]
    ) -> list[tuple[int, Any]]:
        """Bump multiplicities in partitions that stay spilled.

        ``routed`` is a run of ``(partition id, key)`` build keys, in
        arrival order, that landed in partitions already spilled. Returns
        the entries whose key is new to its partition, in order — the DHT
        sink uses that to keep its surface at one value per distinct key.
        """
        partitions = self._counts[side]
        totals = self._part_totals[side]
        fresh: list[tuple[int, Any]] = []
        for entry in routed:
            pid, key = entry
            partition = partitions.get(pid)
            if partition is None:
                partition = partitions[pid] = {}
            count = partition.get(key)
            if count is None:
                partition[key] = 1
                fresh.append(entry)
            else:
                partition[key] = count + 1
            totals[pid] = totals.get(pid, 0) + 1
        self.spilled_rows += len(routed)
        self.spilled_bytes += len(routed) * self.row_bytes
        return fresh

    def take_counts(self, side: str, pid: int) -> dict[Any, int]:
        """Remove and return a spilled partition (restore)."""
        mapping = self._counts[side].pop(pid, {})
        self.restored_rows += self._part_totals[side].pop(pid, 0)
        return mapping

    def partition_rows(self, side: str, pid: int) -> int:
        """Logical rows currently parked in one spilled partition."""
        return self._part_totals[side].get(pid, 0)

    def has_spilled(self, side: str) -> bool:
        return bool(self._counts[side])

    def flush(self) -> None:
        """End of a join call: make everything parked during it visible.

        The in-memory sink has nothing to write; a sink that mirrors
        partitions elsewhere buffers a call's surfaced keys and writes
        each touched partition once here.
        """


class SymmetricHashJoin:
    """Pipelined symmetric hash join (SHJ) of two join-key streams.

    Both inputs are consumed as streams; each arriving key is inserted
    into its side's hash table and probed against the other side's table,
    so matches surface as soon as both sides have arrived. This is the
    join PIER executes between posting lists (Section 3.2): the exchange
    batches of the streaming dataflow carry single-column fileID tuples
    (:mod:`repro.pier.rows`) and a join stage only ever forwards the key
    of a match, so the join works on bare key values and a side's build
    state is a per-key multiplicity, not a row list.

    The join is **incremental** and **set-at-a-time**: :meth:`insert_keys`
    consumes a whole run of one side's keys — a site's posting list, or
    one arriving exchange batch — in a single loop and returns one match
    *count* per key, while the hash tables persist across calls
    (:meth:`insert_left_key` / :meth:`insert_right_key` are its one-key
    forms). How a key sequence is chunked into calls changes no count, no
    spill statistic and no sink content.

    With ``memory_budget`` set, the join holds at most that many **rows**
    (not bytes) across both in-memory tables, hash-partitioned by
    :func:`spill_partition`. On overflow it evicts whole *partitions* —
    largest first, from whichever side is currently larger (role reversal
    when the "small" build side turns out large mid-stream), a
    partition's keys in arrival order — to ``spill_sink`` (a
    :class:`SpillSink`, by default an in-memory one). Probes consult the
    per-partition spilled index, so keys in never-spilled partitions cost
    zero sink reads; a spilled partition *stays* spilled — later build
    keys for it reach the sink a run at a time
    (:meth:`SpillSink.route_counts`) rather than refilling memory only to
    be evicted again — until enough budget frees up to restore it. Every
    call that can spill (:meth:`insert_keys` under a budget,
    :meth:`set_memory_budget`) ends with one :meth:`SpillSink.flush`.
    This is the memory-for-re-reads trade of a dynamic hybrid hash join,
    and it never changes a count.
    """

    def __init__(
        self,
        column: str = "fileID",
        memory_budget: int | None = None,
        spill_sink: SpillSink | None = None,
        num_partitions: int = NUM_SPILL_PARTITIONS,
    ):
        if memory_budget is not None and memory_budget < 1:
            raise ValueError(f"memory_budget must be >= 1, got {memory_budget}")
        if num_partitions < 1:
            raise ValueError(f"num_partitions must be >= 1, got {num_partitions}")
        self.column = column
        self.memory_budget = memory_budget
        self.num_partitions = num_partitions
        self.spill_sink = spill_sink or (SpillSink(column) if memory_budget else None)
        #: build state: join key -> multiplicity
        self._key_tables: dict[str, dict[Any, int]] = {"left": {}, "right": {}}
        self._in_memory = {"left": 0, "right": 0}
        #: partition bookkeeping, maintained only while a budget is set:
        #: resident rows per partition, resident keys per partition (a
        #: dict used as an insertion-ordered set, so eviction walks a
        #: partition in arrival order whatever the interpreter's string
        #: hash salt), and which partitions currently have spilled state.
        self._part_rows: dict[str, list[int]] = {"left": [], "right": []}
        self._part_keys: dict[str, list[dict[Any, None]]] = {"left": [], "right": []}
        self._spilled: dict[str, set[int]] = {"left": set(), "right": set()}
        #: partition bookkeeping is *lazy*: a budgeted join pays nothing
        #: per insert until its first overflow, when the resident tables
        #: are partitioned once (``_rebuild_partition_index``) and
        #: per-insert maintenance switches on
        self._tracking = False
        #: direct handle on the shared key→partition memo (the tracked
        #: insert path probes it inline, one dict get per insert)
        self._pid_memo = _partition_memo_for(num_partitions)
        #: which side eviction currently targets; a flip mid-stream is a
        #: role reversal (the "small" build side turned out large).
        self._victim_side: str | None = None
        self.partition_evictions = 0
        self.partition_restores = 0
        self.role_reversals = 0
        # Exposed for tests: peak *in-memory* table sizes during the join.
        self.peak_left_table = 0
        self.peak_right_table = 0

    # -- incremental core ------------------------------------------------

    def insert_left_key(self, key: Any) -> int:
        """One-key :meth:`insert_keys` on the left side."""
        return self.insert_keys("left", (key,))[0]

    def insert_right_key(self, key: Any) -> int:
        """One-key :meth:`insert_keys` on the right side."""
        return self.insert_keys("right", (key,))[0]

    def insert_keys(self, side: str, keys: Iterable[Any]) -> list[int]:
        """Consume a run of ``side``'s join keys, in order.

        Returns, per key, the number of other-side matches it completes
        (spilled partitions included). Exactly the effect of inserting the
        keys one call at a time, at one call's overhead.
        """
        other = "right" if side == "left" else "left"
        table = self._key_tables[side]
        probe = self._key_tables[other].get
        in_memory = self._in_memory
        budget = self.memory_budget
        counts: list[int] = []
        if budget is None:
            # Unbudgeted: no partitions, no sink, nothing to overflow.
            for key in keys:
                counts.append(probe(key, 0))
                table[key] = table.get(key, 0) + 1
            if counts:
                in_memory[side] += len(counts)
                self._track_peak(side)
            return counts
        sink = self.spill_sink
        memo_get = self._pid_memo.get
        spilled_side = self._spilled[side]
        spilled_other = self._spilled[other]
        #: the other side's parked partitions (pid -> key -> count): a
        #: probe into a spilled partition re-reads its key's multiplicity
        #: here, and the reads settle on the sink once, after the loop
        parked_other = sink._counts[other]
        reads = reread_rows = 0
        tracking = self._tracking
        part_rows = self._part_rows[side]
        part_keys = self._part_keys[side]
        size = unsampled = in_memory[side]
        #: resident inserts left before the budget overflows
        room = budget - size - in_memory[other]
        #: (pid, key) of keys landing in partitions that stay spilled —
        #: classic hybrid hash: they go straight to the sink, a run at a
        #: time, instead of refilling memory only to be evicted again
        routed: list[tuple[int, Any]] = []
        for key in keys:
            count = probe(key, 0)
            if tracking:
                pid = memo_get(key)
                if pid is None:
                    pid = spill_partition(key, self.num_partitions)
                # Never-spilled partitions cost zero sink reads.
                if pid in spilled_other:
                    parked = parked_other[pid].get(key, 0)
                    count += parked
                    reads += 1
                    reread_rows += parked
                counts.append(count)
                if pid in spilled_side:
                    routed.append((pid, key))
                    continue
                part_rows[pid] += 1
                part_keys[pid][key] = None
            else:
                counts.append(count)
            table[key] = table.get(key, 0) + 1
            size += 1
            room -= 1
            if room < 0:
                # Overflow. The sink must see the routed run first: an
                # eviction surfaces tuples after it, and a restore
                # decision reads the partition totals it bumps.
                in_memory[side] = size
                self._track_peak(side)
                if routed:
                    sink.route_counts(side, routed)
                    routed = []
                self._maybe_spill()
                tracking = self._tracking
                part_rows = self._part_rows[side]
                part_keys = self._part_keys[side]
                size = unsampled = in_memory[side]
                room = budget - size - in_memory[other]
        if size > unsampled:
            in_memory[side] = size
            self._track_peak(side)
        if routed:
            sink.route_counts(side, routed)
        if reads:
            sink.reads += reads
            sink.reread_bytes += reread_rows * sink.row_bytes
        sink.flush()
        return counts

    def _track_peak(self, side: str) -> None:
        """Fold ``side``'s resident size into its peak, after an insert.

        Inserts only grow a side between two ``_maybe_spill`` calls, so
        sampling before each of them and after a run's last insert sees
        every maximum an insert reaches.
        """
        size = self._in_memory[side]
        if side == "left":
            if size > self.peak_left_table:
                self.peak_left_table = size
        elif size > self.peak_right_table:
            self.peak_right_table = size

    # -- spill / restore machinery ---------------------------------------

    def set_memory_budget(self, budget: int | None) -> None:
        """Re-budget the join mid-stream.

        Tightening the budget evicts immediately; loosening (or lifting
        it with ``None``) restores spilled partitions back into memory.
        """
        if budget is not None and budget < 1:
            raise ValueError(f"memory_budget must be >= 1, got {budget}")
        if budget is None:
            sink = self.spill_sink
            if sink is not None and self.memory_budget is not None:
                for side in ("left", "right"):
                    for pid in sorted(self._spilled[side]):
                        self._restore_partition(side, pid)
            self.memory_budget = None
            # Unbudgeted inserts skip partition maintenance, so the index
            # goes stale; a later re-budget rebuilds it on first overflow.
            self._tracking = False
            return
        was_unbudgeted = self.memory_budget is None
        self.memory_budget = budget
        if was_unbudgeted:
            if self.spill_sink is None:
                self.spill_sink = SpillSink(self.column)
            self._tracking = False
        if self._in_memory["left"] + self._in_memory["right"] > budget:
            self._maybe_spill()
        else:
            self._maybe_restore()
        self.spill_sink.flush()

    def _rebuild_partition_index(self) -> None:
        """(Re)derive per-partition bookkeeping from the resident tables.

        Needed when a budget is first applied to a join that grew without
        one — the unbudgeted insert path deliberately skips partition
        bookkeeping to keep the default hot path allocation-free.
        """
        fan_out = self.num_partitions
        for side in ("left", "right"):
            rows = self._part_rows[side] = [0] * fan_out
            keys = self._part_keys[side] = [{} for _ in range(fan_out)]
            for key, count in self._key_tables[side].items():
                pid = spill_partition(key, fan_out)
                rows[pid] += count
                keys[pid][key] = None

    def _maybe_spill(self) -> None:
        budget = self.memory_budget
        in_memory = self._in_memory
        if in_memory["left"] + in_memory["right"] <= budget:
            return
        if not self._tracking:
            # First overflow: partition the resident tables once, then
            # keep the index maintained per insert from here on.
            self._rebuild_partition_index()
            self._tracking = True
        while in_memory["left"] + in_memory["right"] > budget:
            # Skew-aware victim choice: the larger resident side loses its
            # largest partition. A victim-side flip mid-stream is role
            # reversal — the side built as "small" outgrew the other.
            victim = "left" if in_memory["left"] >= in_memory["right"] else "right"
            if self._victim_side is None:
                self._victim_side = victim
            elif victim != self._victim_side:
                self.role_reversals += 1
                self._victim_side = victim
            part_rows = self._part_rows[victim]
            pid = max(range(self.num_partitions), key=part_rows.__getitem__)
            if not part_rows[pid]:
                break
            self._evict_partition(victim, pid)
        self._maybe_restore()

    def _evict_partition(self, side: str, pid: int) -> None:
        # Compact spill: one (key, count) entry per distinct key, in the
        # order the keys arrived, handed over to the sink for good.
        keys = self._part_keys[side][pid]
        key_table = self._key_tables[side]
        rows = self._part_rows[side][pid]
        self.spill_sink.write_counts(
            side, pid, {key: key_table.pop(key) for key in keys}, rows
        )
        keys.clear()
        self._in_memory[side] -= rows
        self._part_rows[side][pid] = 0
        self._spilled[side].add(pid)
        self.partition_evictions += 1

    def _maybe_restore(self) -> None:
        """Bring small spilled partitions back while budget allows.

        Hysteresis: a partition only returns while it fits in *half* the
        current slack, so a restore can never trigger the next eviction
        and evict/restore ping-pong is impossible.
        """
        sink = self.spill_sink
        if sink is None:
            return
        budget = self.memory_budget
        in_memory = self._in_memory
        while True:
            slack = budget - in_memory["left"] - in_memory["right"]
            if slack < 2:
                return
            # A spilled partition's parked rows are the sink's running
            # total (never 0: only a non-empty partition is evicted).
            fits = slack // 2
            best: tuple[int, str, int] | None = None
            for side in ("left", "right"):
                totals = sink._part_totals[side]
                for pid in self._spilled[side]:
                    rows = totals[pid]
                    if rows <= fits and (best is None or (rows, side, pid) < best):
                        best = (rows, side, pid)
            if best is None:
                return
            self._restore_partition(best[1], best[2])

    def _restore_partition(self, side: str, pid: int) -> None:
        keys = self._part_keys[side][pid]
        key_table = self._key_tables[side]
        restored = 0
        for key, count in self.spill_sink.take_counts(side, pid).items():
            key_table[key] = key_table.get(key, 0) + count
            keys[key] = None
            restored += count
        self._part_rows[side][pid] += restored
        self._in_memory[side] += restored
        self._spilled[side].discard(pid)
        self.partition_restores += 1

    @property
    def spilled_partitions(self) -> dict[str, set[int]]:
        """Partitions currently holding spilled state, per side."""
        return {side: set(pids) for side, pids in self._spilled.items()}

    @property
    def spilled_rows(self) -> int:
        return self.spill_sink.spilled_rows if self.spill_sink else 0

    @property
    def spill_reads(self) -> int:
        return self.spill_sink.reads if self.spill_sink else 0

    @property
    def spilled_bytes(self) -> int:
        return self.spill_sink.spilled_bytes if self.spill_sink else 0

    @property
    def reread_bytes(self) -> int:
        return self.spill_sink.reread_bytes if self.spill_sink else 0

    @property
    def restored_rows(self) -> int:
        return self.spill_sink.restored_rows if self.spill_sink else 0

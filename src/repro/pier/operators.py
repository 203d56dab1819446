"""Local physical operators.

These are the node-local building blocks of PIER query plans: iterator-
style operators over streams of rows. The dataflow runtime composes them
per site; shipping between sites is the runtime's job, so every operator
here is purely local and purely functional over its input stream.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Callable, Iterable, Iterator
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


class Metered(Operator):
    """Transparent metering wrapper around any operator.

    Yields the child's rows unchanged while recording, into a
    :class:`repro.obs.metrics.MetricsRegistry` (or plain
    :class:`repro.sim.stats.StatsRegistry`):

    * ``<name>.rows`` — output row counter,
    * ``<name>.seconds`` — wall-clock seconds spent *inside the child*
      producing each row, as a seeded reservoir histogram (so metering a
      million-row scan retains a bounded sample).

    The observability layer's opt-in hook for iterator pipelines — the
    streaming dataflow runtime meters its stages event-side instead.
    Wrapping changes no output: rows, order, and laziness are preserved.
    """

    def __init__(
        self,
        child: Operator,
        registry,
        name: str,
        labels: dict[str, str] | None = None,
        reservoir_size: int = 1024,
    ):
        self.child = child
        self.registry = registry
        self.name = name
        self.labels = labels
        self.reservoir_size = reservoir_size

    def __iter__(self) -> Iterator[Row]:
        kwargs = {"labels": self.labels} if self.labels else {}
        rows = self.registry.counter(f"{self.name}.rows", **kwargs)
        seconds = self.registry.histogram(
            f"{self.name}.seconds", reservoir_size=self.reservoir_size, **kwargs
        )
        iterator = iter(self.child)
        while True:
            start = perf_counter()
            try:
                row = next(iterator)
            except StopIteration:
                return
            seconds.observe(perf_counter() - start)
            rows.add(1)
            yield row


class Scan(Operator):
    """Leaf operator over an already-materialised list of rows."""

    def __init__(self, rows: Iterable[Row]):
        self._rows = list(rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)


class Selection(Operator):
    """Filter rows by an arbitrary predicate."""

    def __init__(self, child: Operator, predicate: Callable[[Row], bool]):
        self.child = child
        self.predicate = predicate

    def __iter__(self) -> Iterator[Row]:
        return (row for row in self.child if self.predicate(row))


class Projection(Operator):
    """Keep only the named columns, deduplicating the projected rows."""

    def __init__(self, child: Operator, columns: tuple[str, ...]):
        self.child = child
        self.columns = columns

    def __iter__(self) -> Iterator[Row]:
        # Signature first, dict only for survivors: duplicate rows are
        # dropped on the tuple alone, without allocating a dict each.
        seen: set[tuple] = set()
        columns = self.columns
        for row in self.child:
            signature = tuple(row[column] for column in columns)
            if signature in seen:
                continue
            seen.add(signature)
            yield dict(zip(columns, signature))


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

    Storage is partition-granular: the join evicts whole hash partitions
    (``write_rows`` / ``write_counts``), routes later build state of a
    partition that stays spilled straight in (``route_row``, and for the
    key path ``route_counts`` — one call per run of routed keys, never
    one per key), probes re-read single keys out of a spilled partition
    (``read_rows`` / ``read_count``), and a partition restores wholesale
    when the budget frees up (``take_rows`` / ``take_counts``).
    Keys-mode state is parked as compact ``(key, count)`` multiplicities
    — never one row dict per duplicate.

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
        #: rows-mode spilled state: side -> partition id -> key -> rows,
        #: indexed by join key so a probe re-reads only its matches
        #: instead of scanning the whole partition (which would make a
        #: budgeted join quadratic)
        self._rows: dict[str, dict[int, dict[Any, list[Row]]]] = {
            "left": {},
            "right": {},
        }
        #: keys-mode spilled state: side -> partition id -> key -> count
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

    # -- eviction --------------------------------------------------------

    def write_rows(self, side: str, pid: int, mapping: dict[Any, list[Row]]) -> None:
        """Park a rows-mode partition: join key -> its build rows."""
        partition = self._rows[side].setdefault(pid, {})
        rows = 0
        for key, entry in mapping.items():
            partition.setdefault(key, []).extend(entry)
            rows += len(entry)
        self._account_write(side, pid, rows)

    def write_counts(self, side: str, pid: int, mapping: dict[Any, int]) -> None:
        """Park a keys-mode partition compactly: join key -> multiplicity."""
        partition = self._counts[side].setdefault(pid, {})
        rows = 0
        for key, count in mapping.items():
            partition[key] = partition.get(key, 0) + count
            rows += count
        self._account_write(side, pid, rows)

    def _account_write(self, side: str, pid: int, rows: int) -> None:
        self.spilled_rows += rows
        self.spilled_bytes += rows * self.row_bytes
        totals = self._part_totals[side]
        totals[pid] = totals.get(pid, 0) + rows

    # -- routing (a spilled partition staying spilled) -------------------

    def route_row(self, side: str, pid: int, key: Any, row: Row) -> None:
        """Append one rows-mode build row straight into a spilled partition.

        The per-insert fast path of :meth:`write_rows`, used by the join
        when a build row lands in a partition that is already spilled.
        """
        partition = self._rows[side].setdefault(pid, {})
        entry = partition.get(key)
        if entry is None:
            partition[key] = [row]
        else:
            entry.append(row)
        self._account_write(side, pid, 1)

    def route_counts(
        self, side: str, routed: list[tuple[int, Any]]
    ) -> list[tuple[int, Any]]:
        """Bump keys-mode multiplicities in spilled partitions.

        ``routed`` is a run of ``(partition id, key)`` build keys, in
        arrival order, that landed in partitions already spilled. Returns
        the entries whose key is new to its partition, in order — the DHT
        sink uses that to keep its surface at one tuple per distinct key.
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

    # -- probe re-reads --------------------------------------------------

    def read_rows(self, side: str, pid: int, key: Any) -> list[Row]:
        """Re-read ``key``'s rows out of one spilled partition."""
        self.reads += 1
        matches = self._rows[side].get(pid, {}).get(key)
        if not matches:
            return []
        self.reread_bytes += len(matches) * self.row_bytes
        return list(matches)

    def read_count(self, side: str, pid: int, key: Any) -> int:
        """Re-read ``key``'s multiplicity out of one spilled partition."""
        self.reads += 1
        count = self._counts[side].get(pid, {}).get(key, 0)
        self.reread_bytes += count * self.row_bytes
        return count

    # -- restore ---------------------------------------------------------

    def take_rows(self, side: str, pid: int) -> dict[Any, list[Row]]:
        """Remove and return a spilled rows-mode partition."""
        mapping = self._rows[side].pop(pid, {})
        self.restored_rows += self._part_totals[side].pop(pid, 0)
        return mapping

    def take_counts(self, side: str, pid: int) -> dict[Any, int]:
        """Remove and return a spilled keys-mode partition."""
        mapping = self._counts[side].pop(pid, {})
        self.restored_rows += self._part_totals[side].pop(pid, 0)
        return mapping

    # -- inspection ------------------------------------------------------

    def partition_rows(self, side: str, pid: int) -> int:
        """Logical rows currently parked in one spilled partition."""
        return self._part_totals[side].get(pid, 0)

    def has_spilled(self, side: str) -> bool:
        return bool(self._rows[side]) or bool(self._counts[side])

    def clear(self) -> None:
        """Drop all parked state (query teardown)."""
        for store in (self._rows, self._counts, self._part_totals):
            for side in store.values():
                side.clear()


class SymmetricHashJoin(Operator):
    """Pipelined symmetric hash join (SHJ) on one column.

    Both inputs are consumed as streams; each arriving row is inserted into
    its side's hash table and probed against the other side's table, so
    results stream out as soon as both matching rows have arrived. This is
    the join PIER executes between posting lists (Section 3.2).

    The join is **incremental**: :meth:`insert_left` / :meth:`insert_right`
    consume one row at a time (the dataflow runtime feeds them one tuple
    batch at a time) and return the matches that row completes, while the
    hash tables persist across calls. The iterator interface is a thin
    round-robin driver over the same core — for a deterministic simulation
    it interleaves the two inputs, which exercises the symmetric structure
    while producing the same output set as any arrival order.

    There is also a **key-only path**, and it is set-at-a-time:
    :meth:`insert_keys` consumes a whole run of bare join-key values for
    one side — a site's posting list, or one arriving exchange batch — in
    a single loop and returns one match *count* per key
    (:meth:`insert_left_key` / :meth:`insert_right_key` are its one-key
    forms). The streaming dataflow uses it because its exchange batches
    carry single-column key tuples (:mod:`repro.pier.rows`) and its join
    stages only ever forward the key of a match — the classic dict-merge
    path would allocate (and immediately discard) one merged dict per
    match. Build state on this path is a per-key multiplicity, not a row
    list, and spill is partition-granular end to end: keys landing in
    spilled partitions reach the sink a run at a time
    (:meth:`SpillSink.route_counts`), and the overflow check runs
    ``_maybe_spill`` only when the budget is actually exceeded. How a key
    sequence is chunked into calls changes no count, no spill statistic
    and no sink content. The row and key APIs must not be mixed on one
    instance (the first insert pins the mode; mixing raises
    :class:`TypeError`).

    With ``memory_budget`` set, the join holds at most that many **rows**
    (not bytes) across both in-memory tables, hash-partitioned by
    :func:`spill_partition`. On overflow it evicts whole *partitions* —
    largest first, from whichever side is currently larger (role reversal
    when the "small" build side turns out large mid-stream) — to
    ``spill_sink`` (a :class:`SpillSink`, by default an in-memory one).
    Probes consult the per-partition spilled index, so keys in
    never-spilled partitions cost zero sink reads; a spilled partition
    *stays* spilled — later build rows for it route straight to the sink
    rather than refilling memory — until enough budget frees up to
    restore it incrementally. This is the
    memory-for-re-reads trade of a dynamic hybrid hash join, and it never
    changes the output set. ``spill_policy="all"`` keeps the legacy
    all-or-nothing behaviour (one row over budget flushes both sides
    wholesale) for comparison experiments.
    """

    def __init__(
        self,
        left: Operator | None = None,
        right: Operator | None = None,
        column: str = "fileID",
        memory_budget: int | None = None,
        spill_sink: SpillSink | None = None,
        num_partitions: int = NUM_SPILL_PARTITIONS,
        spill_policy: str = "partitioned",
    ):
        if memory_budget is not None and memory_budget < 1:
            raise ValueError(f"memory_budget must be >= 1, got {memory_budget}")
        if num_partitions < 1:
            raise ValueError(f"num_partitions must be >= 1, got {num_partitions}")
        if spill_policy not in ("partitioned", "all"):
            raise ValueError(
                f"spill_policy must be 'partitioned' or 'all', got {spill_policy!r}"
            )
        self.left = left
        self.right = right
        self.column = column
        self.memory_budget = memory_budget
        self.num_partitions = num_partitions
        self.spill_policy = spill_policy
        #: only the partitioned policy keeps evicted partitions spilled —
        #: the legacy "all" policy refills memory and re-flushes (that
        #: churn is the cliff the experiments measure against)
        self._stay_spilled = spill_policy == "partitioned"
        self.spill_sink = spill_sink or (SpillSink(column) if memory_budget else None)
        self._tables: dict[str, dict[Any, list[Row]]] = {"left": {}, "right": {}}
        #: key-only fast path build state: join key -> multiplicity
        self._key_tables: dict[str, dict[Any, int]] = {"left": {}, "right": {}}
        self._mode: str | None = None  # "rows" or "keys", pinned on first insert
        self._in_memory = {"left": 0, "right": 0}
        #: partition bookkeeping, maintained only while a budget is set:
        #: resident rows per partition, resident keys per partition, and
        #: which partitions currently have spilled state.
        self._part_rows: dict[str, list[int]] = {"left": [], "right": []}
        self._part_keys: dict[str, list[set]] = {"left": [], "right": []}
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

    def insert_left(self, row: Row) -> list[Row]:
        """Consume one left row; returns the matches it completes."""
        return self._insert("left", "right", row)

    def insert_right(self, row: Row) -> list[Row]:
        """Consume one right row; returns the matches it completes."""
        return self._insert("right", "left", row)

    def insert_left_key(self, key: Any) -> int:
        """One-key :meth:`insert_keys` on the left side."""
        return self.insert_keys("left", (key,))[0]

    def insert_right_key(self, key: Any) -> int:
        """One-key :meth:`insert_keys` on the right side."""
        return self.insert_keys("right", (key,))[0]

    def _pin_mode(self, mode: str) -> None:
        if self._mode is None:
            self._mode = mode
        elif self._mode != mode:
            raise TypeError(
                f"cannot mix {mode!r}-mode inserts into a {self._mode!r}-mode "
                "SymmetricHashJoin"
            )

    def _insert(self, side: str, other: str, row: Row) -> list[Row]:
        if self._mode != "rows":
            self._pin_mode("rows")
        key = row[self.column]
        merged: list[Row] = []
        matches = self._tables[other].get(key)
        if matches:
            for match in matches:
                # The right side wins column collisions, whichever arrives
                # last; one dict per *output* row, nothing intermediate.
                merged.append({**row, **match} if side == "left" else {**match, **row})
        tracking = self._tracking
        if tracking:
            pid = self._pid_memo.get(key)
            if pid is None:
                pid = spill_partition(key, self.num_partitions)
            # Never-spilled partitions cost zero sink reads.
            if pid in self._spilled[other]:
                for match in self.spill_sink.read_rows(other, pid, key):
                    merged.append(
                        {**row, **match} if side == "left" else {**match, **row}
                    )
            if self._stay_spilled and pid in self._spilled[side]:
                # Classic hybrid hash: a spilled partition *stays*
                # spilled — its later build rows route straight to the
                # sink instead of refilling memory only to be evicted
                # again a few inserts later.
                self.spill_sink.route_row(side, pid, key, row)
                return merged
        table = self._tables[side]
        entry = table.get(key)
        if entry is None:
            table[key] = [row]
        else:
            entry.append(row)
        if tracking:
            self._part_rows[side][pid] += 1
            self._part_keys[side][pid].add(key)
        self._count_insert(side)
        return merged

    def insert_keys(self, side: str, keys: Iterable[Any]) -> list[int]:
        """Key-only path: consume a run of ``side``'s join keys, in order.

        Returns, per key, the number of other-side matches it completes
        (spilled partitions included). Exactly the effect of inserting the
        keys one call at a time, at one call's overhead.
        """
        if self._mode != "keys":
            self._pin_mode("keys")
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
        stay_spilled = self._stay_spilled
        spilled_side = self._spilled[side]
        spilled_other = self._spilled[other]
        tracking = self._tracking
        part_rows = self._part_rows[side]
        part_keys = self._part_keys[side]
        size = unsampled = in_memory[side]
        #: resident inserts left before the budget overflows
        room = budget - size - in_memory[other]
        #: (pid, key) of keys landing in partitions that stay spilled
        #: (see _insert); they reach the sink a run at a time
        routed: list[tuple[int, Any]] = []
        for key in keys:
            count = probe(key, 0)
            if tracking:
                pid = memo_get(key)
                if pid is None:
                    pid = spill_partition(key, self.num_partitions)
                # Never-spilled partitions cost zero sink reads.
                if pid in spilled_other:
                    count += sink.read_count(other, pid, key)
                counts.append(count)
                if stay_spilled and pid in spilled_side:
                    routed.append((pid, key))
                    continue
                part_rows[pid] += 1
                part_keys[pid].add(key)
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

    def _count_insert(self, side: str) -> None:
        in_memory = self._in_memory
        in_memory[side] += 1
        self._track_peak(side)
        budget = self.memory_budget
        if budget is not None and in_memory["left"] + in_memory["right"] > budget:
            self._maybe_spill()

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

    def _rebuild_partition_index(self) -> None:
        """(Re)derive per-partition bookkeeping from the resident tables.

        Needed when a budget is first applied to a join that grew without
        one — the unbudgeted insert path deliberately skips partition
        bookkeeping to keep the default hot path allocation-free.
        """
        fan_out = self.num_partitions
        for side in ("left", "right"):
            rows = self._part_rows[side] = [0] * fan_out
            keys = self._part_keys[side] = [set() for _ in range(fan_out)]
            if self._mode == "keys":
                for key, count in self._key_tables[side].items():
                    pid = spill_partition(key, self.num_partitions)
                    rows[pid] += count
                    keys[pid].add(key)
            else:
                for key, entry in self._tables[side].items():
                    pid = spill_partition(key, self.num_partitions)
                    rows[pid] += len(entry)
                    keys[pid].add(key)

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
        if self.spill_policy == "all":
            # Legacy cliff: one row over budget flushes both sides whole.
            for side in ("left", "right"):
                for pid in range(self.num_partitions):
                    if self._part_rows[side][pid]:
                        self._evict_partition(side, pid)
            return
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
        keys = self._part_keys[side][pid]
        if self._mode == "keys":
            # Compact spill: one (key, count) entry per distinct key, not
            # one row dict per multiplicity.
            key_table = self._key_tables[side]
            self.spill_sink.write_counts(
                side, pid, {key: key_table.pop(key) for key in keys}
            )
        else:
            table = self._tables[side]
            self.spill_sink.write_rows(
                side, pid, {key: table.pop(key) for key in keys}
            )
        keys.clear()
        self._in_memory[side] -= self._part_rows[side][pid]
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
        while True:
            slack = budget - self._in_memory["left"] - self._in_memory["right"]
            if slack < 2:
                return
            best: tuple[int, str, int] | None = None
            for side in ("left", "right"):
                for pid in self._spilled[side]:
                    rows = sink.partition_rows(side, pid)
                    if rows and rows <= slack // 2 and (
                        best is None or (rows, side, pid) < best
                    ):
                        best = (rows, side, pid)
            if best is None:
                return
            self._restore_partition(best[1], best[2])

    def _restore_partition(self, side: str, pid: int) -> None:
        sink = self.spill_sink
        keys = self._part_keys[side][pid]
        restored = 0
        if self._mode == "keys":
            key_table = self._key_tables[side]
            for key, count in sink.take_counts(side, pid).items():
                key_table[key] = key_table.get(key, 0) + count
                keys.add(key)
                restored += count
        else:
            table = self._tables[side]
            for key, entry in sink.take_rows(side, pid).items():
                table.setdefault(key, []).extend(entry)
                keys.add(key)
                restored += len(entry)
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

    # -- iterator driver -------------------------------------------------

    def __iter__(self) -> Iterator[Row]:
        if self.left is None or self.right is None:
            raise ValueError("iterating a SymmetricHashJoin needs both inputs")
        left_iter = iter(self.left)
        right_iter = iter(self.right)
        left_done = right_done = False
        while not (left_done and right_done):
            if not left_done:
                row = next(left_iter, None)
                if row is None:
                    left_done = True
                else:
                    yield from self.insert_left(row)
            if not right_done:
                row = next(right_iter, None)
                if row is None:
                    right_done = True
                else:
                    yield from self.insert_right(row)

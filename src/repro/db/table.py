"""The table abstraction: heap + indexes + locking + archive-aware reads.

A :class:`Table` is what the layers above (the query executor and the
Inversion file system) operate on.  It routes writes through the heap
and every B-tree index, takes two-phase locks on behalf of the calling
transaction, and — for historical (as-of) snapshots — transparently
merges the live heap with the vacuum cleaner's archive relation, so
time travel keeps working after obsolete records have been archived.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.db.btree import BTree
from repro.db.catalog import IndexInfo, TableInfo
from repro.db.heap import TID, TID_SIZE, HeapFile
from repro.db.locks import EXCLUSIVE
from repro.db.snapshot import AsOfSnapshot, IntervalSnapshot, Snapshot
from repro.db.transactions import Transaction
from repro.errors import TableError


class Table:
    """A handle on one table, bound to a :class:`repro.db.database.Database`."""

    def __init__(self, db, info: TableInfo) -> None:
        self.db = db
        self.info = info
        self.heap = HeapFile(db.buffers, info.devname, info.name, info.schema,
                             cpu=db.cpu)
        self._btrees: list[tuple[IndexInfo, BTree]] = [
            (ix, BTree(db.buffers, info.devname, ix.name, cpu=db.cpu))
            for ix in info.indexes
        ]

    # -- naming ------------------------------------------------------------

    @property
    def name(self) -> str:
        return self.info.name

    @property
    def schema(self):
        return self.info.schema

    # -- locking -------------------------------------------------------------
    #
    # Writers take two-phase exclusive locks; readers rely on MVCC
    # snapshots and take no locks (a reader always sees a
    # transaction-consistent state regardless of concurrent writers).
    # The lock resource is the whole relation by default; the hot
    # shared metadata tables (naming, fileatt) pass a ``lock_key`` so
    # independent files do not serialize on them — the record-
    # granularity end of [GRAY76]'s granularity-of-locks spectrum.

    def _write_lock(self, tx: Transaction | None,
                    lock_key: object = None) -> None:
        if tx is None:
            return
        resource = ("rel", self.info.oid) if lock_key is None \
            else ("rel", self.info.oid, lock_key)
        self.db.locks.acquire(tx, resource, EXCLUSIVE)

    def lock_exclusive(self, tx: Transaction, lock_key: object = None) -> None:
        """Declare write intent up front.  Callers that buffer writes
        (the chunk store's coalescing) must take the exclusive lock at
        *write* time, not at flush time — acquiring nothing now and
        locking at commit invites deadlocks between flushing
        transactions."""
        self._write_lock(tx, lock_key)

    def holds_exclusive(self, tx: Transaction) -> bool:
        """True when ``tx`` already holds this relation's X lock."""
        return self.db.locks.holders(
            ("rel", self.info.oid)).get(tx.xid) == EXCLUSIVE

    # -- key extraction ---------------------------------------------------------

    def _key_for(self, index: IndexInfo, values: Sequence[object]) -> tuple:
        idxs = [self.schema.column_index(c) for c in index.keycols]
        return tuple(values[i] for i in idxs)

    # -- write path -----------------------------------------------------------------

    def _fire_rules(self, tx: Transaction, event: str,
                    row: Sequence[object]) -> None:
        rules = self.db._rules
        if rules is not None:
            rules.fire(tx, self.info.name, event, row, self.schema)

    def insert(self, tx: Transaction, values: Sequence[object],
               lock_key: object = None) -> TID:
        self._write_lock(tx, lock_key)
        self._fire_rules(tx, "append", values)
        tid = self.heap.insert(tx, values)
        for index, btree in self._btrees:
            btree.insert(tx, self._key_for(index, values), tid)
        return tid

    def insert_many(self, tx: Transaction, rows: Sequence[Sequence[object]],
                    lock_key: object = None) -> list[TID]:
        """Insert a run of rows as one contiguous heap append (see
        :meth:`HeapFile.insert_many`); index maintenance is per row, as
        in :meth:`insert`."""
        rows = [tuple(r) for r in rows]
        self._write_lock(tx, lock_key)
        for values in rows:
            self._fire_rules(tx, "append", values)
        tids = self.heap.insert_many(tx, rows)
        for index, btree in self._btrees:
            for values, tid in zip(rows, tids):
                btree.insert(tx, self._key_for(index, values), tid)
        return tids

    def delete(self, tx: Transaction, tid: TID,
               lock_key: object = None) -> None:
        self._write_lock(tx, lock_key)
        if self.db._rules is not None:
            _xmin, _xmax, old = self.heap.fetch_raw(tid)
            self._fire_rules(tx, "delete", old)
        self.heap.delete(tx, tid)
        # Index entries stay: historical versions must remain findable
        # ("an index on all of the file's available data, including
        # both old and current blocks").

    def update(self, tx: Transaction, tid: TID,
               values: Sequence[object], lock_key: object = None) -> TID:
        self._write_lock(tx, lock_key)
        self._fire_rules(tx, "replace", values)
        self.heap.delete(tx, tid)
        new_tid = self.heap.insert(tx, values)
        for index, btree in self._btrees:
            btree.insert(tx, self._key_for(index, values), new_tid)
        return new_tid

    # -- read path --------------------------------------------------------------------

    def scan(self, snapshot: Snapshot,
             tx: Transaction | None = None) -> Iterator[tuple[TID, tuple]]:
        """Visible rows.  For historical snapshots the archive relation
        (if the vacuum cleaner has created one) is scanned too."""
        yield from self.heap.scan(snapshot)
        archive = self._archive_heap(snapshot)
        if archive is not None:
            yield from archive.scan(snapshot)

    def _archive_heap(self, snapshot: Snapshot) -> HeapFile | None:
        """The archive heap, only consulted for time-travel reads
        (point or interval)."""
        if not isinstance(snapshot, (AsOfSnapshot, IntervalSnapshot)):
            return None
        return self.db.archive_heap_for(self.info.name)

    # -- index access --------------------------------------------------------------------

    def _find_index(self, keycols: Sequence[str]) -> tuple[IndexInfo, BTree] | None:
        want = tuple(keycols)
        for index, btree in self._btrees:
            if index.keycols == want:
                return index, btree
        return None

    def has_index(self, keycols: Sequence[str]) -> bool:
        return self._find_index(keycols) is not None

    def index_eq(self, keycols: Sequence[str], key_values: Sequence[object],
                 snapshot: Snapshot, tx: Transaction | None = None
                 ) -> Iterator[tuple[TID, tuple]]:
        """Equality index scan: every visible row whose ``keycols``
        equal ``key_values``."""
        found = self._find_index(keycols)
        if found is None:
            raise TableError(
                f"no index on {self.name}({', '.join(keycols)})")
        _index, btree = found
        # Newest first: entries are keyed (key, TID), the TID suffix
        # packs big-endian so it sorts as (page, slot), and the heap
        # only appends, so the reversed scan meets a key's versions
        # newest to oldest at any heap size.  Visibility, not order,
        # decides: all versions of a key have distinct visibility
        # windows, so yield order does not change which rows qualify,
        # only how many superseded ones are fetched first — none, when
        # the newest version is the visible one.
        for tid in reversed(btree.search(tuple(key_values))):
            row = self.heap.fetch(tid, snapshot)
            if row is not None:
                yield tid, row
        yield from self._archive_index_eq(keycols, key_values, snapshot)

    def _archive_index_eq(self, keycols, key_values,
                          snapshot) -> Iterator[tuple[TID, tuple]]:
        if not isinstance(snapshot, (AsOfSnapshot, IntervalSnapshot)):
            return
        pair = self.db.archive_index_for(self.info.name, tuple(keycols))
        if pair is None:
            return
        archive_heap, archive_btree = pair
        for tid in archive_btree.search(tuple(key_values)):
            row = archive_heap.fetch(tid, snapshot)
            if row is not None:
                yield tid, row

    def index_range(self, keycols: Sequence[str],
                    lo: Sequence[object] | None, hi: Sequence[object] | None,
                    snapshot: Snapshot, tx: Transaction | None = None
                    ) -> Iterator[tuple[TID, tuple]]:
        """Range index scan over [lo, hi] (inclusive; None = unbounded).
        For time-travel snapshots, archived versions in the range are
        yielded after the live ones, as :meth:`index_eq` does."""
        found = self._find_index(keycols)
        if found is None:
            raise TableError(
                f"no index on {self.name}({', '.join(keycols)})")
        _index, btree = found
        lo_t = tuple(lo) if lo is not None else None
        hi_t = tuple(hi) if hi is not None else None
        for _key, tid in btree.scan_values_range(lo_t, hi_t):
            row = self.heap.fetch(tid, snapshot)
            if row is not None:
                yield tid, row
        if isinstance(snapshot, (AsOfSnapshot, IntervalSnapshot)):
            pair = self.db.archive_index_for(self.info.name, tuple(keycols))
            if pair is not None:
                archive_heap, archive_btree = pair
                for _key, tid in archive_btree.scan_values_range(lo_t, hi_t):
                    row = archive_heap.fetch(tid, snapshot)
                    if row is not None:
                        yield tid, row

    def index_range_newest(self, keycols: Sequence[str],
                           lo: Sequence[object] | None,
                           hi: Sequence[object] | None,
                           snapshot: Snapshot, tx: Transaction | None = None
                           ) -> Iterator[tuple[TID, tuple]]:
        """For every distinct user key in [lo, hi], the one row
        :meth:`index_eq` on that key would yield *first* — the newest
        visible live version, falling back to the archive for
        time-travel snapshots — resolved with a single B-tree descent
        for the whole range instead of one descent per key.

        This is the sequential-read fast path: an N-chunk file read
        costs one index descent (two after a vacuum, for the archive
        index) rather than N."""
        found = self._find_index(keycols)
        if found is None:
            raise TableError(
                f"no index on {self.name}({', '.join(keycols)})")
        _index, btree = found
        lo_t = tuple(lo) if lo is not None else None
        hi_t = tuple(hi) if hi is not None else None
        # Entries are keyed (user key, TID): group by user key and
        # resolve newest-first, as index_eq does — visibility, not
        # order, decides which version is yielded.
        live: dict[bytes, list[TID]] = {}
        for key, tid in btree.scan_values_range(lo_t, hi_t):
            live.setdefault(key[:-TID_SIZE], []).append(tid)
        archive_heap = None
        archived: dict[bytes, list[TID]] = {}
        if isinstance(snapshot, (AsOfSnapshot, IntervalSnapshot)):
            pair = self.db.archive_index_for(self.info.name, tuple(keycols))
            if pair is not None:
                archive_heap, archive_btree = pair
                for key, tid in archive_btree.scan_values_range(lo_t, hi_t):
                    archived.setdefault(key[:-TID_SIZE], []).append(tid)
        # Each key's last TID is its newest version, the one fetched
        # whenever it is visible; pull those pages in with batched
        # exact reads so the heap I/O below is one contiguous transfer
        # per run, not a page apiece.
        if live:
            self.heap.prefetch_pages(tids[-1].pageno for tids in live.values())
        for ukey in sorted(set(live) | set(archived)):
            emitted = False
            for tid in reversed(live.get(ukey, ())):
                row = self.heap.fetch(tid, snapshot)
                if row is not None:
                    yield tid, row
                    emitted = True
                    break
            if emitted or archive_heap is None:
                continue
            for tid in archived.get(ukey, ()):
                row = archive_heap.fetch(tid, snapshot)
                if row is not None:
                    yield tid, row
                    break

    # -- convenience -----------------------------------------------------------------------

    def row_count(self, snapshot: Snapshot) -> int:
        return sum(1 for __ in self.scan(snapshot))

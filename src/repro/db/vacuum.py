"""The vacuum cleaner: record archiving.

"Periodically, obsolete records must be garbage-collected from the
database, and either moved elsewhere or physically deleted…  If time
travel is desired, the records must be saved forever somewhere.  This
process is referred to as record archiving.  POSTGRES includes a
special-purpose process, called the vacuum cleaner, that archives
records.  Obsolete records are physically removed from the table in
which they originally appeared, and are moved to an archive."

For a table ``t`` the cleaner maintains an archive relation ``a_t``
(optionally on a slower/cheaper device — the natural home for the
optical jukebox) holding superseded record versions *with their
original transaction stamps*, plus archive copies of ``t``'s B-tree
indexes so historical index lookups stay fast.  After moving records
out, the live heap is compacted and its indexes rebuilt.

Time-travel reads (:class:`~repro.db.snapshot.AsOfSnapshot`) through
:class:`~repro.db.table.Table` transparently merge heap and archive.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.db.btree import BTree
from repro.db.catalog import TableInfo
from repro.db.heap import HeapFile
from repro.db.locks import EXCLUSIVE
from repro.db.snapshot import BootstrapSnapshot
from repro.db.transactions import ABORTED, atomic
from repro.db.tuples import INVALID_XID
from repro.errors import RecoveryError, TableError

RENAME_JOURNAL_TAG = "pg_rename_redo"
"""Root-device metadata tag holding the relation-swap redo journal.

The compacted rewrite at the end of a vacuum pass replaces the live
heap and index relations with freshly built copies.  Each individual
replacement is an atomic :meth:`~repro.devices.base.DeviceManager.
rename_relation`, but a heap and its indexes must swap *together* — a
crash between renames would leave an index holding TIDs into a heap
that no longer exists.  So the cleaner force-writes the journal (the
full list of renames) before the first swap and clears it after the
last; :func:`replay_rename_journal` re-runs any survivors when the
database is next opened.  Renames are idempotent (a missing source
with an existing destination is a completed rename), so replaying a
partially-applied journal is safe, as is crashing during the replay."""


def replay_rename_journal(switch, root_device) -> int:
    """Complete relation swaps interrupted by a crash.  Called from
    :meth:`repro.db.database.Database.open` before any relation is
    read.  Returns the number of journal entries processed."""
    raw = root_device.read_meta(RENAME_JOURNAL_TAG)
    if not raw:
        return 0
    try:
        entries = json.loads(raw.decode("ascii"))
    except ValueError as exc:
        raise RecoveryError(f"corrupt rename journal: {raw[:80]!r}") from exc
    for entry in entries:
        device = switch.get(entry["dev"])
        if device.relation_exists(entry["src"]):
            device.rename_relation(entry["src"], entry["dst"])
    root_device.sync_write_meta(RENAME_JOURNAL_TAG, b"")
    return len(entries)


@dataclass
class VacuumStats:
    """What one vacuum pass did."""

    table: str
    scanned: int = 0
    archived: int = 0
    expunged: int = 0        # aborted-insert garbage physically deleted
    kept: int = 0
    pages_before: int = 0
    pages_after: int = 0
    #: a keep_history=False request was overridden because another
    #: file holds by-reference pointers into this table — superseded
    #: versions were archived instead of discarded.
    history_pinned: bool = False


class VacuumCleaner:
    """Archives obsolete record versions out of live tables.

    With ``keep_history=False`` obsolete records are physically
    discarded instead of archived — "if the records are not saved
    elsewhere, some historical state of the database is lost … For
    files in which the user has no interest in maintaining history,
    POSTGRES can be instructed not to save old versions."
    """

    def __init__(self, db, archive_device: str | None = None,
                 keep_history: bool = True) -> None:
        self.db = db
        self.archive_device = archive_device
        self.keep_history = keep_history

    # -- classification ----------------------------------------------------

    def _classify(self, xmin: int, xmax: int) -> str:
        """'keep' (live or in-flight), 'archive' (superseded by a
        committed delete), or 'expunge' (inserted by an aborted
        transaction — never visible to anyone, ever)."""
        tm = self.db.tm
        if tm.state(xmin) == ABORTED:
            return "expunge"
        if xmax != INVALID_XID and tm.is_committed(xmax):
            return "archive"
        return "keep"

    # -- archive DDL -----------------------------------------------------------

    def _ensure_archive(self, info: TableInfo) -> tuple[HeapFile, list[tuple[tuple[str, ...], BTree]]]:
        """Create (if needed) and return the archive heap and its
        indexes, mirroring the live table's indexes.

        Creation runs in its own transaction, committed durably before
        the pass moves a single version: the archive's catalog row must
        already be on stable storage when the compacted swap destroys
        the originals.  Were it part of the vacuum transaction, a crash
        after the swap but before that transaction's commit record
        would leave the archived versions on disk under a catalog row
        recovery presumes aborted — unreachable by every lookup, and a
        dangling pointer for any by-reference clone pinned to them.  An
        empty archive left by a pass that crashed later is harmless:
        the next pass finds and reuses it."""
        name = f"a_{info.name}"
        archive_info = self.db.catalog.lookup_table(
            name, BootstrapSnapshot(self.db.tm), use_cache=False)
        devname = self.archive_device or info.devname
        if archive_info is None:
            with atomic(self.db) as ddl:
                dev = self.db.switch.get(devname)
                oid = self.db.catalog.allocate_oid()
                dev.create_relation(name)
                self.db.catalog.add_table_row(ddl, oid, name, dev.name, "a",
                                              info.schema)
                for ix in info.indexes:
                    idxname = f"a_{ix.name}"
                    dev.create_relation(idxname)
                    BTree.create(self.db.buffers, dev.name, idxname,
                                 cpu=self.db.cpu)
                    self.db.catalog.add_index_row(
                        ddl, self.db.catalog.allocate_oid(), idxname, oid,
                        list(ix.keycols))
                ddl.wrote = True
            self.db.tm.flush_commits()  # group commit must not buffer DDL
            archive_info = self.db.catalog.lookup_table(
                name, BootstrapSnapshot(self.db.tm), use_cache=False)
        heap = HeapFile(self.db.buffers, archive_info.devname,
                        archive_info.name, archive_info.schema, cpu=self.db.cpu)
        btrees = [(ix.keycols,
                   BTree(self.db.buffers, archive_info.devname, ix.name,
                         cpu=self.db.cpu))
                  for ix in archive_info.indexes]
        return heap, btrees

    # -- the pass ------------------------------------------------------------------

    def vacuum_table(self, table_name: str) -> VacuumStats:
        """Archive obsolete versions of one table and compact it."""
        info = self.db.catalog.lookup_table(table_name,
                                            BootstrapSnapshot(self.db.tm),
                                            use_cache=False)
        if info is None:
            raise TableError(f"no table named {table_name!r}")
        if info.relkind != "h":
            raise TableError(f"cannot vacuum relation of kind {info.relkind!r}")

        stats = VacuumStats(table=table_name)
        with atomic(self.db) as tx:
            self.db.locks.acquire(tx, ("rel", info.oid), EXCLUSIVE)
            # A writer holding the lock may have given the table an
            # index (a chunk table's is born when it outgrows a page):
            # the rewrite must rebuild what is there once it is ours.
            info = self.db.catalog.lookup_table(
                table_name, BootstrapSnapshot(self.db.tm), use_cache=False)
            heap = HeapFile(self.db.buffers, info.devname, info.name,
                            info.schema, cpu=self.db.cpu)
            stats.pages_before = heap.npages()
            keep_history = self.keep_history
            if not keep_history:
                # Another file may hold by-reference chunk pointers into
                # this table (see InversionFS._history_pinned): then
                # discarding superseded versions would leave dangling
                # references, so fall back to archiving them.
                check = getattr(self.db, "history_pin_check", None)
                if check is not None and check(table_name):
                    keep_history = True
                    stats.history_pinned = True
            if keep_history:
                archive_heap, archive_btrees = self._ensure_archive(info)
            else:
                archive_heap, archive_btrees = None, []
            schema = info.schema
            keycol_idx = {
                ix.keycols: [schema.column_index(c) for c in ix.keycols]
                for ix in info.indexes
            }

            keep: list[tuple[int, int, tuple]] = []
            for _tid, xmin, xmax, values in heap.scan_all_versions():
                stats.scanned += 1
                verdict = self._classify(xmin, xmax)
                if verdict == "archive":
                    if archive_heap is None:
                        # History discarded by request: the version is
                        # simply expunged.
                        stats.expunged += 1
                        continue
                    atid = archive_heap.insert_raw(xmin, xmax, values)
                    for keycols, btree in archive_btrees:
                        key = tuple(values[i] for i in keycol_idx[keycols])
                        btree.insert(tx, key, atid)
                    stats.archived += 1
                elif verdict == "expunge":
                    stats.expunged += 1
                else:
                    # Clear an xmax stamp left by an aborted deleter so
                    # the rewritten record is unambiguous.
                    if xmax != INVALID_XID and not self.db.tm.is_committed(xmax):
                        xmax = INVALID_XID
                    keep.append((xmin, xmax, values))
                    stats.kept += 1

            # Make the archive — and any group-commit-buffered status
            # records whose stamps the rewrite bakes in — durable
            # before destroying the originals.
            self.db.buffers.flush_all()
            self.db.tm.flush_commits()

            # Rewrite the live heap compacted, then rebuild its indexes.
            self._rewrite_heap(info, keep)
            stats.pages_after = HeapFile(self.db.buffers, info.devname,
                                         info.name, schema).npages()
            tx.wrote = True
        return stats

    def _rewrite_heap(self, info: TableInfo,
                      keep: list[tuple[int, int, tuple]]) -> None:
        """Replace the heap (and index) relations with compacted
        rebuilds.  TIDs change, so indexes are rebuilt from scratch.

        Crash-safe protocol: build ``v_<rel>`` side relations, force
        them to the medium, journal the swap, then atomically rename
        each side relation over its live name.  A crash before the
        journal write leaves the originals untouched (orphan side
        relations are reclaimed by the next vacuum); a crash after it
        is completed by :func:`replay_rename_journal` on reopen."""
        dev = self.db.switch.get(info.devname)
        buffers = self.db.buffers
        schema = info.schema
        side_of = {info.name: f"v_{info.name}"}
        for ix in info.indexes:
            side_of[ix.name] = f"v_{ix.name}"

        # Reclaim side relations orphaned by an earlier crashed pass.
        for side in side_of.values():
            if dev.relation_exists(side):
                buffers.drop_relation(info.devname, side)
                dev.drop_relation(side)

        dev.create_relation(side_of[info.name])
        heap = HeapFile(buffers, info.devname, side_of[info.name], schema,
                        cpu=self.db.cpu)
        new_tids = [heap.insert_raw(xmin, xmax, values)
                    for xmin, xmax, values in keep]
        for ix in info.indexes:
            dev.create_relation(side_of[ix.name])
            btree = BTree.create(buffers, info.devname, side_of[ix.name],
                                 cpu=self.db.cpu)
            col_idx = [schema.column_index(c) for c in ix.keycols]
            for tid, (_xmin, _xmax, values) in zip(new_tids, keep):
                key = tuple(values[i] for i in col_idx)
                btree.insert(None, key, tid)

        # The rebuilds must be durable before the journal names them.
        for side in side_of.values():
            buffers.flush_relation(info.devname, side)
        dev.flush()

        root = self.db.switch.get(self.db.catalog.root_device)
        root.sync_write_meta(RENAME_JOURNAL_TAG, json.dumps(
            [{"dev": info.devname, "src": side, "dst": live}
             for live, side in side_of.items()]).encode("ascii"))
        for live, side in side_of.items():
            buffers.drop_relation(info.devname, live)
            buffers.drop_relation(info.devname, side)
            dev.rename_relation(side, live)
        root.sync_write_meta(RENAME_JOURNAL_TAG, b"")
        self.db.catalog.heap_rewritten(info.name)

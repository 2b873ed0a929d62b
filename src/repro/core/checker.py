"""Storage consistency checking via self-identifying blocks.

"The only difficulties arise when the physical storage medium is
damaged, or when garbage has been written to the medium by hardware or
software failures.  Inversion could detect these cases by making all
blocks self-identifying; every block could be tagged with its file
identifier and block number.  Although the current version of the
system does not do this, space has been reserved in the tables storing
file data for this purpose."

Our chunk records *do* fill the reserved field (``selfid`` = file
identifier), so this module implements the checker the paper sketches.
Unlike fsck, it is **not** needed for crash recovery — it exists to
detect media corruption and misdirected writes, and runs on demand.

A by-reference clone (``repro.vfs``) leaves rows that *point* at exact
chunk versions of another file, so the same walk proves the
shared-extents invariant: **every committed reference stored anywhere —
current, superseded, or archived — still resolves** (the version it
pins exists in the source's live heap or its archive) and is covered
by a ``vfsref`` registry row.  Vacuum is the only thing that destroys
versions, and its history-pin guard
(:meth:`repro.db.vacuum.VacuumCleaner.vacuum_table`) consults that
registry; an unregistered reference is one vacuum would not protect.

The walk also holds the chunkno index to its coverage: once a table has
one, every committed version — live or archived — is reached through
it, and until it has one the table stays within a heap page (the index
is born before a row goes further; see :mod:`repro.core.chunks`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from repro.core.chunks import CHUNKNO, REF_PAYLOAD, ChunkStore
from repro.core.constants import CHUNK_SIZE
from repro.core.filesystem import VFSREF_TABLE
from repro.db.heap import TID_SIZE
from repro.db.keycodec import encode_key
from repro.db.snapshot import BootstrapSnapshot
from repro.errors import InversionError, TableError


@dataclass
class Corruption:
    """One detected inconsistency."""

    fileid: int
    chunkno: int | None
    kind: str       # 'misdirected', 'oversize', 'negative-chunkno',
                    # 'unreadable', 'size-mismatch', 'duplicate-chunk',
                    # 'bad-reference', 'dangling-reference',
                    # 'unregistered-reference', 'unindexed-version',
                    # 'unindexed-table'
    detail: str


@dataclass
class CheckReport:
    files_checked: int = 0
    chunks_checked: int = 0
    corruptions: list[Corruption] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.corruptions


class ConsistencyChecker:
    """Validates chunk tables against their self-identification tags
    and every chunk reference against the version it pins."""

    def __init__(self, fs) -> None:
        self.fs = fs

    @staticmethod
    def _flag(report: CheckReport, fileid: int, chunkno: int | None,
              kind: str, detail: str) -> None:
        report.corruptions.append(Corruption(fileid, chunkno, kind, detail))

    def check_file(self, fileid: int, report: CheckReport | None = None
                   ) -> CheckReport:
        """Validate every stored version of every chunk of one file,
        live heap and archive alike (time travel can reach any of
        them)."""
        report = report or CheckReport()
        db = self.fs.db
        flag = functools.partial(self._flag, report, fileid)
        try:
            store = ChunkStore(db, fileid, None)
        except TableError:
            flag(None, "unreadable", "no chunk table in the catalog")
            return report
        report.files_checked += 1
        try:
            heaps = [store.table.heap, db.archive_heap_for(store.table.name)]
            versions = [(heap, list(heap.scan_all_versions()))
                        for heap in filter(None, heaps)]
        except Exception as exc:
            flag(None, "unreadable", f"heap scan failed: {exc}")
            return report
        self._check_index(store, versions, flag)
        for xmin, (chunkno, selfid, data) in (
                (xmin, values) for _heap, rows in versions
                for _tid, xmin, _xmax, values in rows):
            report.chunks_checked += 1
            if chunkno < 0:
                flag(chunkno, "negative-chunkno", "chunk number below zero")
            if selfid < 0:
                # A by-reference row: its self-identification is the
                # pointer payload itself (source fileid + chunkno +
                # version xmin).
                self._check_reference(store, chunkno, selfid, data,
                                      db.tm.is_committed(xmin), flag)
                continue
            if selfid != fileid:
                flag(chunkno, "misdirected",
                     f"chunk tagged for file {selfid}, found in file "
                     f"{fileid}'s table")
            if len(data) > CHUNK_SIZE:
                flag(chunkno, "oversize",
                     f"chunk holds {len(data)} bytes > {CHUNK_SIZE}")
        # Exactly one visible version per chunk number: coalescing
        # dirty runs into batched writes must neither drop a chunk's
        # current version nor leave two versions visible at once.
        snapshot = BootstrapSnapshot(db.tm)
        visible_counts: dict[int, int] = {}
        for _t, row in store.table.scan(snapshot):
            visible_counts[row[0]] = visible_counts.get(row[0], 0) + 1
        for chunkno, count in sorted(visible_counts.items()):
            if count > 1:
                flag(chunkno, "duplicate-chunk",
                     f"{count} visible versions of one chunk")
        # The recorded size must be coverable by the visible chunks.
        # (Only the last chunk is required: interior holes are legal —
        # absent chunk numbers read back as zeros.)
        att_entry = self.fs.fileatt.get_entry(fileid, snapshot)
        if att_entry is not None:
            size = att_entry[1].size
            last = (size + CHUNK_SIZE - 1) // CHUNK_SIZE - 1
            if size > 0 and last not in visible_counts:
                flag(last, "size-mismatch",
                     f"size {size} implies chunk {last}, which has no "
                     f"visible version")
        return report

    def _check_index(self, store: ChunkStore, versions: list, flag) -> None:
        """The chunkno index covers what it must.  A table that has one
        reaches every committed version, live and archived alike, through
        the live index or the archive's (time travel reads the archive
        only through its index).  A version is its ``(chunkno, xmin,
        xmax)``: a crash inside a vacuum pass can leave archive copies of
        versions still live, and those are reached as the originals.  A
        table that has no index keeps its committed versions on heap
        page 0 — its index is born before a row goes further — unless
        the ablation is on.  Uncommitted versions are exempt: a crash
        can leave a heap page on the medium without the index pages of
        its transaction."""
        committed = self.fs.db.tm.is_committed
        name = store.table.name
        found = store.table._find_index(CHUNKNO)
        if found is None:
            (_live, rows), *_archive = versions
            spilled = sum(1 for tid, xmin, _xmax, _values in rows
                          if tid.pageno > 0 and committed(xmin))
            if spilled and self.fs.chunk_index:
                flag(None, "unindexed-table",
                     f"{name} has no chunkno index but {spilled} "
                     f"committed versions past heap page 0")
            return
        archive = self.fs.db.archive_index_for(name, CHUNKNO)
        btrees = [found[1], archive[1] if archive is not None else None]
        reached = set()
        for (_heap, rows), btree in zip(versions, btrees):
            indexed = set() if btree is None else {
                (key[:-TID_SIZE], tid) for key, tid in btree.scan_all()}
            reached.update((values[0], xmin, xmax)
                           for tid, xmin, xmax, values in rows
                           if (encode_key((values[0],)), tid) in indexed)
        for heap, rows in versions:
            for tid, xmin, xmax, values in rows:
                if committed(xmin) and (values[0], xmin, xmax) not in reached:
                    flag(values[0], "unindexed-version",
                         f"{heap.relname} {tid} is reached by no chunkno "
                         f"index")

    def _check_reference(self, store: ChunkStore, chunkno: int, selfid: int,
                         data: bytes, committed: bool, flag) -> None:
        """One by-reference row: the encoding, then — for a committed
        row; an aborted clone's rows are unreachable garbage that
        vacuum expunges — that the pinned version still exists and
        that the registry the vacuum guard reads covers it."""
        if len(data) != REF_PAYLOAD.size:
            faults = [f"reference payload is {len(data)} bytes, "
                      f"expected {REF_PAYLOAD.size}"]
        else:
            src_fid, src_chunkno, _src_xmin = REF_PAYLOAD.unpack(data)
            faults = [detail for wrong, detail in (
                (src_fid != -selfid,
                 f"selfid names source {-selfid}, payload names {src_fid}"),
                (src_fid == store.fileid, "self-referential chunk pointer"),
                (src_chunkno < 0,
                 f"negative source chunk number {src_chunkno}")) if wrong]
        for detail in faults:
            flag(chunkno, "bad-reference", detail)
        if faults or not committed:
            return
        try:
            store._resolve_ref(data, None)
        except TableError as exc:
            flag(chunkno, "dangling-reference", str(exc))
            return
        if not self._registered(src_fid, src_chunkno):
            flag(chunkno, "unregistered-reference",
                 f"reference to inv{src_fid} chunk {src_chunkno} has no "
                 f"vfsref registry row — vacuum would not protect it")

    def _registered(self, src_fid: int, chunkno: int) -> bool:
        """True when some ``vfsref`` row pins this source chunk.  The
        vacuum guard checks source coverage only (any registered claim
        pins the whole range for every reader), and registry rows are
        never deleted, so a flattened nested clone is covered by the
        original clone's registration even after the intermediate file
        is unlinked."""
        db = self.fs.db
        if not db.table_exists(VFSREF_TABLE):
            return False
        rows = db.table(VFSREF_TABLE).index_eq(
            ("src",), (src_fid,), BootstrapSnapshot(db.tm))
        return any(row[2] <= chunkno <= row[3] for _tid, row in rows)

    def check_all(self) -> CheckReport:
        """Validate every file reachable from the namespace."""
        report = CheckReport()
        snapshot = BootstrapSnapshot(self.fs.db.tm)
        naming = self.fs.db.table("naming")
        for _tid, (name, _parent, fileid) in naming.scan(snapshot):
            if fileid == self.fs.namespace.root_fileid:
                continue
            att = self.fs.fileatt.get_entry(fileid, snapshot)
            if att is None:
                self._flag(report, fileid, None, "unreadable",
                           f"naming entry {name!r} has no attribute row")
                continue
            if att[1].type == "directory":
                continue
            self.check_file(fileid, report)
        return report

    def raise_if_corrupt(self) -> None:
        report = self.check_all()
        if not report.clean:
            first = report.corruptions[0]
            raise InversionError(
                f"{len(report.corruptions)} corruptions; first: "
                f"file {first.fileid} chunk {first.chunkno} [{first.kind}]: "
                f"{first.detail}")

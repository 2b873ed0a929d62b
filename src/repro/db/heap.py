"""No-overwrite heap tables.

"When a record is updated or deleted, the original record is marked
invalid, but remains in place.  For updates, a new record containing
the new values is added to the database."  A heap file is a sequence of
slotted pages; inserts append (with ``xmin`` = inserting xid), deletes
stamp ``xmax`` in place, updates are delete+insert.  Every version of
every record remains until the vacuum cleaner archives it, which is
what makes time travel a pure visibility computation.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterator

from repro.db.buffer import BufferCache
from repro.db.page import HEADER_SIZE, PAGE_HEAP, PAGE_SIZE, SLOT_SIZE
from repro.db.snapshot import Snapshot
from repro.db.transactions import Transaction
from repro.db.tuples import (
    INVALID_XID,
    TUPLE_HEADER_SIZE,
    Schema,
    pack_record,
    pack_xmax_patch,
    unpack_header,
)
from repro.obs.registry import MetricSpec
from repro.obs.tracing import NO_SPAN
from repro.sim.cpu import CpuModel

METRICS = (
    MetricSpec("heap.rows_inserted", "counter", "rows",
               "Record versions appended per heap relation (inserts, "
               "update-new-versions, vacuum moves).",
               "repro.db.heap", ("relation",)),
)

#: page then slot, big-endian: packed TIDs sort as TIDs do, so the
#: (user key, TID) entries of a B-tree keep a key's versions in
#: insertion order (the heap only appends).  Stamped into every
#: database's ``devices.json`` (``repro.db.database.INDEX_KEY_FORMAT``).
TID_FMT = ">IH"
_TID_STRUCT = struct.Struct(TID_FMT)
TID_SIZE = _TID_STRUCT.size  # 6


@dataclass(frozen=True, order=True)
class TID:
    """A record's physical address: (page number, slot)."""

    pageno: int
    slot: int

    def pack(self) -> bytes:
        return _TID_STRUCT.pack(self.pageno, self.slot)

    @classmethod
    def unpack(cls, data, offset: int = 0) -> "TID":
        pageno, slot = _TID_STRUCT.unpack_from(data, offset)
        return cls(pageno, slot)


class HeapFile:
    """A schema-carrying no-overwrite heap."""

    def __init__(self, buffers: BufferCache, dev_name: str, relname: str,
                 schema: Schema, cpu: CpuModel | None = None) -> None:
        self.buffers = buffers
        self.dev_name = dev_name
        self.relname = relname
        self.schema = schema
        self.cpu = cpu

    # -- helpers ----------------------------------------------------------

    def npages(self) -> int:
        return self.buffers.switch.get(self.dev_name).nblocks(self.relname)

    def _page(self, pageno: int):
        return self.buffers.get_page(self.dev_name, self.relname, pageno)

    # -- write path ---------------------------------------------------------

    def insert(self, tx: Transaction, values: tuple | list) -> TID:
        """Append a new record stamped with ``tx``'s xid."""
        tx.require_active()
        tid = self.insert_raw(tx.xid, INVALID_XID, values)
        tx.wrote = True
        return tid

    def insert_raw(self, xmin: int, xmax: int, values: tuple | list) -> TID:
        """Append a record with an explicit header — used by the vacuum
        cleaner to move historical versions into the archive with their
        original transaction stamps intact."""
        if self.cpu is not None:
            self.cpu.tuple_pack()
        obs = self.buffers.obs
        if obs is not None:
            obs.heap_inserted(self.relname)
        record = pack_record(xmin, xmax, self.schema.pack(values))
        npages = self.npages()
        if npages > 0:
            pageno = npages - 1
            page = self._page(pageno)
            if page.fits(len(record)):
                slot = page.add_record(record)
                self.buffers.mark_dirty(self.dev_name, self.relname, pageno)
                return TID(pageno, slot)
        pageno, page = self.buffers.new_page(self.dev_name, self.relname, PAGE_HEAP)
        slot = page.add_record(record)
        self.buffers.mark_dirty(self.dev_name, self.relname, pageno)
        return TID(pageno, slot)

    def insert_many(self, tx: Transaction, rows: list) -> list[TID]:
        """Append many records stamped with ``tx``'s xid in one pass —
        the tail page is looked up once and carried across records, so
        a dense run of appends fills consecutive pages back-to-back and
        the resulting dirty pages coalesce into one batched device
        write at flush."""
        tx.require_active()
        obs = self.buffers.obs
        span = obs.span("heap.insert_many", relation=self.relname,
                        rows=len(rows)) \
            if obs is not None and obs.tracer.enabled else NO_SPAN
        with span:
            tids: list[TID] = []
            npages = self.npages()
            pageno = npages - 1 if npages > 0 else None
            page = self._page(pageno) if pageno is not None else None
            for values in rows:
                if self.cpu is not None:
                    self.cpu.tuple_pack()
                record = pack_record(tx.xid, INVALID_XID,
                                     self.schema.pack(values))
                if page is None or not page.fits(len(record)):
                    pageno, page = self.buffers.new_page(
                        self.dev_name, self.relname, PAGE_HEAP)
                slot = page.add_record(record)
                self.buffers.mark_dirty(self.dev_name, self.relname, pageno)
                tids.append(TID(pageno, slot))
        if obs is not None and tids:
            obs.heap_inserted(self.relname, len(tids))
        if tids:
            tx.wrote = True
        return tids

    def appends_past_page_0(self, rows: list) -> bool:
        """True when appending ``rows`` (as :meth:`insert_many` would)
        places a record past page 0.  Nothing is written; only page 0
        is read."""
        npages = self.npages()
        if npages > 1:
            return True
        free = self._page(0).free_space if npages else PAGE_SIZE - HEADER_SIZE
        for values in rows:
            free -= TUPLE_HEADER_SIZE + len(self.schema.pack(values)) + SLOT_SIZE
            if free < 0:
                return True
        return False

    def delete(self, tx: Transaction, tid: TID) -> None:
        """Mark the record at ``tid`` deleted by ``tx`` (stamp xmax).
        The record bytes stay in place — no-overwrite."""
        tx.require_active()
        page = self._page(tid.pageno)
        record = page.record_view(tid.slot)
        xmin, xmax = unpack_header(record)
        if xmax not in (INVALID_XID, tx.xid):
            # Under 2PL a conflicting committed deleter cannot coexist,
            # but an aborted deleter may have left its stamp: overwrite.
            pass
        offset, patch = pack_xmax_patch(tx.xid)
        page.patch_record(tid.slot, offset, patch)
        self.buffers.mark_dirty(self.dev_name, self.relname, tid.pageno)
        tx.wrote = True

    def update(self, tx: Transaction, tid: TID, values: tuple | list) -> TID:
        """Delete the old version and append the new one: "the old
        record is marked as deleted by the current transaction, and the
        new record is marked as inserted by the current transaction"."""
        self.delete(tx, tid)
        return self.insert(tx, values)

    # -- read path --------------------------------------------------------------

    def prefetch_pages(self, pagenos) -> None:
        """Pull a known set of heap pages into the buffer cache,
        batching each physically contiguous run into a single device
        read.  Unlike the cache's own miss-triggered read-ahead this is
        exact — callers that already resolved an index range know
        precisely which pages they are about to fetch, so nothing past
        the requested span is transferred."""
        npages = self.npages()
        run_start = run_len = 0
        for p in sorted(set(pagenos)):
            if not (0 <= p < npages):
                continue
            if run_len and p == run_start + run_len:
                run_len += 1
                continue
            if run_len:
                self.buffers.get_page_range(self.dev_name, self.relname,
                                            run_start, run_len)
            run_start, run_len = p, 1
        if run_len:
            self.buffers.get_page_range(self.dev_name, self.relname,
                                        run_start, run_len)

    def fetch(self, tid: TID, snapshot: Snapshot) -> tuple | None:
        """The record at ``tid`` if visible under ``snapshot``."""
        page = self._page(tid.pageno)
        if tid.slot >= page.nslots:
            return None
        record = page.record_view(tid.slot)
        xmin, xmax = unpack_header(record)
        if not snapshot.is_visible(xmin, xmax):
            return None
        if self.cpu is not None:
            self.cpu.tuple_unpack()
        return self.schema.unpack(record, TUPLE_HEADER_SIZE)

    def fetch_raw(self, tid: TID) -> tuple[int, int, tuple]:
        """(xmin, xmax, values) regardless of visibility — vacuum and
        tests use this."""
        page = self._page(tid.pageno)
        record = page.record_view(tid.slot)
        xmin, xmax = unpack_header(record)
        return xmin, xmax, self.schema.unpack(record, TUPLE_HEADER_SIZE)

    def scan(self, snapshot: Snapshot) -> Iterator[tuple[TID, tuple]]:
        """Yield every visible record in physical order."""
        for pageno in range(self.npages()):
            page = self._page(pageno)
            for slot in range(page.nslots):
                record = page.record_view(slot)
                xmin, xmax = unpack_header(record)
                if snapshot.is_visible(xmin, xmax):
                    if self.cpu is not None:
                        self.cpu.tuple_unpack()
                    yield TID(pageno, slot), self.schema.unpack(
                        record, TUPLE_HEADER_SIZE)

    def scan_all_versions(self) -> Iterator[tuple[TID, int, int, tuple]]:
        """Yield every record version: (tid, xmin, xmax, values)."""
        for pageno in range(self.npages()):
            page = self._page(pageno)
            for slot in range(page.nslots):
                record = page.record_view(slot)
                xmin, xmax = unpack_header(record)
                yield TID(pageno, slot), xmin, xmax, \
                    self.schema.unpack(record, TUPLE_HEADER_SIZE)

    def record_count_physical(self) -> int:
        """Total stored record versions (visible or not)."""
        return sum(self._page(p).nslots for p in range(self.npages()))

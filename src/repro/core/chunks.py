"""Decomposition of files into tables (Figure 1).

"For every file, a uniquely-named table is created…  When a user writes
a new data chunk to a file, a record is created consisting of the chunk
number, or index of this chunk into the file, and the data chunk…  The
name of the table storing data for a particular file is computed from
the file identifier in the naming table" — for file 23114 the table is
``inv23114``.  A B-tree on the chunk number speeds seeks, and because
the index covers *all* versions of every chunk, historical file reads
go through the same index.  A file that fits one heap page has nothing
to seek over, so the index is born only when the table outgrows page 0
(:meth:`ChunkStore._bear_index`); until then reads scan that page.

The reserved ``selfid`` column is the paper's "space has been reserved
in the tables storing file data" for self-identifying blocks (it holds
the file identifier, letting a consistency checker detect misdirected
writes).

:class:`ChunkStore` also implements write coalescing: "multiple small
sequential writes during a single transaction are coalesced to maximize
the size of the chunk stored in each database record".  Dirty chunks
accumulate in a per-open-file buffer and are pushed into the table in
chunk order on flush.
"""

from __future__ import annotations

import struct

from repro.core.constants import CHUNK_SIZE, COALESCE_CHUNK_LIMIT, MAX_CHUNKNO
from repro.db.heap import TID
from repro.db.snapshot import Snapshot
from repro.db.transactions import Transaction
from repro.db.tuples import Column, Schema
from repro.errors import FileTooLargeError, TableError
from repro.obs.registry import MetricSpec
from repro.obs.tracing import NO_SPAN

METRICS = (
    MetricSpec("chunks.range_reads", "counter", "ops",
               "Multi-chunk read_range calls (one index range scan "
               "instead of per-chunk probes).",
               "repro.core.chunks"),
    MetricSpec("chunks.flushes", "counter", "ops",
               "Coalescing-buffer flushes pushing dirty chunks into "
               "the data table.",
               "repro.core.chunks"),
    MetricSpec("chunks.chunks_written", "counter", "chunks",
               "Chunk versions written by those flushes (inserts and "
               "no-overwrite updates).",
               "repro.core.chunks"),
)

CHUNK_SCHEMA = Schema([
    Column("chunkno", "int4"),
    Column("selfid", "int8"),
    Column("data", "bytea"),
])
CHUNKNO = ("chunkno",)

#: by-reference chunk payload: (source fileid, source chunkno, source
#: version xmin).  A reference row stores ``-src_fileid`` in the selfid
#: column — a negative self identifier is impossible for a literal chunk
#: (oids are positive), so it doubles as the row discriminator without
#: touching the schema.
REF_PAYLOAD = struct.Struct("<qqq")
REF_CHAIN_LIMIT = 8


def encode_ref(src_fileid: int, src_chunkno: int, src_xmin: int) -> bytes:
    """Pack a by-reference chunk payload.  Pinning by the source
    version's ``xmin`` names one exact chunk version: immune to
    commit-time ties under group commit and valid even for a source
    written by the *same* transaction doing the clone."""
    return REF_PAYLOAD.pack(src_fileid, src_chunkno, src_xmin)


def chunk_table_name(fileid: int) -> str:
    """File identifier → data table name (``inv23114`` for 23114)."""
    return f"inv{fileid}"


class ChunkStore:
    """Chunk-level access to one file's data table."""

    def __init__(self, db, fileid: int, tx: Transaction | None) -> None:
        self.db = db
        self.fileid = fileid
        self.table = db.table(chunk_table_name(fileid), tx)
        self._indexed = self.table.has_index(CHUNKNO)
        #: False while an index-less handle may predate an index another
        #: transaction bore: one built before its transaction held the
        #: table's X lock.  Two-phase locking makes that lock the point
        #: after which any such birth is committed, so the handle
        #: re-reads the catalog there, once (:meth:`_lock`).
        self._current = self._indexed or (
            tx is not None and self.table.holds_exclusive(tx))
        self._dirty: dict[int, bytes] = {}
        #: chunkno → merged, sorted [start, end) byte ranges the owner
        #: explicitly wrote (as opposed to bytes carried over by the
        #: read-modify-write merge).  A revalidating flush overlays
        #: exactly these ranges onto the *current* committed chunk, so
        #: stale merge bases never clobber a concurrent writer's bytes.
        self._spans: dict[int, list[tuple[int, int]]] = {}
        #: sticky revalidation flag set by the owning handle once it
        #: learns another transaction committed under it — makes the
        #: coalescing buffer's *auto*-flushes revalidate too, not just
        #: the final explicit flush.
        self.stale = False
        #: source-table handles cached per store while resolving
        #: by-reference rows (a reflinked file read touches the same
        #: source table for every chunk).
        self._src_tables: dict[int, object] = {}

    def _find_chunk(self, chunkno: int, snapshot: Snapshot,
                    tx: Transaction | None):
        """(tid, row) of the visible version of one chunk, via the
        chunkno B-tree when present (a sequential scan otherwise — a
        file within one page, or the ablation configuration)."""
        if self._indexed:
            for tid, row in self.table.index_eq(CHUNKNO, (chunkno,),
                                                snapshot, tx):
                return tid, row
            return None
        for tid, row in self.table.scan(snapshot, tx):
            if row[0] == chunkno:
                return tid, row
        return None

    # -- by-reference resolution ------------------------------------------

    def _row_bytes(self, row, tx: Transaction | None = None) -> bytes:
        """A chunk row's bytes: the literal payload, or — for a
        by-reference row — the bytes of the pinned source version."""
        if row[1] >= 0:
            return row[2]
        return self._resolve_ref(row[2], tx)

    def _src_table(self, fileid: int, tx: Transaction | None):
        cached = self._src_tables.get(fileid)
        if cached is None:
            name = chunk_table_name(fileid)
            if not self.db.table_exists(name, tx):
                return None
            cached = self.db.table(name, tx)
            self._src_tables[fileid] = cached
        return cached

    def _resolve_ref(self, payload: bytes, tx: Transaction | None,
                     depth: int = 0) -> bytes:
        """Bytes of the exact source chunk version a reference pins.

        The pin names a version, not a snapshot: the lookup matches on
        the stored ``xmin`` and deliberately bypasses visibility — the
        pinned version may long since have been superseded in the
        source file, in which case vacuum has moved it to the archive
        relation (``a_inv<fid>``), where the original transaction
        stamps are preserved and the same match applies."""
        if depth > REF_CHAIN_LIMIT:
            raise TableError("chunk reference chain too deep")
        try:
            sfid, schunk, sxmin = REF_PAYLOAD.unpack(payload)
        except struct.error:
            raise TableError(
                f"malformed chunk reference in inv{self.fileid}") from None
        src = self._src_table(sfid, tx)
        if src is not None:
            found = src._find_index(CHUNKNO)
            if found is not None:
                _info, btree = found
                for tid in btree.search((schunk,)):
                    xmin, _xmax, values = src.heap.fetch_raw(tid)
                    if xmin == sxmin:
                        return self._ref_value(values, tx, depth)
            else:
                for _tid, xmin, _xmax, values in src.heap.scan_all_versions():
                    if values[0] == schunk and xmin == sxmin:
                        return self._ref_value(values, tx, depth)
        pair = self.db.archive_index_for(chunk_table_name(sfid), CHUNKNO)
        if pair is not None:
            aheap, abtree = pair
            for tid in abtree.search((schunk,)):
                xmin, _xmax, values = aheap.fetch_raw(tid)
                if xmin == sxmin:
                    return self._ref_value(values, tx, depth)
        else:
            aheap = self.db.archive_heap_for(chunk_table_name(sfid))
            if aheap is not None:
                for _tid, xmin, _xmax, values in aheap.scan_all_versions():
                    if values[0] == schunk and xmin == sxmin:
                        return self._ref_value(values, tx, depth)
        raise TableError(
            f"dangling chunk reference: inv{self.fileid} points at "
            f"inv{sfid} chunk {schunk} xmin {sxmin}, which no longer "
            f"exists in the live table or its archive")

    def _ref_value(self, values, tx: Transaction | None, depth: int) -> bytes:
        # Chains are flattened at clone time, so a reference resolving
        # to another reference means the source itself was a clone made
        # by older code or by hand — follow it defensively.
        if values[1] < 0:
            return self._resolve_ref(values[2], tx, depth + 1)
        return values[2]

    # -- DDL --------------------------------------------------------------

    @classmethod
    def create_table(cls, db, tx: Transaction, fileid: int,
                     device: str | None = None) -> None:
        """Create the per-file chunk table on the requested device — "a
        file is located on [a] particular device manager at creation.
        From that point on, accesses are device-transparent".  The table
        is born without its chunkno index (see :meth:`_bear_index`) and
        X-locked by its creator, so handles the creator opens on it are
        current from the start."""
        db.create_table(tx, chunk_table_name(fileid), CHUNK_SCHEMA,
                        device=device).lock_exclusive(tx)

    def _lock(self, tx: Transaction) -> None:
        """Take the table's X lock (write intent — see
        Table.lock_exclusive), and on the first one re-read the catalog
        if this handle may predate an index born under it."""
        self.table.lock_exclusive(tx)
        if not self._current:
            self._current = True
            self._refresh(tx)

    def _refresh(self, tx: Transaction) -> None:
        self.table = self.db.table(self.table.name, tx)
        self._indexed = self.table.has_index(CHUNKNO)

    def _before_append(self, tx: Transaction, rows: list) -> None:
        """Bear the chunkno index just before ``rows`` would put a
        record past heap page 0 — unless the Figure 3 ablation
        (``InversionFS.chunk_index = False``) says never.  A file whose
        first flush spans pages gets its index before any heap page is
        allocated, so its layout is what an index made at creation
        gives."""
        if self._indexed or not getattr(self.db, "chunk_index", True):
            return
        if self.table.heap.appends_past_page_0(rows):
            self._bear_index(tx)

    def _insert(self, tx: Transaction, rows: list) -> None:
        self._before_append(tx, rows)
        self.table.insert_many(tx, rows)

    def _bear_index(self, tx: Transaction) -> None:
        """Create the chunkno index inside ``tx``, under the X lock the
        writer holds, populated with every stored version.  An archive
        a vacuum made while the table had no index gets one too: time
        travel through an indexed table reads the archive only through
        its index."""
        self._refresh(tx)   # another handle of this transaction may have
        if self._indexed:   # borne it already
            return
        name = self.table.name
        self.table = self.db.create_index(tx, name, CHUNKNO)
        self._indexed = True
        if (self.db.archive_heap_for(name) is not None
                and self.db.archive_index_for(name, CHUNKNO) is None):
            self.db.create_index(tx, f"a_{name}", CHUNKNO)

    # -- reads -----------------------------------------------------------------

    def read_chunk(self, chunkno: int, snapshot: Snapshot,
                   tx: Transaction | None = None) -> bytes:
        """The chunk's bytes under ``snapshot`` (b'' for a hole).  The
        coalescing buffer shadows the table for the owning handle."""
        buffered = self._dirty.get(chunkno)
        if buffered is not None:
            return buffered
        found = self._find_chunk(chunkno, snapshot, tx)
        return self._row_bytes(found[1], tx) if found is not None else b""

    def read_range(self, lo: int, hi: int, snapshot: Snapshot,
                   tx: Transaction | None = None) -> dict[int, bytes]:
        """The visible bytes of every chunk in [lo, hi] (inclusive),
        resolved with one index range scan instead of a per-chunk probe.
        Absent chunk numbers are holes — callers substitute zeros.  The
        coalescing buffer shadows the table, exactly as in
        :meth:`read_chunk`."""
        if hi < lo:
            return {}
        obs = self.db.obs
        if obs is not None:
            obs.chunk_range_read()
        span = obs.span("chunks.read_range", fileid=self.fileid,
                        lo=lo, hi=hi) \
            if obs is not None and obs.tracer.enabled else NO_SPAN
        with span:
            chunks: dict[int, bytes] = {}
            if self._indexed:
                for _tid, row in self.table.index_range_newest(
                        CHUNKNO, (lo,), (hi,), snapshot, tx):
                    chunks[row[0]] = self._row_bytes(row, tx)
            else:
                for _tid, row in self.table.scan(snapshot, tx):
                    if lo <= row[0] <= hi and row[0] not in chunks:
                        # scan yields live versions then archive; keep the
                        # first visible one, matching _find_chunk.
                        chunks[row[0]] = self._row_bytes(row, tx)
            for chunkno, data in self._dirty.items():
                if lo <= chunkno <= hi:
                    chunks[chunkno] = data
            return chunks

    # -- writes -------------------------------------------------------------------

    def write_chunk(self, tx: Transaction, chunkno: int, data: bytes,
                    span: tuple[int, int] | None = None) -> None:
        """Buffer one chunk's new contents; auto-flushes when the
        coalescing buffer fills.  ``span`` is the [start, end) byte
        range the caller actually wrote within the chunk (None = the
        whole buffered content is authoritative, the default for
        callers that construct complete chunks)."""
        if chunkno > MAX_CHUNKNO:
            raise FileTooLargeError(
                f"chunk {chunkno} exceeds the maximum file size")
        if len(data) > CHUNK_SIZE:
            raise TableError(f"chunk of {len(data)} bytes exceeds CHUNK_SIZE")
        # Write intent: take X now, not at flush — see Table.lock_exclusive.
        self._lock(tx)
        self._dirty[chunkno] = bytes(data)
        self._add_span(chunkno, *(span if span is not None
                                  else (0, CHUNK_SIZE)))
        if len(self._dirty) >= COALESCE_CHUNK_LIMIT:
            self.flush(tx)

    def _add_span(self, chunkno: int, start: int, end: int) -> None:
        spans = self._spans.get(chunkno)
        if spans is None:
            self._spans[chunkno] = [(start, end)]
            return
        spans.append((start, end))
        spans.sort()
        merged = [spans[0]]
        for s, e in spans[1:]:
            ls, le = merged[-1]
            if s <= le:
                merged[-1] = (ls, max(le, e))
            else:
                merged.append((s, e))
        self._spans[chunkno] = merged

    def flush(self, tx: Transaction, revalidate: bool = False,
              committed_size: int | None = None) -> int:
        """Push buffered chunks into the table in chunk order.  Existing
        visible versions are updated (old record marked deleted, new
        appended — the no-overwrite rule); new chunks are inserted.
        Returns the number of chunks written.

        ``revalidate=True`` means the file was committed to by another
        transaction while the owner's handle was open, so the buffered
        contents may carry stale read-modify-write bytes: each chunk
        whose written spans do not cover the committed extent is
        re-merged against the *current* committed version first.
        ``committed_size`` (the caller's committed-size hint) bounds
        that extent so fully-covering writes skip the re-read."""
        if not self._dirty:
            return 0
        obs = self.db.obs
        span = obs.span("chunks.flush", fileid=self.fileid,
                        chunks=len(self._dirty)) \
            if obs is not None and obs.tracer.enabled else NO_SPAN
        with span:
            if revalidate or self.stale:
                self._revalidate_buffered(tx, committed_size)
            return self._flush_buffered(tx, obs)

    def _revalidate_buffered(self, tx: Transaction,
                             committed_size: int | None) -> None:
        """Re-merge buffered chunks whose non-written bytes could be
        stale.  The skip rule: if the owner's written spans cover
        ``[0, max(extent_bound, len(buffered)))`` — where the extent
        bound is how far the committed file reaches into this chunk —
        no committed byte survives the overwrite, so the buffered
        content already equals the correct merge and no read is paid.
        (A flush of same-length offset-0 overwrites, the contended
        benchmark pattern, stays charge-identical to the fast path.)"""
        snapshot = self.db.snapshot(tx)
        for chunkno in sorted(self._dirty):
            data = self._dirty[chunkno]
            spans = self._spans.get(chunkno)
            if committed_size is not None:
                bound = min(max(0, committed_size - chunkno * CHUNK_SIZE),
                            CHUNK_SIZE)
            else:
                bound = CHUNK_SIZE
            need = max(bound, len(data))
            if spans and spans[0][0] == 0 and spans[0][1] >= need:
                continue
            found = self._find_chunk(chunkno, snapshot, tx)
            current = self._row_bytes(found[1], tx) if found is not None \
                else b""
            base = bytearray(current)
            if len(base) < len(data):
                base.extend(bytes(len(data) - len(base)))
            for s, e in spans or ():
                base[s:e] = data[s:e]
            self._dirty[chunkno] = bytes(base)

    def _flush_buffered(self, tx: Transaction, obs) -> int:
        snapshot = self.db.snapshot(tx)
        order = sorted(self._dirty)
        existing = self._resolve_existing(order, snapshot, tx)
        written = 0
        # Runs of brand-new chunks (the sequential-write case: nothing
        # to supersede) go to the heap as one contiguous append, so the
        # dirty pages they produce coalesce into batched device writes
        # at commit.  Updates stay individual — each must first mark its
        # old version deleted.
        batch: list[tuple] = []
        for chunkno in order:
            row = (chunkno, self.fileid, self._dirty[chunkno])
            tid = existing.get(chunkno)
            if tid is None:
                batch.append(row)
            else:
                if batch:
                    self._insert(tx, batch)
                    batch = []
                self._before_append(tx, [row])
                self.table.update(tx, tid, row)
            written += 1
        if batch:
            self._insert(tx, batch)
        self._dirty.clear()
        self._spans.clear()
        if obs is not None:
            obs.chunk_flush(written)
        return written

    def _resolve_existing(self, chunknos, snapshot: Snapshot,
                          tx: Transaction | None):
        """chunkno → TID of the visible existing version, for every
        dirty chunk that has one.  A dense dirty set (the sequential
        write case) is resolved with one index range scan; a sparse one
        falls back to per-chunk probes so a couple of random writes in a
        huge file don't pay a scan of the whole span."""
        lo, hi = chunknos[0], chunknos[-1]
        if self._indexed and hi - lo + 1 > 4 * len(chunknos):
            snap = snapshot
            return {c: found[0] for c in chunknos
                    if (found := self._find_chunk(c, snap, tx)) is not None}
        existing: dict[int, TID] = {}
        wanted = set(chunknos)
        if self._indexed:
            for tid, row in self.table.index_range_newest(
                    CHUNKNO, (lo,), (hi,), snapshot, tx):
                if row[0] in wanted:
                    existing[row[0]] = tid
        else:
            # One scan for the whole set, keeping the first visible
            # version per chunk as _find_chunk does.
            for tid, row in self.table.scan(snapshot, tx):
                if row[0] in wanted:
                    existing.setdefault(row[0], tid)
        return existing

    def discard(self) -> None:
        """Drop buffered writes (abort path)."""
        self._dirty.clear()
        self._spans.clear()

    # -- by-reference structural ops --------------------------------------

    def clone_range(self, tx: Transaction, src_store: "ChunkStore",
                    src_lo: int, src_hi: int, dst_lo: int = 0) -> int:
        """Clone the source's visible chunks in ``[src_lo, src_hi]``
        (inclusive) into this table starting at ``dst_lo`` — by
        reference.  Each cloned chunk costs one pointer row (a 24-byte
        payload naming the exact source version); no chunk data moves.
        Holes in the source stay holes.  Returns the number of chunks
        referenced.

        Cloning a row that is itself a reference copies the pointer
        verbatim (chunkno remapped), so chains never grow: every
        reference points at a literal version.  Copy-on-write falls out
        of the no-overwrite rule — a later write to a cloned chunk
        supersedes the pointer row with a literal one, diverging the
        two files without touching the source."""
        if src_hi < src_lo:
            return 0
        if dst_lo + (src_hi - src_lo) > MAX_CHUNKNO:
            raise FileTooLargeError(
                "clone target range exceeds the maximum file size")
        self._lock(tx)
        snapshot = self.db.snapshot(tx)
        src = src_store
        pairs: list[tuple] = []
        if src._indexed:
            pairs = list(src.table.index_range_newest(
                CHUNKNO, (src_lo,), (src_hi,), snapshot, tx))
        else:
            seen: dict[int, tuple] = {}
            for tid, row in src.table.scan(snapshot, tx):
                if src_lo <= row[0] <= src_hi:
                    seen.setdefault(row[0], (tid, row))
            pairs = [seen[c] for c in sorted(seen)]
        batch: list[tuple] = []
        for tid, row in pairs:
            dst_chunkno = row[0] - src_lo + dst_lo
            if row[1] < 0:
                batch.append((dst_chunkno, row[1], row[2]))
            else:
                xmin = src.table.heap.fetch_raw(tid)[0]
                batch.append((dst_chunkno, -src.fileid,
                              encode_ref(src.fileid, row[0], xmin)))
        if not batch:
            return 0
        batch.sort(key=lambda r: r[0])
        self._insert(tx, batch)
        obs = self.db.obs
        if obs is not None:
            obs.chunk_flush(len(batch))
        return len(batch)

    def delete_from(self, tx: Transaction, first_chunkno: int) -> int:
        """Delete every visible chunk row numbered ``first_chunkno`` or
        higher (the truncate tail).  History is kept — the deleted
        versions remain readable through time travel, exactly like
        unlink."""
        self._lock(tx)
        snapshot = self.db.snapshot(tx)
        victims: list[TID] = []
        if self._indexed:
            for tid, _row in self.table.index_range_newest(
                    CHUNKNO, (first_chunkno,), None, snapshot, tx):
                victims.append(tid)
        else:
            for tid, row in self.table.scan(snapshot, tx):
                if row[0] >= first_chunkno:
                    victims.append(tid)
        for tid in victims:
            self.table.delete(tx, tid)
        for chunkno in list(self._dirty):
            if chunkno >= first_chunkno:
                del self._dirty[chunkno]
                self._spans.pop(chunkno, None)
        return len(victims)

    # -- whole-file helpers -------------------------------------------------------------

    def visible_chunk_count(self, snapshot: Snapshot,
                            tx: Transaction | None = None) -> int:
        """Number of visible chunks — one index range scan when the
        chunkno index exists, a heap scan only in the ablation
        configuration."""
        if self._indexed:
            return sum(1 for __ in self.table.index_range_newest(
                CHUNKNO, None, None, snapshot, tx))
        return sum(1 for __ in self.table.scan(snapshot, tx))

    def version_count(self) -> int:
        """Total stored chunk versions (current + superseded), before
        any vacuum — a measure of retained history."""
        return self.table.heap.record_count_physical()

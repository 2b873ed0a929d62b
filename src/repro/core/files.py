"""Open-file handles: byte-stream access over chunked storage.

"The Inversion file system provides a set of interface routines to
create, open, close, read, write, and seek on files.  Byte-oriented
operations are turned into operations on chunks by calculating the
chunk numbers of the affected chunks."

A handle opened with a ``timestamp`` is historical: it reads the file
exactly as it was at that moment and may not be written ("Historical
files may not be opened for writing").
"""

from __future__ import annotations

from repro.core.chunks import ChunkStore
from repro.core.constants import (
    CHUNK_SIZE,
    MAX_FILE_SIZE,
    SEEK_CUR,
    SEEK_END,
    SEEK_SET,
)
from repro.db.snapshot import Snapshot
from repro.db.transactions import Transaction
from repro.errors import (
    BadFileDescriptorError,
    FileTooLargeError,
    ReadOnlyFileError,
)

READ_WINDOW_CHUNKS = 512
"""Chunks resolved per index range scan in :meth:`FileHandle.read` —
bounds the size of one resolution batch (~4 MB of file data) so huge
reads don't materialize the whole chunk map at once."""


class FileHandle:
    """One open Inversion file."""

    def __init__(self, fs, fileid: int, tx: Transaction | None,
                 snapshot: Snapshot, writable: bool, att,
                 historical: bool = False) -> None:
        self.fs = fs
        self.fileid = fileid
        self.tx = tx
        self.snapshot = snapshot
        self.writable = writable and not historical
        self.historical = historical
        #: the fileatt row the open found (in ``snapshot``); the
        #: handle's own writes do not change it.
        self.att = att
        self._size = att.size
        self._pos = 0
        self._open = True
        self._wrote = False
        #: when True, flush() pushes chunks but leaves the fileatt
        #: size/mtime update to the caller (the client library batches
        #: attribute maintenance across its per-call transactions;
        #: see InversionClient._with_handle).
        self.defer_att = False
        self.att_dirty = False
        #: True once flush() actually wrote fileatt — lets the library
        #: know a pending size marker has been made durable.
        self.att_flushed = False
        self._atime_stamped = False
        self.store = ChunkStore(fs.db, fileid, tx)
        #: file data version at open — compared at flush to detect that
        #: another transaction committed under this handle, in which
        #: case ``_size`` (captured above at open) may be stale and the
        #: flush must reconcile instead of blindly publishing it.
        self._open_dv = fs.file_data_version(fileid)

    # -- state ------------------------------------------------------------

    def _require_open(self) -> None:
        if not self._open:
            raise BadFileDescriptorError(f"file {self.fileid} handle is closed")

    @property
    def size(self) -> int:
        return self._size

    def tell(self) -> int:
        return self._pos

    # -- seek ---------------------------------------------------------------

    def seek(self, offset: int, whence: int = SEEK_SET) -> int:
        """Position the handle.  64-bit offsets are the point of the
        paper's widened ``p_lseek`` ("the extra parameter … allows the
        user to specify a wider range of byte positions")."""
        self._require_open()
        if whence == SEEK_SET:
            new = offset
        elif whence == SEEK_CUR:
            new = self._pos + offset
        elif whence == SEEK_END:
            new = self._size + offset
        else:
            raise ValueError(f"bad whence {whence}")
        if new < 0:
            raise ValueError("negative seek position")
        if new > MAX_FILE_SIZE:
            raise FileTooLargeError(f"seek past the {MAX_FILE_SIZE}-byte limit")
        self._pos = new
        return new

    # -- read -------------------------------------------------------------------

    def read(self, nbytes: int = -1) -> bytes:
        """Read up to ``nbytes`` from the current position (−1 = to EOF)."""
        self._require_open()
        if (self.fs.track_atime and self.tx is not None
                and not self.historical and not self._atime_stamped):
            self.fs.fileatt.update(self.tx, self.fileid,
                                   atime=self.fs.db.clock.now())
            self._atime_stamped = True
        if nbytes < 0:
            nbytes = max(0, self._size - self._pos)
        nbytes = min(nbytes, max(0, self._size - self._pos))
        out = bytearray()
        remaining = nbytes
        while remaining > 0:
            # One range resolution covers a whole window of chunks: an
            # N-chunk sequential read costs O(1) index descents instead
            # of one equality probe per chunk.
            lo = self._pos // CHUNK_SIZE
            last = (self._pos + remaining - 1) // CHUNK_SIZE
            hi = min(last, lo + READ_WINDOW_CHUNKS - 1)
            chunks = self.store.read_range(lo, hi, self.snapshot, self.tx)
            for chunkno in range(lo, hi + 1):
                offset = self._pos % CHUNK_SIZE
                take = min(CHUNK_SIZE - offset, remaining)
                chunk = chunks.get(chunkno, b"")
                piece = chunk[offset:offset + take]
                if len(piece) < take:
                    piece = piece + bytes(take - len(piece))  # hole → zeros
                out += piece
                self._pos += take
                remaining -= take
        return bytes(out)

    # -- write -------------------------------------------------------------------

    def write(self, data: bytes) -> int:
        """Write at the current position, read-modify-writing partial
        chunks.  Returns the byte count written."""
        self._require_open()
        if not self.writable:
            raise ReadOnlyFileError(
                "historical/read-only handles may not be written")
        if self.tx is None:
            raise ReadOnlyFileError("writes require an active transaction")
        if self._pos + len(data) > MAX_FILE_SIZE:
            raise FileTooLargeError(
                f"write would exceed the {MAX_FILE_SIZE}-byte limit")
        if not data and self._pos > self._size:
            # No bytes past the end still grow the file to the position,
            # and a file ends in a chunk, never a hole: write the zeros
            # that fall in the final chunk.
            end = self._pos
            self._pos = max(self._size, (end - 1) // CHUNK_SIZE * CHUNK_SIZE)
            self.write(bytes(end - self._pos))
            return 0
        view = memoryview(data)
        # Only the first and last chunks of the span can be partial
        # (middle chunks are fully overwritten).  Resolve their existing
        # contents up front — one range scan when they are the same or
        # adjacent chunks, one probe each otherwise — instead of probing
        # the index from inside the copy loop.
        existing: dict[int, bytes] = {}
        if view.nbytes > 0:
            first = self._pos // CHUNK_SIZE
            end = self._pos + view.nbytes
            last = (end - 1) // CHUNK_SIZE
            partials = []
            if self._pos % CHUNK_SIZE != 0 or end < (first + 1) * CHUNK_SIZE:
                partials.append(first)
            if last != first and end % CHUNK_SIZE != 0:
                partials.append(last)
            if partials:
                if partials[-1] - partials[0] <= 1:
                    existing = self.store.read_range(
                        partials[0], partials[-1], self.snapshot, self.tx)
                else:
                    existing = {c: self.store.read_chunk(c, self.snapshot, self.tx)
                                for c in partials}
        first_chunk = True
        while view.nbytes > 0:
            chunkno = self._pos // CHUNK_SIZE
            offset = self._pos % CHUNK_SIZE
            take = min(CHUNK_SIZE - offset, view.nbytes)
            piece = bytes(view[:take])
            if offset == 0 and take == CHUNK_SIZE:
                chunk = piece
            else:
                old = existing.get(chunkno, b"")
                if len(old) < offset:
                    old = old + bytes(offset - len(old))
                chunk = old[:offset] + piece + old[offset + take:]
            self.store.write_chunk(self.tx, chunkno, chunk,
                                   span=(offset, offset + take))
            if first_chunk:
                first_chunk = False
                # The chunk-table X lock is now held, freezing the set
                # of commits that could have raced this handle; the
                # pre-lock read-modify-write bases above may be stale,
                # so mark the store for revalidating flushes.
                if self.fs.file_data_version(self.fileid) != self._open_dv:
                    self.store.stale = True
            self._pos += take
            view = view[take:]
        self._size = max(self._size, self._pos)
        self._wrote = True
        self.fs.note_data_write(self.fileid, self.tx)
        # Data changed; bump here (not only in fileatt.update) because
        # deferred-attribute writes flush without touching fileatt.
        lm = getattr(self.fs, "lease_manager", None)
        if lm is not None:
            lm.bump_oid(self.fileid, self.tx)
        return len(data)

    # -- flush / close --------------------------------------------------------------

    def flush(self) -> None:
        """Push coalesced chunks into the table and refresh the file's
        size/mtime attributes (unless attribute maintenance is
        deferred, in which case ``att_dirty`` tells the owner to
        reconcile later).

        When another transaction committed to this file since open
        (``_open_dv`` mismatch), the open-time ``_size`` may be stale —
        a fixed-length overwrite is still published on the unchanged
        fast path (its own size provably dominates, per the
        committed-size hint), but anything else reconciles against the
        current row under the write lock, and the chunk flush re-merges
        buffered contents whose written spans don't cover the committed
        extent.  This is the fix for ROADMAP open item 4: without it,
        two interleaved different-length overwrites (including
        ``write(b"")``, which takes no chunk locks at all) could commit
        a stale open-time size and shrink the other writer's data."""
        self._require_open()
        if not self._wrote:
            return
        fs = self.fs
        if self.defer_att:
            stale = fs.file_data_version(self.fileid) != self._open_dv
            hint = fs.fileatt.committed_size_hint(self.fileid) if stale \
                else None
            self.store.flush(self.tx, revalidate=stale, committed_size=hint)
            self.att_dirty = True
        else:
            # Lock the attribute row *before* reading or flushing:
            # deciding from a pre-lock read and locking inside
            # fileatt.update leaves a park window in which a concurrent
            # committer invalidates what was read.
            fs.fileatt.lock_entry(self.tx, self.fileid)
            stale = fs.file_data_version(self.fileid) != self._open_dv
            hint = fs.fileatt.committed_size_hint(self.fileid) if stale \
                else None
            self.store.flush(self.tx, revalidate=stale, committed_size=hint)
            if stale and (hint is None or hint > self._size):
                att = fs.fileatt.reconcile_size(
                    self.tx, self.fileid, self._size,
                    mtime=fs.db.clock.now())
                self._size = att.size
            else:
                fs.fileatt.update(self.tx, self.fileid, size=self._size,
                                  mtime=fs.db.clock.now())
            self.att_flushed = True
        self._wrote = False

    def close(self) -> None:
        if not self._open:
            return
        if self._wrote:
            self.flush()
        self._open = False
        self.fs._forget_handle(self)

    def __enter__(self) -> "FileHandle":
        return self

    def __exit__(self, exc_type, *exc: object) -> None:
        if exc_type is None:
            self.close()
        else:
            self.store.discard()
            self._open = False
            self.fs._forget_handle(self)

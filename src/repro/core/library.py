"""The Inversion client library (Figure 2).

"User files stored in Inversion may be opened, read, and written using
calls modeled on those supported for ordinary UNIX files.  The current
implementation requires programmers to link a special library" — this
module is that library::

    int p_creat(char *path, int mode)
    int p_open(char *fname, int mode, int timestamp)
    int p_close(int fd)
    int p_read(int fd, char *buf, int len)
    int p_write(int fd, char *buf, int len)
    int p_lseek(int fd, long offset_high, long offset_low, int whence)

plus ``p_begin()``, ``p_commit()``, ``p_abort()``.  "Neither POSTGRES
nor Inversion supports nested transactions, so a single application
program may only have one transaction active at any time."  Calls made
outside an explicit transaction auto-commit, one transaction per call —
exactly the behaviour whose cost Figure 3 exposes for file creation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.constants import O_CREAT, O_RDONLY, O_RDWR, SEEK_SET
from repro.core.filesystem import InversionFS
from repro.db.transactions import atomic
from repro.errors import BadFileDescriptorError, TransactionError


@dataclass
class _Descriptor:
    fileid: int
    path: str
    mode: int
    pos: int = 0
    timestamp: float | None = None
    handle: object = None  # live FileHandle while a transaction is open
    device: str | None = None
    #: largest size produced by auto-commit writes whose attribute
    #: update is still pending (reconciled at close/stat — the library
    #: batches attribute maintenance so each per-call transaction
    #: forces only the chunk page, the B-tree leaf, and the status
    #: record, matching the paper's measured per-write cost).
    pending_size: int | None = None
    #: the session's write count when ``handle`` was opened or last
    #: took the file's size (see :meth:`InversionClient._adopt_growth`).
    writes_seen: int = 0


@dataclass
class InversionClient:
    """One application's session with the file system."""

    fs: InversionFS
    _tx: object = None
    _fds: dict[int, _Descriptor] = field(default_factory=dict)
    _next_fd: int = 3  # homage to stdin/stdout/stderr
    #: xid of the most recent transaction this session ran under —
    #: client caches stamp chunk fills with it so later cache hits can
    #: be accounted to the transaction that paid for the device read.
    last_xid: int | None = None
    #: the fileatt row the last ``p_pread`` read under (its snapshot's),
    #: or None if it failed.
    pread_att: object = None
    #: writes made in transactions, counted, and per fileid the count
    #: and the handle of the open transaction's latest write to it.
    _writes: int = 0
    _last_write: dict = field(default_factory=dict)

    # -- transactions (p_begin / p_commit / p_abort) -----------------------

    def p_begin(self) -> None:
        if self._tx is not None:
            raise TransactionError(
                "only one transaction may be active at any time")
        self._tx = self.fs.begin()
        self.last_xid = self._tx.xid
        self._last_write = {}

    def p_commit(self) -> None:
        if self._tx is None:
            raise TransactionError("no transaction in progress")
        self._detach_handles()
        self.fs.commit(self._tx)
        self._tx = None

    def p_abort(self) -> None:
        if self._tx is None:
            raise TransactionError("no transaction in progress")
        self._drop_handles()
        self.fs.abort(self._tx)
        self._tx = None

    def p_prepare(self, gid: str) -> None:
        """2PC phase one: make the open transaction PREPARED under
        global id ``gid``.  After this the only legal next calls are
        :meth:`p_resolve` (the coordinator's decision) or nothing at
        all — an in-doubt transaction survives even disconnect."""
        if self._tx is None:
            raise TransactionError("no transaction in progress")
        self._detach_handles()
        self.fs.prepare(self._tx, gid)

    def p_resolve(self, commit: bool) -> None:
        """2PC phase two: commit or abort the prepared transaction."""
        if self._tx is None:
            raise TransactionError("no transaction in progress")
        if not commit:
            self._drop_handles()
        self.fs.finish_prepared(self._tx, commit)
        self._tx = None

    def _detach_handles(self) -> None:
        for desc in self._fds.values():
            if desc.handle is not None:
                desc.pos = desc.handle.tell()
                desc.handle.close()
                if desc.handle.att_flushed:
                    # The transactional close wrote fileatt; nothing
                    # remains to reconcile.
                    desc.pending_size = None
                desc.handle = None

    def _drop_handles(self) -> None:
        for desc in self._fds.values():
            desc.handle = None

    # -- auto-commit plumbing -------------------------------------------------

    def _run(self, op):
        """Run ``op(tx)`` inside the active transaction, or in a
        one-shot auto-commit transaction."""
        if self._tx is not None:
            self.last_xid = self._tx.xid
            return op(self._tx)
        with atomic(self.fs) as tx:
            self.last_xid = tx.xid
            return op(tx)

    def _desc(self, fd: int) -> _Descriptor:
        desc = self._fds.get(fd)
        if desc is None:
            raise BadFileDescriptorError(f"bad file descriptor {fd}")
        return desc

    def _with_handle(self, fd: int, op):
        """Run ``op(handle)`` against the descriptor's file, keeping the
        descriptor position coherent across auto-commit boundaries."""
        return self._on_handle(self._desc(fd), op)

    def _on_handle(self, desc: _Descriptor, op, reads: bool = False,
                   defer_att: bool = True, writes: bool = False):
        """:meth:`_with_handle`'s body: a descriptor is its path, reopened
        by name — in the open transaction once, or in each auto-commit.
        ``reads``: ``op`` reads, so inside a transaction the session's
        other written handles of the file are flushed first
        (:meth:`_publish_writes`) and the handle takes the size they
        grew it to (:meth:`_adopt_growth`).  ``writes``: ``op`` writes,
        which such a read then knows of.  ``defer_att=False``: an
        auto-commit write updates the file's size itself, leaving none
        pending."""
        if self._tx is not None:
            if reads and desc.timestamp is None:
                self._publish_writes(desc.path, desc.handle)
            if desc.handle is None or not desc.handle._open:
                desc.handle = self.fs.open(
                    desc.path, desc.mode & ~O_CREAT, tx=self._tx,
                    timestamp=desc.timestamp)
                desc.writes_seen = self._writes
                if desc.pending_size is not None:
                    # Un-reconciled auto-commit writes: the descriptor
                    # knows the real size even though fileatt lags.
                    desc.handle._size = max(desc.handle._size,
                                            desc.pending_size)
                desc.handle.seek(desc.pos, SEEK_SET)
            elif reads and desc.timestamp is None:
                self._adopt_growth(desc)
            handle = desc.handle
            result = op(handle)
            desc.pos = handle.tell()
            if writes:
                self._writes += 1
                self._last_write[handle.fileid] = (self._writes, handle)
            if desc.pending_size is not None and handle._wrote:
                # The transactional flush will reconcile fileatt; the
                # pending marker can only shrink the truth, so keep the
                # running maximum.
                desc.pending_size = max(desc.pending_size, handle._size)
            return result

        def run(tx):
            handle = self.fs.open(desc.path, desc.mode & ~O_CREAT, tx=tx,
                                  timestamp=desc.timestamp)
            handle.defer_att = defer_att
            if desc.pending_size is not None:
                handle._size = max(handle._size, desc.pending_size)
            try:
                handle.seek(desc.pos, SEEK_SET)
                result = op(handle)
                desc.pos = handle.tell()
                if handle._wrote or handle.att_dirty:
                    desc.pending_size = max(desc.pending_size or 0,
                                            handle._size)
                return result
            finally:
                handle.close()
        return self._run(run)

    def _publish_writes(self, path: str, reader=None) -> None:
        """Inside a transaction, before a read, stat or ``p_pread`` of
        ``path`` (through ``reader``, the descriptor's open handle, if
        any): flush the session's other written handles of the file it
        names, so the read finds their bytes and the size they grew it
        to — what it finds once their descriptors closed, and what a
        ``p_pwrite``, which closes its handle, leaves."""
        written = [desc.handle for desc in self._fds.values()
                   if desc.handle is not None and desc.handle is not reader
                   and desc.handle._open and desc.handle._wrote]
        if not written:
            return
        if reader is not None and reader._open:
            fileid = reader.fileid
        else:
            fileid = self.fs.namespace.try_resolve(
                path, self.fs._snap(self._tx), self._tx)
        for handle in written:
            if handle.fileid == fileid:
                handle.flush()

    def _adopt_growth(self, desc: _Descriptor) -> None:
        """Before a read through ``desc``'s open handle: if the session
        wrote the file through another handle (or a ``p_pwrite``) since
        this one opened, take the size the transaction sees — what a
        fresh descriptor would open with.  No other read pays for it."""
        handle = desc.handle
        last = self._last_write.get(handle.fileid)
        if last is None or last[1] is handle or last[0] <= desc.writes_seen:
            return
        desc.writes_seen = last[0]
        att = self.fs.fileatt.get(handle.fileid, self.fs.db.snapshot(self._tx),
                                  self._tx)
        handle._size = max(handle._size, att.size)

    def _reconcile_att(self, desc: _Descriptor) -> None:
        """Apply a pending size/mtime update left by auto-commit
        writes."""
        if desc.pending_size is None:
            return
        size = desc.pending_size
        desc.pending_size = None
        self._run(lambda tx: self.fs.fileatt.update(
            tx, desc.fileid, size=max(
                size, self.fs.fileatt.get(
                    desc.fileid, self.fs.db.snapshot(tx), tx).size),
            mtime=self.fs.db.clock.now()))

    # -- the Figure 2 interface -------------------------------------------------------

    def p_creat(self, path: str, mode: int = O_RDWR,
                device: str | None = None, owner: str = "root",
                ftype: str = "plain") -> int:
        """Create and open a file.  The paper's ``mode`` "encodes the
        device on which the file should reside at creation time"; the
        device rides in its own keyword argument here."""
        self._run(lambda tx: self.fs.creat(tx, path, owner=owner,
                                           ftype=ftype, device=device))
        return self.p_open(path, mode)

    def p_open(self, fname: str, mode: int = O_RDONLY,
               timestamp: float | None = None) -> int:
        """Open a file; ``timestamp`` requests the historical state —
        "the p_open call includes a parameter to specify the time for
        which the file should be viewed"."""
        def resolve(tx):
            return self.fs.resolve(fname, tx=tx, timestamp=timestamp)
        fileid = self._run(resolve)
        fd = self._next_fd
        self._next_fd += 1
        self._fds[fd] = _Descriptor(fileid, fname, mode, 0, timestamp)
        return fd

    def p_close(self, fd: int) -> None:
        desc = self._desc(fd)
        if desc.handle is not None and desc.handle._open:
            desc.handle.close()
        self._reconcile_att(desc)
        del self._fds[fd]

    def p_read(self, fd: int, length: int) -> bytes:
        return self._on_handle(self._desc(fd), lambda h: h.read(length),
                               reads=True)

    def p_write(self, fd: int, buf: bytes) -> int:
        return self._on_handle(self._desc(fd), lambda h: h.write(buf),
                               writes=True)

    def p_pread(self, path: str, offset: int, length: int) -> bytes:
        """Read ``length`` bytes of ``path`` at ``offset`` with no
        descriptor (NFS's READ): exactly the read that a descriptor
        opened ``O_RDONLY`` on ``path``, seeked to ``offset``, runs —
        the same open by path, seek and read, so the bytes and the
        errors are that descriptor's."""
        desc = _Descriptor(None, path, O_RDONLY, offset)
        self.pread_att = None

        def read(handle):
            data = handle.read(length)
            self.pread_att = handle.att
            return data
        try:
            return self._on_handle(desc, read, reads=True)
        finally:
            if desc.handle is not None:
                desc.handle.close()

    def p_pwrite(self, path: str, offset: int, data: bytes) -> int:
        """Write ``data`` to ``path`` at ``offset`` with no descriptor
        (NFS's WRITE): the open by path, seek, write and close that a
        descriptor opened ``O_RDWR`` on ``path`` runs, in the open
        transaction; outside one, one auto-commit that also writes the
        file's size, so it leaves none pending."""
        desc = _Descriptor(None, path, O_RDWR, offset)
        try:
            return self._on_handle(desc, lambda handle: handle.write(data),
                                   defer_att=False, writes=True)
        finally:
            if desc.handle is not None:
                desc.handle.close()

    def p_lseek(self, fd: int, offset_high: int, offset_low: int,
                whence: int = SEEK_SET) -> int:
        """64-bit seek: offset = (offset_high << 32) | offset_low — "the
        extra parameter to p_lseek allows the user to specify a wider
        range of byte positions"."""
        desc = self._desc(fd)
        offset = (offset_high << 32) | (offset_low & 0xFFFFFFFF)
        if desc.handle is not None and desc.handle._open:
            desc.pos = desc.handle.seek(offset, whence)
            return desc.pos
        if whence == SEEK_SET:
            desc.pos = offset
        else:
            # CUR/END need file state: do it through a handle.
            return self._with_handle(fd, lambda h: h.seek(offset, whence))
        return desc.pos

    # -- convenience entry points beyond Figure 2 -----------------------------------------

    def p_mkdir(self, path: str, owner: str = "root") -> None:
        self._run(lambda tx: self.fs.mkdir(tx, path, owner=owner))

    def p_unlink(self, path: str) -> None:
        self._run(lambda tx: self.fs.unlink(tx, path))

    def p_rmdir(self, path: str) -> None:
        self._run(lambda tx: self.fs.rmdir(tx, path))

    def p_rename(self, old: str, new: str) -> None:
        self._run(lambda tx: self.fs.rename(tx, old, new))

    def p_stat(self, path: str, timestamp: float | None = None):
        # Reconcile any pending attribute updates for open descriptors
        # on this path so stat sees current sizes.
        for desc in self._fds.values():
            if desc.path == path and desc.pending_size is not None:
                self._reconcile_att(desc)
        if self._tx is not None and timestamp is None:
            self._publish_writes(path)
        return self.fs.stat(path, tx=self._tx, timestamp=timestamp)

    def p_readdir(self, path: str, timestamp: float | None = None,
                  cookie: str | None = None, limit: int | None = None):
        """Directory listing.  With ``cookie``/``limit`` the call is
        paged: it returns ``(names, next_cookie)`` where ``names`` holds
        at most ``limit`` entries strictly after ``cookie`` and
        ``next_cookie`` is None once the listing is exhausted — the
        server never materializes more than one page."""
        if cookie is None and limit is None:
            return self.fs.readdir(path, tx=self._tx, timestamp=timestamp)
        return self.fs.readdir_page(path, tx=self._tx, timestamp=timestamp,
                                    cookie=cookie, limit=limit)

    # -- structural ops (the WTF-style by-reference surface) --------------------------

    def p_reflink(self, src: str, dst: str,
                  device: str | None = None) -> tuple[int, int]:
        """Copy ``src`` to ``dst`` by reference (chunk-pointer rows, no
        data movement).  Returns (chunks referenced, chunks
        materialized)."""
        return self._run(lambda tx: self.fs.reflink(tx, src, dst,
                                                    device=device))

    def p_concat(self, srcs, dst: str,
                 device: str | None = None) -> tuple[int, int]:
        """Concatenate ``srcs`` into new file ``dst`` by reference."""
        return self._run(lambda tx: self.fs.concat(tx, list(srcs), dst,
                                                   device=device))

    def p_slice(self, src: str, lo: int, hi: int, dst: str,
                device: str | None = None) -> tuple[int, int]:
        """Extract ``src[lo:hi]`` into new file ``dst`` by reference
        (``lo`` chunk-aligned; the partial tail chunk is materialized)."""
        return self._run(lambda tx: self.fs.slice(tx, src, lo, hi, dst,
                                                  device=device))

    def p_truncate(self, path: str, size: int) -> None:
        """Set a file's length (shrink deletes tail chunks, grow leaves
        a hole)."""
        for desc in self._fds.values():
            if desc.path == path and desc.pending_size is not None:
                self._reconcile_att(desc)
        self._run(lambda tx: self.fs.truncate(tx, path, size))
        for desc in self._fds.values():
            if desc.path == path:
                desc.pending_size = None
                if desc.handle is not None and desc.handle._open:
                    desc.handle._size = size

    def p_query(self, text: str) -> list[tuple]:
        """Run a POSTQUEL query over the file system (the 'query
        language monitor program')."""
        return self._run(lambda tx: self.fs.query(tx, text))

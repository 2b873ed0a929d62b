"""The Inversion file system.

:class:`InversionFS` is the paper's "small set of routines that are
compiled into the POSTGRES data manager": every file system operation
is carried out as database operations on the ``naming``, ``fileatt``
and per-file chunk tables, and therefore inherits transaction
protection, fine-grained time travel, instant crash recovery, typed
files, and query support from the data manager.

One database corresponds to one mount point: "all of the files stored
by Inversion in a single database are rooted at '/' in that database."
"""

from __future__ import annotations

from repro.core.chunks import ChunkStore, chunk_table_name
from repro.core.constants import (
    CHUNK_SIZE,
    O_CREAT,
    O_RDONLY,
    O_RDWR,
    O_WRONLY,
    TYPE_DIRECTORY,
    TYPE_PLAIN,
)
from repro.core.fileatt import FileAtt, FileAttributes
from repro.core.files import FileHandle
from repro.core.naming import Namespace, basename_dirname, split_path
from repro.db.database import Database
from repro.db.snapshot import AsOfSnapshot, BootstrapSnapshot, Snapshot
from repro.db.locks import EXCLUSIVE, SHARED
from repro.db.transactions import Transaction
from repro.db.tuples import Column, Schema
from repro.errors import (
    DirectoryNotEmptyError,
    FileExistsError_,
    FileNotFoundError_,
    InversionError,
    IsADirectoryError_,
    NotADirectoryError_,
    ReadOnlyFileError,
    StructuralOpError,
    TableError,
)


#: registry of by-reference clones: one row per clone op, recording
#: that chunk versions of ``src`` in ``[src_lo, src_hi]`` are reachable
#: from ``dst``.  Created lazily by the first clone in a database (so
#: databases that never reflink stay bit-identical to older layouts);
#: consulted by the vacuum cleaner before *discarding* history
#: (``keep_history=False``) — a pinned table falls back to archiving,
#: which keeps every referenced version resolvable forever.
VFSREF_TABLE = "vfsref"
VFSREF_SCHEMA = Schema([
    Column("src", "int8"),
    Column("dst", "int8"),
    Column("src_lo", "int4"),
    Column("src_hi", "int4"),
])
VFSREF_INDEXES = (("src",),)


class InversionFS:
    """A mounted Inversion file system over one database."""

    def __init__(self, db: Database, namespace: Namespace,
                 fileatt: FileAttributes) -> None:
        self.db = db
        self.namespace = namespace
        self.fileatt = fileatt
        self._handles: list[FileHandle] = []
        #: when True, the first read through a writable handle stamps
        #: the file's atime.  Off by default: it turns every reading
        #: transaction into a writing one (a status-file append and a
        #: forced fileatt page per commit), which the benchmark
        #: configuration would never tolerate.
        self.track_atime = False
        #: the server's :class:`~repro.cache.leases.LeaseManager`, if
        #: client caching is enabled (see :meth:`attach_leases`).
        self.lease_manager = None
        #: per-file committed data versions: fileid → count of commits
        #: that wrote the file this session.  Bumps are queued at write
        #: time and applied at the outcome point (same discipline as
        #: lease epochs), so an open handle can tell at flush whether
        #: anyone committed under it since it captured its open-time
        #: size — the trigger for the lost-update slow path.
        self._file_versions: dict[int, int] = {}
        self._pending_version_bumps: dict[int, set[int]] = {}
        add = getattr(db, "add_commit_listener", None)
        if add is not None:
            add(self._on_tx_outcome)
        self._register_metadata_functions()
        # Arm the vacuum guard (a free attribute set — the registry
        # probe happens inside the guard, so mounts that never vacuum
        # with keep_history=False pay nothing and stay cycle-identical
        # to older layouts).  Covers reattached databases whose clones
        # were registered in an earlier session.
        self._install_pin_check()

    @property
    def chunk_index(self) -> bool:
        """Ablation hook: False means no chunk table ever gets its
        chunkno B-tree (see the Figure 3 discussion — index maintenance
        is the stated cause of Inversion's creation slowdown).  Kept on
        the database, where every :class:`ChunkStore` reads it."""
        return getattr(self.db, "chunk_index", True)

    @chunk_index.setter
    def chunk_index(self, on: bool) -> None:
        self.db.chunk_index = on

    def note_data_write(self, fileid: int, tx: Transaction) -> None:
        """Queue a data-version bump for ``fileid`` under ``tx`` (every
        FileHandle.write calls this, zero-length writes included —
        those still commit an attribute row)."""
        self._pending_version_bumps.setdefault(tx.xid, set()).add(fileid)

    def _on_tx_outcome(self, xid: int, committed: bool) -> None:
        pending = self._pending_version_bumps.pop(xid, None)
        if not pending or not committed:
            return
        versions = self._file_versions
        for fileid in pending:
            versions[fileid] = versions.get(fileid, 0) + 1

    def file_data_version(self, fileid: int) -> int:
        return self._file_versions.get(fileid, 0)

    # -- construction ------------------------------------------------------

    @classmethod
    def mkfs(cls, db: Database) -> "InversionFS":
        """Initialize Inversion in a database: namespace, attribute
        table, root directory, and the built-in metadata functions —
        all in one transaction."""
        tx = db.begin()
        try:
            namespace = Namespace.bootstrap(db, tx)
            fileatt = FileAttributes.bootstrap(db, tx)
            fs = cls(db, namespace, fileatt)
            fs.fileatt.create(tx, namespace.root_fileid, "root", TYPE_DIRECTORY)
            fs._define_metadata_functions(tx)
            db.commit(tx)
            return fs
        except BaseException:
            db.abort(tx)
            raise

    @classmethod
    def attach(cls, db: Database) -> "InversionFS":
        """Mount an existing Inversion database."""
        namespace = Namespace.attach(db)
        return cls(db, namespace, FileAttributes(db))

    # -- leases ------------------------------------------------------------

    def attach_leases(self, manager) -> None:
        """Enable lease bookkeeping: mutations below bump object epochs
        (queued per transaction, emitted at the visibility point by
        :meth:`commit`/:meth:`abort`/:meth:`finish_prepared`)."""
        self.lease_manager = manager
        self.fileatt.on_mutate = manager.bump_oid

    def _flush_leases(self, tx: Transaction) -> None:
        lm = self.lease_manager
        if lm is not None:
            lm.flush_tx(tx.xid)

    # -- transactions ----------------------------------------------------------

    def begin(self) -> Transaction:
        return self.db.begin()

    def commit(self, tx: Transaction) -> None:
        """Commit, flushing any open handles written under ``tx``
        first so their coalesced chunks are part of the transaction."""
        for handle in list(self._handles):
            if handle.tx is tx and handle._open:
                handle.flush()
        self.db.commit(tx)
        # Notices go out only after the commit is visible: emitting at
        # mutation time would let another session re-cache the *old*
        # value between the notice and the commit.
        self._flush_leases(tx)

    def abort(self, tx: Transaction) -> None:
        for handle in list(self._handles):
            if handle.tx is tx and handle._open:
                handle.store.discard()
                handle._open = False
                self._forget_handle(handle)
        self.db.abort(tx)
        # Aborted bumps still flush — over-invalidation is always safe.
        self._flush_leases(tx)

    def prepare(self, tx: Transaction, gid: str) -> None:
        """2PC phase one: flush any open handles written under ``tx``
        (like :meth:`commit` would), then force the data pages and the
        ``P`` record.  The transaction keeps its locks until
        :meth:`finish_prepared` delivers the coordinator's decision."""
        for handle in list(self._handles):
            if handle.tx is tx and handle._open:
                handle.flush()
        self.db.prepare(tx, gid)

    def finish_prepared(self, tx: Transaction, commit: bool) -> None:
        """2PC phase two for a prepared transaction."""
        if not commit:
            for handle in list(self._handles):
                if handle.tx is tx and handle._open:
                    handle.store.discard()
                    handle._open = False
                    self._forget_handle(handle)
        self.db.finish_prepared(tx, commit)
        self._flush_leases(tx)

    # -- snapshots -----------------------------------------------------------------

    def _snap(self, tx: Transaction | None,
              timestamp: float | None = None) -> Snapshot:
        if timestamp is not None:
            return self.db.asof(timestamp)
        if tx is not None:
            return self.db.snapshot(tx)
        from repro.db.snapshot import BootstrapSnapshot
        return BootstrapSnapshot(self.db.tm)

    # -- path helpers ------------------------------------------------------------------

    def resolve(self, path: str, tx: Transaction | None = None,
                timestamp: float | None = None) -> int:
        return self.namespace.resolve(path, self._snap(tx, timestamp), tx)

    def exists(self, path: str, tx: Transaction | None = None,
               timestamp: float | None = None) -> bool:
        return self.namespace.try_resolve(
            path, self._snap(tx, timestamp), tx) is not None

    def _resolve_dir(self, path: str, snapshot: Snapshot,
                     tx: Transaction | None) -> int:
        fileid = self.namespace.resolve(path, snapshot, tx)
        att = self.fileatt.get(fileid, snapshot, tx)
        if att.type != TYPE_DIRECTORY:
            raise NotADirectoryError_(f"{path!r} is not a directory")
        return fileid

    # -- file creation -----------------------------------------------------------------

    def creat(self, tx: Transaction, path: str, owner: str = "root",
              ftype: str = TYPE_PLAIN, device: str | None = None) -> int:
        """Create a plain file: a naming entry, a fileatt entry, and the
        per-file chunk table (on ``device``), atomically within ``tx``."""
        if ftype == TYPE_DIRECTORY:
            raise IsADirectoryError_("use mkdir to create directories")
        snapshot = self.db.snapshot(tx)
        dirpath, name = basename_dirname(path)
        parentid = self._resolve_dir(dirpath, snapshot, tx)
        if self.namespace.lookup(parentid, name, snapshot, tx) is not None:
            raise FileExistsError_(f"{path!r} already exists")
        fileid = self.db.catalog.allocate_oid()
        self.namespace.add_entry(tx, parentid, name, fileid)
        self.fileatt.create(tx, fileid, owner, ftype)
        ChunkStore.create_table(self.db, tx, fileid, device)
        if self.lease_manager is not None:
            self.lease_manager.bump_name(path, tx)
        return fileid

    def mkdir(self, tx: Transaction, path: str, owner: str = "root") -> int:
        snapshot = self.db.snapshot(tx)
        dirpath, name = basename_dirname(path)
        parentid = self._resolve_dir(dirpath, snapshot, tx)
        if self.namespace.lookup(parentid, name, snapshot, tx) is not None:
            raise FileExistsError_(f"{path!r} already exists")
        fileid = self.db.catalog.allocate_oid()
        self.namespace.add_entry(tx, parentid, name, fileid)
        self.fileatt.create(tx, fileid, owner, TYPE_DIRECTORY)
        if self.lease_manager is not None:
            self.lease_manager.bump_name(path, tx)
        return fileid

    # -- open/close -----------------------------------------------------------------------

    def open(self, path: str, mode: int = O_RDONLY,
             tx: Transaction | None = None,
             timestamp: float | None = None,
             owner: str = "root", ftype: str = TYPE_PLAIN,
             device: str | None = None) -> FileHandle:
        """Open a file.  ``timestamp`` opens the historical version as
        of that moment (read-only).  ``O_CREAT`` creates the file if
        absent (requires ``tx``)."""
        wants_write = (mode & (O_WRONLY | O_RDWR)) != 0
        if timestamp is not None and wants_write:
            raise ReadOnlyFileError("historical files may not be opened for writing")
        if wants_write and tx is None:
            raise ReadOnlyFileError("writing requires an active transaction")
        snapshot = self._snap(tx, timestamp)
        fileid = self.namespace.try_resolve(path, snapshot, tx)
        if fileid is None:
            if mode & O_CREAT and tx is not None and timestamp is None:
                fileid = self.creat(tx, path, owner=owner, ftype=ftype,
                                    device=device)
            else:
                raise FileNotFoundError_(f"no such file: {path!r}")
        att = self.fileatt.get(fileid, snapshot, tx)
        if att.type == TYPE_DIRECTORY:
            raise IsADirectoryError_(f"{path!r} is a directory")
        handle = FileHandle(self, fileid, tx if timestamp is None else None,
                            snapshot, wants_write, att.size,
                            historical=timestamp is not None)
        self._handles.append(handle)
        return handle

    def open_by_id(self, fileid: int, mode: int = O_RDONLY,
                   tx: Transaction | None = None,
                   timestamp: float | None = None) -> FileHandle:
        """Open a file by identifier — the path used by large objects
        (BLOBs) and by functions executing inside the data manager."""
        wants_write = (mode & (O_WRONLY | O_RDWR)) != 0
        if timestamp is not None and wants_write:
            raise ReadOnlyFileError("historical files may not be opened for writing")
        if wants_write and tx is None:
            raise ReadOnlyFileError("writing requires an active transaction")
        snapshot = self._snap(tx, timestamp)
        att = self.fileatt.get(fileid, snapshot, tx)
        if att.type == TYPE_DIRECTORY:
            raise IsADirectoryError_(f"file {fileid} is a directory")
        handle = FileHandle(self, fileid, tx if timestamp is None else None,
                            snapshot, wants_write, att.size,
                            historical=timestamp is not None)
        self._handles.append(handle)
        return handle

    def read_file_by_id(self, fileid: int, snapshot: Snapshot) -> bytes:
        """Whole-file read under an arbitrary snapshot (used by
        file-type functions, which must honour time travel)."""
        att = self.fileatt.get(fileid, snapshot)
        store = ChunkStore(self.db, fileid, None)
        out = bytearray()
        from repro.core.constants import CHUNK_SIZE
        from repro.core.files import READ_WINDOW_CHUNKS
        nchunks = (att.size + CHUNK_SIZE - 1) // CHUNK_SIZE
        for lo in range(0, nchunks, READ_WINDOW_CHUNKS):
            hi = min(nchunks - 1, lo + READ_WINDOW_CHUNKS - 1)
            chunks = store.read_range(lo, hi, snapshot)
            for chunkno in range(lo, hi + 1):
                chunk = chunks.get(chunkno, b"")
                want = min(CHUNK_SIZE, att.size - chunkno * CHUNK_SIZE)
                if len(chunk) < want:
                    chunk = chunk + bytes(want - len(chunk))
                out += chunk[:want]
        return bytes(out)

    def _forget_handle(self, handle: FileHandle) -> None:
        try:
            self._handles.remove(handle)
        except ValueError:
            pass

    # -- removal --------------------------------------------------------------------------

    def unlink(self, tx: Transaction, path: str) -> None:
        """Remove a file.  Only the *current* naming and attribute
        records are deleted; chunk data and all history remain, which
        is why accidental deletions can be undone with time travel."""
        snapshot = self.db.snapshot(tx)
        dirpath, name = basename_dirname(path)
        parentid = self._resolve_dir(dirpath, snapshot, tx)
        fileid = self.namespace.lookup(parentid, name, snapshot, tx)
        if fileid is None:
            raise FileNotFoundError_(f"no such file: {path!r}")
        att = self.fileatt.get(fileid, snapshot, tx)
        if att.type == TYPE_DIRECTORY:
            raise IsADirectoryError_(f"{path!r} is a directory; use rmdir")
        self.namespace.remove_entry(tx, parentid, name)
        self.fileatt.remove(tx, fileid)
        if self.lease_manager is not None:
            self.lease_manager.bump_name(path, tx)

    def rmdir(self, tx: Transaction, path: str) -> None:
        snapshot = self.db.snapshot(tx)
        dirpath, name = basename_dirname(path)
        parentid = self._resolve_dir(dirpath, snapshot, tx)
        fileid = self.namespace.lookup(parentid, name, snapshot, tx)
        if fileid is None:
            raise FileNotFoundError_(f"no such directory: {path!r}")
        att = self.fileatt.get(fileid, snapshot, tx)
        if att.type != TYPE_DIRECTORY:
            raise NotADirectoryError_(f"{path!r} is not a directory")
        if any(True for __ in self.namespace.children(fileid, snapshot, tx)):
            raise DirectoryNotEmptyError(f"{path!r} is not empty")
        self.namespace.remove_entry(tx, parentid, name)
        self.fileatt.remove(tx, fileid)
        if self.lease_manager is not None:
            self.lease_manager.bump_name(path, tx)

    def rename(self, tx: Transaction, old_path: str, new_path: str) -> None:
        snapshot = self.db.snapshot(tx)
        old_dir, old_name = basename_dirname(old_path)
        new_dir, new_name = basename_dirname(new_path)
        old_parts = split_path(old_path)
        if split_path(new_dir)[:len(old_parts)] == old_parts:
            # POSIX EINVAL: the subtree would hang from nowhere.
            raise InversionError(f"cannot move {old_path!r} into its own "
                                 f"subtree {new_path!r}")
        old_parent = self._resolve_dir(old_dir, snapshot, tx)
        new_parent = self._resolve_dir(new_dir, snapshot, tx)
        self.namespace.rename_entry(tx, old_parent, old_name,
                                    new_parent, new_name)
        if self.lease_manager is not None:
            # Both names change meaning; clients prefix-drop cached
            # resolutions under each (a directory moves its subtree).
            self.lease_manager.bump_name(old_path, tx)
            self.lease_manager.bump_name(new_path, tx)

    # -- by-reference structural ops ----------------------------------------------------

    def _flush_open_handles(self, tx: Transaction,
                            fileid: int | None = None) -> None:
        """Flush buffered writes of open handles under ``tx`` so a
        structural op sees (and clones) what the transaction already
        wrote instead of racing its own coalescing buffers."""
        for handle in list(self._handles):
            if handle.tx is tx and handle._open and handle._wrote:
                if fileid is None or handle.fileid == fileid:
                    handle.flush()

    def _install_pin_check(self) -> None:
        if getattr(self.db, "history_pin_check", None) is None:
            self.db.history_pin_check = self._history_pinned

    def _history_pinned(self, table_name: str) -> bool:
        """True when chunk versions of ``table_name`` may be reachable
        by reference from another file — the vacuum cleaner then
        archives superseded versions even when asked to discard them
        (``keep_history=False``), so no reference ever dangles."""
        if not table_name.startswith("inv"):
            return False
        try:
            fileid = int(table_name[3:])
        except ValueError:
            return False
        if not self.db.table_exists(VFSREF_TABLE):
            return False
        table = self.db.table(VFSREF_TABLE)
        snapshot = BootstrapSnapshot(self.db.tm)
        for _tid, _row in table.index_eq(("src",), (fileid,), snapshot):
            return True
        return False

    def _register_clone(self, tx: Transaction, src_fileid: int,
                        dst_fileid: int, src_lo: int, src_hi: int) -> None:
        if not self.db.table_exists(VFSREF_TABLE, tx):
            self.db.create_table(tx, VFSREF_TABLE, VFSREF_SCHEMA,
                                 indexes=VFSREF_INDEXES)
        self._install_pin_check()
        self.db.table(VFSREF_TABLE, tx).insert(
            tx, (src_fileid, dst_fileid, src_lo, src_hi))

    def _clone_into(self, tx: Transaction, src_id: int, lo_byte: int,
                    hi_byte: int, dst_store: ChunkStore,
                    dst_byte: int) -> tuple[int, int]:
        """Clone source bytes ``[lo_byte, hi_byte)`` into ``dst_store``
        at ``dst_byte`` (both chunk-aligned).  Whole chunks go by
        reference; a trailing partial chunk is materialized — at most
        one chunk of data moves, and the result is byte-for-byte what a
        physical copy would have produced.  Returns
        ``(chunks_referenced, chunks_materialized)``."""
        src_store = ChunkStore(self.db, src_id, tx)
        dst_id = dst_store.fileid
        nbytes = hi_byte - lo_byte
        full, tail = divmod(nbytes, CHUNK_SIZE)
        src_lo = lo_byte // CHUNK_SIZE
        dst_lo = dst_byte // CHUNK_SIZE
        referenced = materialized = 0
        if full > 0:
            referenced = dst_store.clone_range(
                tx, src_store, src_lo, src_lo + full - 1, dst_lo)
            if referenced:
                self._register_clone(tx, src_id, dst_id,
                                     src_lo, src_lo + full - 1)
        if tail:
            snapshot = self.db.snapshot(tx)
            data = src_store.read_chunk(src_lo + full, snapshot, tx)[:tail]
            if len(data) < tail:
                data = data + bytes(tail - len(data))  # hole → zeros
            dst_store.write_chunk(tx, dst_lo + full, data)
            dst_store.flush(tx)
            materialized = 1
        return referenced, materialized

    def _ensure_tail_chunk(self, tx: Transaction, store: ChunkStore,
                           size: int) -> int:
        """Guarantee the file's last chunk has a visible version (the
        checker's size-mismatch invariant: interior holes are legal,
        a trailing hole is not).  Costs one index probe; writes one
        zero-filled chunk only when the tail really is a hole — e.g. a
        clone of a source whose final chunk was itself a hole."""
        if size == 0:
            return 0
        last = (size - 1) // CHUNK_SIZE
        snapshot = self.db.snapshot(tx)
        if store._find_chunk(last, snapshot, tx) is not None:
            return 0
        store.write_chunk(tx, last, bytes(size - last * CHUNK_SIZE))
        store.flush(tx)
        return 1

    def _resolve_source_file(self, path: str, snapshot: Snapshot,
                             tx: Transaction,
                             lock: str | None = None) -> tuple[int, FileAtt]:
        """Resolve a plain file, optionally two-phase-locking its chunk
        table first.  Structural ops read the source's size and chunk
        rows and bake them into the destination — without a lock a
        concurrent truncate or overwrite could slip between the size
        read and the clone, producing a state no serial order explains.
        Sources take ``SHARED`` (readers don't exclude each other);
        truncate takes ``EXCLUSIVE`` up front (it rewrites the boundary
        chunk it just read).  The attributes are read *after* the lock,
        so they describe the locked state."""
        fileid = self.namespace.resolve(path, snapshot, tx)
        if lock is not None and tx is not None:
            try:
                table = ChunkStore(self.db, fileid, tx).table
            except TableError:      # only a plain file has a chunk table
                att = self.fileatt.get(fileid, snapshot, tx)
                if att.type != TYPE_DIRECTORY:
                    raise
                raise IsADirectoryError_(f"{path!r} is a directory") from None
            self.db.locks.acquire(tx, ("rel", table.info.oid), lock)
        att = self.fileatt.get(fileid, snapshot, tx)
        if att.type == TYPE_DIRECTORY:
            raise IsADirectoryError_(f"{path!r} is a directory")
        return fileid, att

    def reflink(self, tx: Transaction, src_path: str, dst_path: str,
                device: str | None = None) -> tuple[int, int]:
        """Create ``dst_path`` as a by-reference copy of ``src_path``:
        O(chunks) pointer rows, zero data movement (one materialized
        chunk if the size is not chunk-aligned).  Copy-on-write: later
        writes to either file supersede only that file's rows."""
        self._flush_open_handles(tx)
        snapshot = self.db.snapshot(tx)
        src_id, att = self._resolve_source_file(src_path, snapshot, tx,
                                                lock=SHARED)
        dst_id = self.creat(tx, dst_path, owner=att.owner, ftype=att.type,
                            device=device)
        dst_store = ChunkStore(self.db, dst_id, tx)
        referenced, materialized = self._clone_into(
            tx, src_id, 0, att.size, dst_store, 0)
        materialized += self._ensure_tail_chunk(tx, dst_store, att.size)
        self.fileatt.update(tx, dst_id, size=att.size,
                            mtime=self.db.clock.now())
        self.note_data_write(dst_id, tx)
        return referenced, materialized

    def concat(self, tx: Transaction, src_paths, dst_path: str,
               device: str | None = None) -> tuple[int, int]:
        """Create ``dst_path`` as the concatenation of ``src_paths`` by
        reference.  Every source but the last must be chunk-aligned in
        size (otherwise chunk boundaries would shift and references
        could not apply)."""
        if not src_paths:
            raise FileNotFoundError_("concat requires at least one source")
        self._flush_open_handles(tx)
        snapshot = self.db.snapshot(tx)
        sources = [self._resolve_source_file(p, snapshot, tx, lock=SHARED)
                   for p in src_paths]
        for path, (_fid, att) in zip(src_paths[:-1], sources[:-1]):
            if att.size % CHUNK_SIZE:
                raise StructuralOpError(
                    f"concat source {path!r} size {att.size} is not "
                    f"chunk-aligned ({CHUNK_SIZE})")
        dst_id = self.creat(tx, dst_path, owner=sources[0][1].owner,
                            device=device)
        dst_store = ChunkStore(self.db, dst_id, tx)
        offset = referenced = materialized = 0
        for fid, att in sources:
            r, m = self._clone_into(tx, fid, 0, att.size, dst_store, offset)
            referenced += r
            materialized += m
            offset += att.size
        materialized += self._ensure_tail_chunk(tx, dst_store, offset)
        self.fileatt.update(tx, dst_id, size=offset,
                            mtime=self.db.clock.now())
        self.note_data_write(dst_id, tx)
        return referenced, materialized

    def slice(self, tx: Transaction, src_path: str, lo: int, hi: int,
              dst_path: str, device: str | None = None) -> tuple[int, int]:
        """Create ``dst_path`` holding ``src_path``'s bytes ``[lo, hi)``
        by reference.  ``lo`` must be chunk-aligned; ``hi`` is
        arbitrary (the final partial chunk is materialized)."""
        if lo % CHUNK_SIZE:
            raise StructuralOpError(
                f"slice start {lo} is not chunk-aligned ({CHUNK_SIZE})")
        self._flush_open_handles(tx)
        snapshot = self.db.snapshot(tx)
        src_id, att = self._resolve_source_file(src_path, snapshot, tx,
                                                lock=SHARED)
        if not (0 <= lo <= hi <= att.size):
            raise StructuralOpError(
                f"slice range [{lo}, {hi}) outside file of {att.size} bytes")
        dst_id = self.creat(tx, dst_path, owner=att.owner, device=device)
        dst_store = ChunkStore(self.db, dst_id, tx)
        referenced, materialized = self._clone_into(
            tx, src_id, lo, hi, dst_store, 0)
        materialized += self._ensure_tail_chunk(tx, dst_store, hi - lo)
        self.fileatt.update(tx, dst_id, size=hi - lo,
                            mtime=self.db.clock.now())
        self.note_data_write(dst_id, tx)
        return referenced, materialized

    def truncate(self, tx: Transaction, path: str, size: int) -> None:
        """Set a file's length.  Shrinking deletes the chunk rows past
        the boundary (their history stays time-travel readable, like
        unlink) and rewrites the boundary chunk literally; growing just
        updates the size — the gap reads back as zeros (a hole)."""
        if size < 0:
            raise StructuralOpError(f"negative truncate size {size}")
        self._flush_open_handles(tx)
        snapshot = self.db.snapshot(tx)
        fileid, att = self._resolve_source_file(path, snapshot, tx,
                                                lock=EXCLUSIVE)
        if size < att.size:
            store = ChunkStore(self.db, fileid, tx)
            boundary, keep = divmod(size, CHUNK_SIZE)
            if keep:
                data = store.read_chunk(boundary, snapshot, tx)[:keep]
                if len(data) < keep:
                    data = data + bytes(keep - len(data))
                store.delete_from(tx, boundary + 1)
                store.write_chunk(tx, boundary, data)
                store.flush(tx)
            else:
                store.delete_from(tx, boundary)
                # The new last chunk may be a hole; a trailing one is not.
                self._ensure_tail_chunk(tx, store, size)
        elif size > att.size:
            # Growing leaves a hole, except the new final chunk, which
            # is materialized (zero-extended from whatever the old tail
            # held) so the trailing-chunk invariant keeps holding.
            store = ChunkStore(self.db, fileid, tx)
            last = (size - 1) // CHUNK_SIZE
            tail_len = size - last * CHUNK_SIZE
            data = store.read_chunk(last, snapshot, tx)[:tail_len]
            if len(data) < tail_len:
                data = data + bytes(tail_len - len(data))
            store.write_chunk(tx, last, data)
            store.flush(tx)
        self.fileatt.update(tx, fileid, size=size, mtime=self.db.clock.now())
        self.note_data_write(fileid, tx)
        lm = self.lease_manager
        if lm is not None:
            lm.bump_oid(fileid, tx)

    # -- interrogation ------------------------------------------------------------------------

    def stat(self, path: str, tx: Transaction | None = None,
             timestamp: float | None = None) -> FileAtt:
        snapshot = self._snap(tx, timestamp)
        fileid = self.namespace.resolve(path, snapshot, tx)
        return self.fileatt.get(fileid, snapshot, tx)

    def readdir(self, path: str, tx: Transaction | None = None,
                timestamp: float | None = None) -> list[str]:
        return self.readdir_page(path, tx, timestamp)[0]

    def readdir_page(self, path: str, tx: Transaction | None = None,
                     timestamp: float | None = None,
                     cookie: str | None = None,
                     limit: int | None = None
                     ) -> tuple[list[str], str | None]:
        """One page of a directory listing: up to ``limit`` names
        strictly after ``cookie`` (None = from the start), in name
        order, plus the cookie for the next page (None at the end).
        The server materializes only the page, not the directory — the
        difference between a million-file ``readdir`` reply and a
        bounded one."""
        snapshot = self._snap(tx, timestamp)
        fileid = self._resolve_dir(path, snapshot, tx)
        names: list[str] = []
        for name, _fid in self.namespace.children(fileid, snapshot, tx,
                                                  cookie):
            names.append(name)
            if limit is not None and len(names) > limit:
                break
        if limit is not None and len(names) > limit:
            return names[:limit], names[limit - 1]
        return names, None

    def path_of(self, fileid: int, tx: Transaction | None = None,
                timestamp: float | None = None) -> str:
        return self.namespace.construct_path(fileid, self._snap(tx, timestamp), tx)

    def read_file(self, path: str, tx: Transaction | None = None,
                  timestamp: float | None = None) -> bytes:
        """Convenience: whole-file read."""
        with self.open(path, O_RDONLY, tx=tx, timestamp=timestamp) as f:
            return f.read()

    def write_file(self, tx: Transaction, path: str, data: bytes,
                   owner: str = "root", ftype: str = TYPE_PLAIN,
                   device: str | None = None) -> int:
        """Convenience: whole-file create-or-overwrite."""
        handle = self.open(path, O_RDWR | O_CREAT, tx=tx, owner=owner,
                           ftype=ftype, device=device)
        with handle as f:
            n = f.write(data)
        return n

    def set_file_type(self, tx: Transaction, path: str, ftype: str) -> None:
        """Assign a (defined) file type — "once this command has been
        issued, files may be assigned the new type"."""
        snapshot = self.db.snapshot(tx)
        if self.db.catalog.lookup_type(ftype, snapshot) is None \
                and ftype not in (TYPE_PLAIN, TYPE_DIRECTORY):
            from repro.errors import FileTypeError
            raise FileTypeError(f"type {ftype!r} has not been defined")
        fileid = self.namespace.resolve(path, snapshot, tx)
        self.fileatt.update(tx, fileid, ftype=ftype)

    # -- queries ----------------------------------------------------------------------------------

    def query(self, tx: Transaction, text: str) -> list[tuple]:
        """Ad hoc POSTQUEL over the file system.  The implicit range
        variable is the ``naming`` table, so the paper's simplified
        queries — ``retrieve (filename) where owner(file) = "mao"`` —
        run verbatim."""
        from repro.db.query.engine import QueryEngine
        return QueryEngine(self.db).execute(tx, text,
                                            default_relation="naming")

    # -- metadata functions -----------------------------------------------------------------------

    def _define_metadata_functions(self, tx: Transaction) -> None:
        """Catalog rows for the built-in metadata functions used by the
        paper's example queries: owner(file), filetype(file),
        size(file), dir(file), month_of(file)."""
        names = [
            ("owner", "text"), ("filetype", "text"), ("size", "int8"),
            ("dir", "text"), ("month_of", "text"), ("mtime_of", "time"),
            ("filename_of", "text"),
        ]
        for name, rettype in names:
            self.db.catalog.define_function(
                tx, name, "python", ["oid"], rettype, f"inv:{name}")

    def _register_metadata_functions(self) -> None:
        """Install the callables behind the catalog rows (the 'dynamic
        loader' registry is process-level and re-populated per mount)."""
        from repro.db.funcmgr import register_callable
        from repro.db.funcmgr import snapshot_aware

        @snapshot_aware
        def _owner(fileid, snapshot):
            return self.fileatt.get(fileid, snapshot).owner

        @snapshot_aware
        def _filetype(fileid, snapshot):
            return self.fileatt.get(fileid, snapshot).type

        @snapshot_aware
        def _size(fileid, snapshot):
            return self.fileatt.get(fileid, snapshot).size

        @snapshot_aware
        def _dir(fileid, snapshot):
            path = self.namespace.construct_path(fileid, snapshot)
            head, _sep, __tail = path.rpartition("/")
            return head or "/"

        @snapshot_aware
        def _month_of(fileid, snapshot):
            import time as _time
            mtime = self.fileatt.get(fileid, snapshot).mtime
            return _MONTHS[_time.gmtime(int(mtime)).tm_mon - 1]

        @snapshot_aware
        def _mtime_of(fileid, snapshot):
            return self.fileatt.get(fileid, snapshot).mtime

        @snapshot_aware
        def _filename_of(fileid, snapshot):
            return self.namespace.construct_path(fileid, snapshot)

        register_callable("inv:owner", _owner)
        register_callable("inv:filetype", _filetype)
        register_callable("inv:size", _size)
        register_callable("inv:dir", _dir)
        register_callable("inv:month_of", _month_of)
        register_callable("inv:mtime_of", _mtime_of)
        register_callable("inv:filename_of", _filename_of)

    def purge_history(self, path: str) -> object:
        """Discard a file's superseded chunk versions without archiving
        them — the per-file opt-out of history the paper describes for
        users "with no interest in maintaining history".  Time travel
        on this file's *data* before the purge point stops working;
        current contents are untouched."""
        from repro.core.chunks import chunk_table_name
        fileid = self.resolve(path)
        return self.db.vacuum(chunk_table_name(fileid), keep_history=False)

    # -- storage inspection ---------------------------------------------------------------------------

    def chunk_table_of(self, path: str, tx: Transaction | None = None) -> str:
        return chunk_table_name(self.resolve(path, tx))


_MONTHS = ("January", "February", "March", "April", "May", "June", "July",
           "August", "September", "October", "November", "December")

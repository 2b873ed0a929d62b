"""The transactional POSIX-flavored file API.

:class:`VFS` wraps any ``p_*`` client — in-process, remote, cached, or
sharded — behind the calls an application expects (open/read/write/
lseek/close, mkdir/rename/unlink/readdir/stat/truncate) and makes the
transaction boundary explicit: everything issued between
:meth:`VFS.begin` and :meth:`VFS.commit` is one atomic group, however
many files and directories it touches.  WTF (PAPERS.md) is the model:
transactional POSIX semantics for applications, plus O(1)
concatenation/slicing by pointer manipulation — here
:meth:`VFS.reflink`, :meth:`VFS.concat` and :meth:`VFS.slice`, which
ride :meth:`repro.core.chunks.ChunkStore.clone_range`.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.core.constants import O_CREAT, O_RDONLY, O_RDWR, SEEK_SET
from repro.errors import FileNotFoundError_
from repro.obs.registry import MetricSpec

METRICS = (
    MetricSpec("vfs.ops", "counter", "ops",
               "Calls issued through the transactional VFS surface "
               "(every public method counts one).",
               "repro.vfs.api"),
    MetricSpec("vfs.group_commits", "counter", "ops",
               "Commits that closed an explicit begin() group — "
               "multi-file atomic batches, as opposed to auto-committed "
               "single calls.",
               "repro.vfs.api"),
    MetricSpec("vfs.reflinks", "counter", "ops",
               "By-reference structural ops (reflink, concat, slice).",
               "repro.vfs.api"),
    MetricSpec("vfs.chunks_referenced", "counter", "chunks",
               "Chunks cloned as pointer rows by structural ops — "
               "each one a ~24-byte metadata write instead of a chunk "
               "copy.",
               "repro.vfs.api"),
    MetricSpec("vfs.chunks_materialized", "counter", "chunks",
               "Chunks structural ops had to copy physically "
               "(unaligned tails, and cross-shard fallbacks).",
               "repro.vfs.api"),
    MetricSpec("vfs.readdir_pages", "counter", "ops",
               "Paged readdir requests (bounded listing pages instead "
               "of whole-directory replies).",
               "repro.vfs.api"),
)

DEFAULT_READDIR_PAGE = 512


class VFS:
    """A transactional POSIX-flavored session over one ``p_*`` client.

    The client supplies the wire (and the sharding/caching behaviour);
    the VFS supplies the application surface and the multi-file
    transaction discipline.  One VFS = one session = at most one open
    transaction.

    The VFS owns its session's transaction boundary: groups are opened
    with :meth:`begin` / :meth:`transaction`, and a call that is several
    ``p_*`` calls underneath (:meth:`write_file`) opens its own
    transaction when no group is open.  A caller who opened a
    transaction on ``client`` behind the VFS's back gets the library's
    "only one transaction may be active" error from such a call, not a
    silent second path."""

    def __init__(self, client, obs=None) -> None:
        self.client = client
        self._in_group = False
        self.ops = 0
        self.group_commits = 0
        self.reflinks = 0
        self.chunks_referenced = 0
        self.chunks_materialized = 0
        self.readdir_pages = 0
        if obs is not None:
            obs.bind_vfs(self)

    # -- transactions -----------------------------------------------------

    def begin(self) -> None:
        """Open an explicit transaction: every call until ``commit()``
        (or ``abort()``) becomes one atomic group."""
        self.ops += 1
        self.client.p_begin()
        self._in_group = True

    def commit(self) -> None:
        self.ops += 1
        self.client.p_commit()
        if self._in_group:
            self._in_group = False
            self.group_commits += 1

    def abort(self) -> None:
        self.ops += 1
        self._in_group = False
        self.client.p_abort()

    @contextmanager
    def transaction(self):
        """``with vfs.transaction(): ...`` — commit on success, abort
        on any exception.  The idiom for atomic multi-file groups."""
        self.begin()
        try:
            yield self
        except BaseException:
            self.abort()
            raise
        self.commit()

    # -- file descriptors -------------------------------------------------

    def open(self, path: str, mode: int = O_RDONLY,
             timestamp: float | None = None,
             device: str | None = None) -> int:
        """Open (optionally create, with ``O_CREAT``) a file; returns a
        descriptor.  ``timestamp`` opens the historical version."""
        self.ops += 1
        if mode & O_CREAT:
            try:
                return self.client.p_open(path, mode & ~O_CREAT,
                                          timestamp)
            except FileNotFoundError_:
                return self.client.p_creat(path, mode & ~O_CREAT,
                                           device=device)
        return self.client.p_open(path, mode, timestamp)

    def read(self, fd: int, nbytes: int) -> bytes:
        self.ops += 1
        return self.client.p_read(fd, nbytes)

    def write(self, fd: int, data: bytes) -> int:
        self.ops += 1
        return self.client.p_write(fd, data)

    def lseek(self, fd: int, offset: int, whence: int = SEEK_SET) -> int:
        self.ops += 1
        return self.client.p_lseek(fd, offset >> 32,
                                   offset & 0xFFFFFFFF, whence)

    def close(self, fd: int) -> None:
        self.ops += 1
        self.client.p_close(fd)

    # -- namespace --------------------------------------------------------

    def mkdir(self, path: str, owner: str = "root") -> None:
        self.ops += 1
        self.client.p_mkdir(path, owner=owner)

    def rename(self, old: str, new: str) -> None:
        self.ops += 1
        self.client.p_rename(old, new)

    def unlink(self, path: str) -> None:
        self.ops += 1
        self.client.p_unlink(path)

    def rmdir(self, path: str) -> None:
        self.ops += 1
        self.client.p_rmdir(path)

    def stat(self, path: str, timestamp: float | None = None):
        self.ops += 1
        return self.client.p_stat(path, timestamp)

    def exists(self, path: str) -> bool:
        self.ops += 1
        try:
            self.client.p_stat(path)
            return True
        except FileNotFoundError_:
            return False

    def readdir(self, path: str, timestamp: float | None = None) -> list[str]:
        """The full (sorted) listing in one call — fine for small
        directories; use :meth:`iterdir` for large ones."""
        self.ops += 1
        return self.client.p_readdir(path, timestamp)

    def readdir_page(self, path: str, cookie: str | None = None,
                     limit: int = DEFAULT_READDIR_PAGE,
                     timestamp: float | None = None
                     ) -> tuple[list[str], str | None]:
        """One bounded page of a listing: (names after ``cookie``,
        next cookie or None)."""
        self.ops += 1
        self.readdir_pages += 1
        return self.client.p_readdir(path, timestamp,
                                     cookie=cookie, limit=limit)

    def iterdir(self, path: str, page_size: int = DEFAULT_READDIR_PAGE,
                timestamp: float | None = None):
        """Iterate a directory in pages — a million-file listing never
        materializes more than ``page_size`` names in one reply."""
        cookie = None
        while True:
            names, cookie = self.readdir_page(path, cookie, page_size,
                                              timestamp)
            yield from names
            if cookie is None:
                return

    # -- structural (by-reference) ops ------------------------------------

    def _structural(self, verb: str, *args) -> tuple[int, int]:
        self.ops += 1
        self.reflinks += 1
        r, m = getattr(self.client, verb)(*args)
        self.chunks_referenced += r
        self.chunks_materialized += m
        return r, m

    def reflink(self, src: str, dst: str,
                device: str | None = None) -> tuple[int, int]:
        """Copy ``src`` to new file ``dst`` by reference: chunk-pointer
        rows, no data movement, copy-on-write afterwards.  Returns
        (chunks referenced, chunks materialized)."""
        return self._structural("p_reflink", src, dst, device)

    def concat(self, srcs, dst: str,
               device: str | None = None) -> tuple[int, int]:
        """Concatenate ``srcs`` into new file ``dst`` by reference
        (every source but the last must be chunk-aligned in size)."""
        return self._structural("p_concat", list(srcs), dst, device)

    def slice(self, src: str, lo: int, hi: int, dst: str,
              device: str | None = None) -> tuple[int, int]:
        """Extract ``src[lo:hi]`` into new file ``dst`` by reference
        (``lo`` chunk-aligned; the partial tail is materialized)."""
        return self._structural("p_slice", src, lo, hi, dst, device)

    def truncate(self, path: str, size: int) -> None:
        self.ops += 1
        self.client.p_truncate(path, size)

    # -- whole-file conveniences ------------------------------------------

    def read_file(self, path: str, timestamp: float | None = None) -> bytes:
        fd = self.open(path, O_RDONLY, timestamp=timestamp)
        try:
            size = self.client.p_stat(path, timestamp).size
            return self.read(fd, size) if size else b""
        finally:
            self.close(fd)

    def write_file(self, path: str, data: bytes,
                   device: str | None = None) -> int:
        """Create ``path`` if need be and write ``data`` at its start,
        atomically: inside a group as part of it, outside one as a
        transaction of its own — after a crash or an exception the path
        is as it was, never created and empty."""
        own = not self._in_group
        if own:
            self.client.p_begin()
        try:
            fd = self.open(path, O_RDWR | O_CREAT, device=device)
            try:
                written = self.write(fd, data) if data else 0
            finally:
                self.close(fd)
        except BaseException:
            if own:
                self.client.p_abort()
            raise
        if own:
            self.client.p_commit()
        return written

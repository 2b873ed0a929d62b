"""NFS access to Inversion — the paper's stated next step, built.

"In the near term, we plan to provide NFS access to Inversion.  In
order to do so, we will be forced to support the standard interfaces
for creating, opening, and seeking on files.  We plan to do so, but to
provide new fnctl() support to provide access to time travel and very
large files.  However, we are unsure how to support transactions via
NFS.  The NFS protocol makes every operation an atomic transaction…
We are most likely to follow the protocol specification, and to provide
no multi-operation transaction protection for Inversion files accessed
via NFS."

:class:`InversionNFSBridge` follows exactly that design:

- it speaks the same operation set as :class:`repro.nfs.server.NFSServer`
  (lookup/create/getattr/read/write/remove), so the unmodified
  :class:`repro.nfs.client.NFSClient` can mount Inversion;
- every operation runs in its own transaction (the protocol's
  every-op-is-atomic rule) — no ``p_begin``/``p_commit`` is exposed;
- ``fcntl_set_timestamp`` is the promised fnctl extension: it pins a
  file handle to a historical instant, after which reads and getattr
  return the past ("an NFS server could manage time travel by …
  passing dates along to the database system for processing", as
  [ROOM92] explored);
- file sizes beyond FFS's 4 GB work, because the backing store is
  Inversion (``fcntl`` large files need no special casing at all).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.constants import O_RDONLY, O_RDWR
from repro.core.filesystem import InversionFS
from repro.db.transactions import atomic
from repro.errors import NfsError, ReadOnlyFileError
from repro.nfs.server import NFS_MAX_TRANSFER, NfsAttr


@dataclass
class InversionNFSBridge:
    """A stateless-NFS face on an Inversion file system."""

    fs: InversionFS
    #: the fnctl extension's per-handle time-travel pins.  (Strictly
    #: this is soft state; losing it on a server reboot degrades to
    #: present-time reads, which is NFS-compatible behaviour.)
    _timestamps: dict[int, float] = field(default_factory=dict)

    # -- helpers -----------------------------------------------------------

    def _dispatch_cost(self) -> None:
        if self.fs.db.cpu is not None:
            self.fs.db.cpu.rpc_dispatch()

    def _auto(self, op):
        """Run ``op(tx)`` as its own transaction — the NFS rule."""
        with atomic(self.fs) as tx:
            return op(tx)

    def _timestamp_for(self, fh: int) -> float | None:
        return self._timestamps.get(fh)

    # -- the protocol operations ------------------------------------------------

    def nfs_lookup(self, path: str) -> int:
        self._dispatch_cost()
        try:
            return self.fs.resolve(path)
        except Exception as exc:
            raise NfsError(f"lookup failed: {exc}") from exc

    def nfs_create(self, path: str) -> int:
        self._dispatch_cost()
        return self._auto(lambda tx: self.fs.creat(tx, path))

    def nfs_getattr(self, fh: int) -> NfsAttr:
        self._dispatch_cost()
        snapshot = self.fs._snap(None, self._timestamp_for(fh))
        att = self.fs.fileatt.get(fh, snapshot)
        return NfsAttr(ino=fh, size=att.size)

    def nfs_read(self, fh: int, offset: int, nbytes: int) -> bytes:
        if nbytes > NFS_MAX_TRANSFER:
            raise NfsError(f"read of {nbytes} exceeds the 8 KB NFS transfer")
        self._dispatch_cost()
        timestamp = self._timestamp_for(fh)
        handle = self.fs.open_by_id(fh, O_RDONLY, timestamp=timestamp)
        try:
            handle.seek(offset)
            return handle.read(nbytes)
        finally:
            handle.close()

    def nfs_write(self, fh: int, offset: int, data: bytes) -> int:
        if len(data) > NFS_MAX_TRANSFER:
            raise NfsError(f"write of {len(data)} exceeds the 8 KB NFS transfer")
        if fh in self._timestamps:
            raise ReadOnlyFileError(
                "handle is pinned to a historical instant; writes refused")
        self._dispatch_cost()

        def op(tx):
            handle = self.fs.open_by_id(fh, O_RDWR, tx=tx)
            with handle:
                handle.seek(offset)
                return handle.write(data)
        return self._auto(op)

    def nfs_remove(self, path: str) -> None:
        self._dispatch_cost()
        self._auto(lambda tx: self.fs.unlink(tx, path))

    # -- the promised fnctl extensions --------------------------------------------

    def fcntl_set_timestamp(self, fh: int, timestamp: float | None) -> None:
        """Pin (or with None, unpin) a handle to a historical instant.
        Subsequent reads and getattr through the handle see the file as
        of that time; writes are refused."""
        if timestamp is None:
            self._timestamps.pop(fh, None)
        else:
            self._timestamps[fh] = float(timestamp)

    def fcntl_get_timestamp(self, fh: int) -> float | None:
        return self._timestamps.get(fh)

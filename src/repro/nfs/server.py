"""A stateless NFS server ([SAND85]).

"To guarantee that NFS servers remain stateless, NFS must force every
write to stable storage synchronously" — the defining cost rule of the
baseline.  With the PRESTOserve board (an
:class:`~repro.sim.nvram.NvramCache`: "1 MByte of battery-backed RAM and
driver software to cache NFS writes in non-volatile memory"), a write is
stable once it lands on the board, and so is the small inode update
describing it; without it, every write (and the inode update) is forced
to disk before the reply — which is why the paper notes
"Inversion should have much better performance than NFS without
non-volatile RAM".

Handles are inode numbers (a stateless server keeps no open-file
state).  The server performs no readahead of its own; client-side
biod pipelining is modelled in :mod:`repro.nfs.client`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import NfsError
from repro.nfs.ffs import FastFileSystem, Inode
from repro.sim.cpu import CpuModel
from repro.sim.disk import BLOCK_SIZE
from repro.sim.nvram import NvramCache

NFS_MAX_TRANSFER = 8192
"""NFS v2 transfer-size ceiling — large client requests are split."""


@dataclass
class NfsAttr:
    ino: int
    size: int


class NFSServer:
    """The NFS protocol operations the benchmark exercises."""

    def __init__(self, ffs: FastFileSystem,
                 nvram: NvramCache | None = None,
                 cpu: CpuModel | None = None) -> None:
        self.ffs = ffs
        self.nvram = nvram
        self.cpu = cpu

    def _dispatch_cost(self) -> None:
        if self.cpu is not None:
            self.cpu.rpc_dispatch()

    def _inode(self, fh: int) -> Inode:
        inode = self.ffs._inodes.get(fh)
        if inode is None:
            raise NfsError(f"stale file handle {fh}")
        return inode

    # -- protocol operations ------------------------------------------------

    def nfs_lookup(self, path: str) -> int:
        self._dispatch_cost()
        return self.ffs.lookup(path).ino

    def nfs_create(self, path: str) -> int:
        self._dispatch_cost()
        inode = self.ffs.create(path)
        return inode.ino

    def nfs_getattr(self, fh: int) -> NfsAttr:
        self._dispatch_cost()
        inode = self._inode(fh)
        return NfsAttr(ino=inode.ino, size=inode.size)

    def nfs_read(self, fh: int, offset: int, nbytes: int) -> bytes:
        if nbytes > NFS_MAX_TRANSFER:
            raise NfsError(f"read of {nbytes} exceeds the 8 KB NFS transfer")
        self._dispatch_cost()
        inode = self._inode(fh)
        # Freshly written data may still be on the PRESTOserve board.
        if self.nvram is not None:
            lblock = offset // BLOCK_SIZE
            addr = inode.blocks.get(lblock)
            if addr is not None and self.nvram.read_hit(addr):
                data = self.ffs._data.get(addr, bytes(BLOCK_SIZE))
                within = offset % BLOCK_SIZE
                return data[within:within + min(nbytes,
                                                max(0, inode.size - offset))]
        return self.ffs.read(inode, offset, nbytes)

    def nfs_write(self, fh: int, offset: int, data: bytes) -> int:
        """Stable write: PRESTOserve absorbs it, or the disk eats a
        forced write plus the inode update."""
        if len(data) > NFS_MAX_TRANSFER:
            raise NfsError(f"write of {len(data)} exceeds the 8 KB NFS transfer")
        self._dispatch_cost()
        inode = self._inode(fh)
        if self.nvram is not None:
            # Contents enter the FFS cache clean — stability is owned by
            # the board, and the board's destage is the only disk write.
            self.ffs.write(inode, offset, data, sync=False, dirty=False)
            lblock = offset // BLOCK_SIZE
            addr = inode.blocks[lblock]
            self.nvram.write(addr, min(len(data), BLOCK_SIZE))
            # The inode update (size, block map) is small: the board
            # absorbs it as a 512-byte write.
            self.nvram.write(
                self.ffs._cg_inode_block(inode.cylinder_group), 512)
        else:
            self.ffs.write(inode, offset, data, sync=True)
            self.ffs.sync_inode(inode)
        return len(data)

    def nfs_remove(self, path: str) -> None:
        self._dispatch_cost()
        self.ffs.unlink(path)

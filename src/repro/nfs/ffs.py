"""A Fast File System simulator ([MCKU84]).

The baseline's performance character comes from three FFS properties
the paper leans on:

- cylinder-group layout: "data for a single file are kept close
  together", so sequential file I/O is sequential disk I/O;
- little indexing overhead: "the NFS implementation does not maintain
  as much indexing information on the data file, and so can postpone
  writing its index until all data blocks have been written" — inodes
  and indirect blocks are tiny and written after the data;
- the 4 GB practical file-size limit the paper contrasts with
  Inversion's 17.6 TB.

State (inodes, directory, block contents) is held in memory — the
baseline exists to be *measured*, not trusted with data — while every
block access charges the shared :class:`~repro.sim.disk.DiskModel`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import FfsError, FfsFileTooLargeError
from repro.obs.registry import MetricSpec
from repro.sim.clock import SimClock
from repro.sim.disk import BLOCK_SIZE, DiskModel

METRICS = (
    MetricSpec("ffs.data_reads", "counter", "blocks",
               "Data-block reads (cache hits included — each still "
               "returns a block to the caller).",
               "repro.nfs.ffs"),
    MetricSpec("ffs.data_writes", "counter", "blocks",
               "Data-block writes.  Disjoint from ffs.indirect_writes "
               "and ffs.inode_writes — the three sum to total block "
               "writes.",
               "repro.nfs.ffs"),
    MetricSpec("ffs.inode_writes", "counter", "blocks",
               "Forced inode writes to the cylinder-group inode area.",
               "repro.nfs.ffs"),
    MetricSpec("ffs.indirect_writes", "counter", "blocks",
               "Indirect (pointer) block writes.",
               "repro.nfs.ffs"),
    MetricSpec("ffs.cache_hits", "counter", "blocks",
               "Block reads served from the FFS buffer cache.",
               "repro.nfs.ffs"),
)

MAX_FFS_FILE_SIZE = 4 * 1024 ** 3
"""The paper: "the practical upper limit on file sizes in the current
UNIX Fast File System is 4 GBytes"."""

NDIRECT = 12
PTRS_PER_INDIRECT = BLOCK_SIZE // 4

CG_BLOCKS = 2048
"""Blocks per cylinder group."""


@dataclass
class Inode:
    ino: int
    size: int = 0
    cylinder_group: int = 0
    #: logical block index -> physical block address
    blocks: dict[int, int] = field(default_factory=dict)
    #: physical addresses of allocated indirect blocks
    indirect_blocks: list[int] = field(default_factory=list)


@dataclass
class FfsStats:
    data_reads: int = 0
    data_writes: int = 0
    inode_writes: int = 0
    indirect_writes: int = 0
    cache_hits: int = 0


class FastFileSystem:
    """In-memory FFS with a cost-charging block layer and buffer cache."""

    def __init__(self, clock: SimClock, disk: DiskModel,
                 cache_blocks: int = 300, n_cylinder_groups: int = 64) -> None:
        self.clock = clock
        self.disk = disk
        self.stats = FfsStats()
        self.n_cylinder_groups = n_cylinder_groups
        self._inodes: dict[int, Inode] = {}
        self._directory: dict[str, int] = {}
        self._data: dict[int, bytes] = {}  # physical block -> contents
        self._next_ino = 2
        self._cg_cursor = 0
        #: next free data block per cylinder group (block 0 of each
        #: group is its inode area).
        self._cg_free = [cg * CG_BLOCKS + 1 for cg in range(n_cylinder_groups)]
        # Buffer cache: physical block -> dirty flag (contents live in
        # self._data; the cache models which blocks are memory-resident).
        from collections import OrderedDict
        self._cache: "OrderedDict[int, bool]" = OrderedDict()
        self._cache_capacity = cache_blocks

    # -- allocation -------------------------------------------------------

    def _cg_inode_block(self, cg: int) -> int:
        return cg * CG_BLOCKS

    def _allocate_block(self, inode: Inode) -> int:
        cg = inode.cylinder_group
        for probe in range(self.n_cylinder_groups):
            candidate = (cg + probe) % self.n_cylinder_groups
            addr = self._cg_free[candidate]
            if addr < (candidate + 1) * CG_BLOCKS:
                self._cg_free[candidate] += 1
                return addr
        raise FfsError("file system full")

    # -- cache ------------------------------------------------------------------

    def _cache_touch(self, block: int, dirty: bool) -> None:
        entry = self._cache.pop(block, False)
        self._cache[block] = entry or dirty
        while len(self._cache) > self._cache_capacity:
            victim, was_dirty = self._cache.popitem(last=False)
            if was_dirty:
                self.disk.write_block(victim)

    def bind_metrics(self, registry) -> None:
        """Mirror this file system's stats onto a metrics registry.
        The NFS baseline has no Database session, so binding is the
        harness's (or a test's) call."""
        registry.mirror_all(METRICS, self.stats)

    def _read_block(self, block: int) -> bytes:
        if block in self._cache:
            self.stats.cache_hits += 1
            self._cache_touch(block, dirty=False)
        else:
            self.disk.read_block(block)
            self._cache_touch(block, dirty=False)
        self.stats.data_reads += 1
        return self._data.get(block, bytes(BLOCK_SIZE))

    def _write_block(self, block: int, data: bytes, sync: bool,
                     dirty: bool = True, is_data: bool = True) -> None:
        """Store a block and charge the device.  ``is_data=False`` for
        metadata blocks whose write is counted by its own counter
        (indirect_writes) — the stats categories stay disjoint so they
        sum to total block writes."""
        self._data[block] = bytes(data)
        if is_data:
            self.stats.data_writes += 1
        if sync:
            self._cache.pop(block, None)
            self.disk.write_block(block)
        else:
            self._cache_touch(block, dirty=dirty)

    def sync_inode(self, inode: Inode) -> None:
        """Force the inode to its cylinder group's inode area."""
        self.disk.write_block(self._cg_inode_block(inode.cylinder_group), 512)
        self.stats.inode_writes += 1

    def flush(self) -> None:
        """Write back every dirty cached block (sync(2))."""
        for block, dirty in list(self._cache.items()):
            if dirty:
                self.disk.write_block(block)
                self._cache[block] = False

    def drop_caches(self) -> None:
        """Flush then empty the cache (benchmark cache flush)."""
        self.flush()
        self._cache.clear()
        self.disk.reset_head()

    # -- namespace -----------------------------------------------------------------

    def create(self, path: str) -> Inode:
        if path in self._directory:
            raise FfsError(f"{path!r} already exists")
        ino = self._next_ino
        self._next_ino += 1
        inode = Inode(ino=ino, cylinder_group=self._cg_cursor)
        self._cg_cursor = (self._cg_cursor + 1) % self.n_cylinder_groups
        self._inodes[ino] = inode
        self._directory[path] = ino
        self.sync_inode(inode)
        return inode

    def lookup(self, path: str) -> Inode:
        ino = self._directory.get(path)
        if ino is None:
            raise FfsError(f"no such file {path!r}")
        return self._inodes[ino]

    def unlink(self, path: str) -> None:
        ino = self._directory.pop(path, None)
        if ino is None:
            raise FfsError(f"no such file {path!r}")
        del self._inodes[ino]

    def exists(self, path: str) -> bool:
        return path in self._directory

    # -- file I/O -------------------------------------------------------------------------

    def _block_for(self, inode: Inode, lblock: int, allocate: bool,
                   sync: bool) -> int | None:
        addr = inode.blocks.get(lblock)
        if addr is None:
            if not allocate:
                return None
            addr = self._allocate_block(inode)
            inode.blocks[lblock] = addr
            # Indirect-block maintenance: one pointer block per
            # PTRS_PER_INDIRECT logical blocks past the direct range.
            if lblock >= NDIRECT and \
                    (lblock - NDIRECT) % PTRS_PER_INDIRECT == 0:
                iaddr = self._allocate_block(inode)
                inode.indirect_blocks.append(iaddr)
                self.stats.indirect_writes += 1
                self._write_block(iaddr, bytes(BLOCK_SIZE), sync,
                                  is_data=False)
        return addr

    def write(self, inode: Inode, offset: int, data: bytes,
              sync: bool = False, dirty: bool = True) -> int:
        """Write, charging per-block I/O; ``sync=True`` forces each
        block to the medium (the stateless-NFS rule).  ``dirty=False``
        caches the contents clean — used when stability is owned by the
        PRESTOserve board, so cache eviction does not double-write."""
        if offset + len(data) > MAX_FFS_FILE_SIZE:
            raise FfsFileTooLargeError(
                "FFS files are limited to 4 GB (the paper's contrast "
                "with Inversion's 17.6 TB)")
        view = memoryview(data)
        pos = offset
        while view.nbytes > 0:
            lblock = pos // BLOCK_SIZE
            within = pos % BLOCK_SIZE
            take = min(BLOCK_SIZE - within, view.nbytes)
            addr = self._block_for(inode, lblock, allocate=True, sync=sync)
            if within == 0 and take == BLOCK_SIZE:
                block = bytes(view[:take])
            else:
                # Read-modify-write: a partial block must be fetched
                # first (a real disk read on a cache miss).
                current = (self._read_block(addr) if addr in self._data
                           else bytes(BLOCK_SIZE))
                block = current[:within] + bytes(view[:take]) \
                    + current[within + take:]
            self._write_block(addr, block, sync, dirty)
            pos += take
            view = view[take:]
        inode.size = max(inode.size, pos)
        return len(data)

    def read(self, inode: Inode, offset: int, nbytes: int) -> bytes:
        nbytes = min(nbytes, max(0, inode.size - offset))
        out = bytearray()
        pos = offset
        remaining = nbytes
        while remaining > 0:
            lblock = pos // BLOCK_SIZE
            within = pos % BLOCK_SIZE
            take = min(BLOCK_SIZE - within, remaining)
            addr = inode.blocks.get(lblock)
            if addr is None:
                out += bytes(take)  # hole
            else:
                out += self._read_block(addr)[within:within + take]
            pos += take
            remaining -= take
        return bytes(out)

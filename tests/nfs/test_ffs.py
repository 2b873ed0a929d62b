"""Fast File System simulator."""

import pytest

from repro.errors import FfsError, FfsFileTooLargeError
from repro.nfs.ffs import BLOCK_SIZE, FastFileSystem, MAX_FFS_FILE_SIZE
from repro.sim.clock import SimClock
from repro.sim.disk import DiskModel


@pytest.fixture
def ffs():
    clock = SimClock()
    return FastFileSystem(clock, DiskModel(clock=clock))


def test_create_lookup_unlink(ffs):
    inode = ffs.create("/f")
    assert ffs.lookup("/f").ino == inode.ino
    assert ffs.exists("/f")
    ffs.unlink("/f")
    assert not ffs.exists("/f")
    with pytest.raises(FfsError):
        ffs.lookup("/f")


def test_duplicate_create_rejected(ffs):
    ffs.create("/f")
    with pytest.raises(FfsError):
        ffs.create("/f")


def test_write_read_roundtrip(ffs):
    inode = ffs.create("/f")
    data = bytes(range(256)) * 100
    ffs.write(inode, 0, data)
    assert ffs.read(inode, 0, len(data)) == data
    assert inode.size == len(data)


def test_partial_block_rmw(ffs):
    inode = ffs.create("/f")
    ffs.write(inode, 0, b"a" * 100)
    ffs.write(inode, 50, b"B" * 10)
    assert ffs.read(inode, 0, 100) == b"a" * 50 + b"B" * 10 + b"a" * 40


def test_holes_read_zero(ffs):
    inode = ffs.create("/f")
    ffs.write(inode, 3 * BLOCK_SIZE, b"tail")
    assert ffs.read(inode, 0, 4) == bytes(4)


def test_read_truncated_at_eof(ffs):
    inode = ffs.create("/f")
    ffs.write(inode, 0, b"abc")
    assert ffs.read(inode, 1, 100) == b"bc"


def test_four_gb_limit(ffs):
    """The paper: "the practical upper limit on file sizes in the
    current UNIX Fast File System is 4 GBytes"."""
    inode = ffs.create("/f")
    with pytest.raises(FfsFileTooLargeError):
        ffs.write(inode, MAX_FFS_FILE_SIZE - 1, b"xx")


def test_file_blocks_mostly_contiguous(ffs):
    """Cylinder-group policy: one file's blocks are physically close."""
    inode = ffs.create("/f")
    ffs.write(inode, 0, bytes(50 * BLOCK_SIZE))
    addrs = [inode.blocks[i] for i in range(50)]
    # Monotone and dense (allowing the occasional indirect block gap).
    assert addrs == sorted(addrs)
    assert addrs[-1] - addrs[0] < 60


def test_different_files_in_different_cylinder_groups(ffs):
    a = ffs.create("/a")
    b = ffs.create("/b")
    ffs.write(a, 0, bytes(BLOCK_SIZE))
    ffs.write(b, 0, bytes(BLOCK_SIZE))
    assert a.cylinder_group != b.cylinder_group
    assert abs(a.blocks[0] - b.blocks[0]) >= 2048 - 1


def test_sync_write_hits_disk_immediately(ffs):
    inode = ffs.create("/f")
    writes_before = ffs.disk.stats.writes
    ffs.write(inode, 0, bytes(BLOCK_SIZE), sync=True)
    assert ffs.disk.stats.writes == writes_before + 1


def test_async_write_deferred_until_flush(ffs):
    inode = ffs.create("/f")
    writes_before = ffs.disk.stats.writes
    ffs.write(inode, 0, bytes(BLOCK_SIZE), sync=False)
    assert ffs.disk.stats.writes == writes_before
    ffs.flush()
    assert ffs.disk.stats.writes == writes_before + 1


def test_clean_cached_write_never_written(ffs):
    """dirty=False models PRESTOserve owning stability."""
    inode = ffs.create("/f")
    writes_before = ffs.disk.stats.writes
    ffs.write(inode, 0, bytes(BLOCK_SIZE), sync=False, dirty=False)
    ffs.flush()
    assert ffs.disk.stats.writes == writes_before


def test_cache_eviction_writes_dirty_blocks():
    clock = SimClock()
    ffs = FastFileSystem(clock, DiskModel(clock=clock), cache_blocks=8)
    inode = ffs.create("/f")
    ffs.write(inode, 0, bytes(20 * BLOCK_SIZE), sync=False)
    assert ffs.disk.stats.writes >= 12


def test_indirect_blocks_charged(ffs):
    inode = ffs.create("/f")
    nblocks = 13
    ffs.write(inode, 0, bytes(nblocks * BLOCK_SIZE))
    assert ffs.stats.indirect_writes == 1
    assert len(inode.indirect_blocks) == 1


def test_drop_caches_then_reads_pay_disk(ffs):
    inode = ffs.create("/f")
    ffs.write(inode, 0, bytes(4 * BLOCK_SIZE))
    ffs.drop_caches()
    reads_before = ffs.disk.stats.reads
    ffs.read(inode, 0, 4 * BLOCK_SIZE)
    assert ffs.disk.stats.reads == reads_before + 4


def test_indirect_block_writes_not_double_counted(ffs):
    """Regression: allocating an indirect block used to bump both
    indirect_writes and data_writes for the same physical write.  The
    categories are disjoint: 13 logical data blocks = 13 data writes
    plus exactly one indirect write, device cost unchanged."""
    inode = ffs.create("/f")
    nblocks = 13  # NDIRECT + 1: forces one indirect block
    ffs.write(inode, 0, bytes(nblocks * BLOCK_SIZE))
    assert ffs.stats.data_writes == nblocks
    assert ffs.stats.indirect_writes == 1


def test_bind_metrics_mirrors_stats(ffs):
    from repro.obs.registry import MetricsRegistry

    registry = MetricsRegistry()
    registry.mirror_all(ffs.stats)
    inode = ffs.create("/f")
    ffs.write(inode, 0, bytes(2 * BLOCK_SIZE))
    assert registry.value("ffs.data_writes") == ffs.stats.data_writes == 2
    assert registry.value("ffs.inode_writes") == ffs.stats.inode_writes

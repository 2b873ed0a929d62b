"""The headline acceptance claim: by-reference structural ops on a
64 MB file move **zero** data pages — every copied chunk is a pointer
row, and the device write counter confirms no payload migrated."""

from __future__ import annotations

from repro.core.checker import ConsistencyChecker
from repro.core.constants import CHUNK_SIZE
from repro.core.filesystem import InversionFS
from repro.core.library import InversionClient
from repro.db.database import Database
from repro.testkit.workload import payload
from repro.vfs import VFS

#: 8 000 chunks of 8 064 bytes = 64 512 000 bytes — "64 MB" on a chunk
#: boundary, so the whole file clones by reference (no materialized
#: tail chunk).
CHUNKS = 8000
SIZE = CHUNKS * CHUNK_SIZE


def _pages_written(db) -> float:
    return db.obs.metrics.get("device.pages_written").total()


def test_reflink_and_concat_64mb_move_no_data(fs, client):
    vfs = VFS(client)
    data = payload(0, "big", SIZE)
    vfs.write_file("/big", data)

    p0 = _pages_written(fs.db)
    referenced, materialized = vfs.reflink("/big", "/copy")
    reflink_pages = _pages_written(fs.db) - p0
    assert (referenced, materialized) == (CHUNKS, 0)
    # Pointer rows are 40-byte entries, ~200 per 8 KB page: cloning
    # 8 000 chunks costs tens of metadata pages.  The physical copy
    # would have written ~8 000 data pages; a sliver of that budget
    # proves no payload moved.
    assert reflink_pages < CHUNKS / 20, (
        f"reflink wrote {reflink_pages} pages for {CHUNKS} chunks")

    p0 = _pages_written(fs.db)
    referenced, materialized = vfs.concat(["/big", "/copy"], "/double")
    concat_pages = _pages_written(fs.db) - p0
    assert (referenced, materialized) == (2 * CHUNKS, 0)
    assert concat_pages < CHUNKS / 10, (
        f"concat wrote {concat_pages} pages for {2 * CHUNKS} chunks")

    # The pointers resolve to the right bytes (sampled across the
    # file, plus exact sizes).
    assert vfs.stat("/copy").size == SIZE
    assert vfs.stat("/double").size == 2 * SIZE
    fd = vfs.open("/copy", 0)
    for off in (0, CHUNK_SIZE * 1000 + 17, SIZE - 4096):
        vfs.lseek(fd, off)
        assert vfs.read(fd, 4096) == data[off:off + 4096]
    vfs.close(fd)
    fd = vfs.open("/double", 0)
    vfs.lseek(fd, SIZE - 100)
    assert vfs.read(fd, 200) == data[-100:] + data[:100]
    vfs.close(fd)
    ConsistencyChecker(fs).raise_if_corrupt()


def test_an_8mb_reflink_beats_a_physical_copy_tenfold(tmp_path):
    """The same 1 024-chunk source copied by reading and writing every
    byte and by reference, then concatenated and sliced by reference.
    The buffer pool holds the source and the physical copy, so both
    paths read warm and the comparison is what each writes."""
    chunks = 1024
    db = Database.create(str(tmp_path / "db"), buffer_pages=3072)
    client = InversionClient(InversionFS.mkfs(db))
    vfs = VFS(client, obs=db.obs)
    clock = db.clock
    data = payload(0, "struct", chunks * CHUNK_SIZE)
    vfs.write_file("/data", data)

    t0, p0 = clock.now(), _pages_written(db)
    with vfs.transaction():
        vfs.write_file("/copy.phys", vfs.read_file("/data"))
    phys_s, phys_pages = clock.now() - t0, _pages_written(db) - p0

    t0, p0 = clock.now(), _pages_written(db)
    with vfs.transaction():
        assert vfs.reflink("/data", "/copy.ref") == (chunks, 0)
    ref_s, ref_pages = clock.now() - t0, _pages_written(db) - p0
    assert vfs.read_file("/copy.ref") == data
    assert ref_pages <= phys_pages / 20
    assert phys_s / ref_s >= 10.0

    assert vfs.concat(["/data", "/copy.ref"], "/cat") == (2 * chunks, 0)
    # Only the partial tail chunk of a slice is materialized.
    half = chunks // 2 * CHUNK_SIZE
    assert vfs.slice("/data", 0, half + 200, "/slice") == (chunks // 2, 1)
    db.close()

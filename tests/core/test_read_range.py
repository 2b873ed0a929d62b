"""Range reads over the chunk store: the index half of the sequential
fast path.  ``read_range`` must be byte-identical to per-chunk reads in
every configuration — MVCC rewrites, coalescing-buffer overlays, holes,
time travel through the archive, and the unindexed ablation."""

import pytest

from repro.core.chunks import ChunkStore, chunk_table_name
from repro.core.constants import CHUNK_SIZE, O_RDONLY
from repro.db.btree import BTree


@pytest.fixture
def store(fs, client):
    fd = client.p_creat("/f")
    client.p_close(fd)
    tx = fs.begin()
    s = ChunkStore(fs.db, fs.resolve("/f", tx), tx)
    yield fs, tx, s
    fs.commit(tx)


def write_chunks(tx, s, contents: dict[int, bytes]) -> None:
    for chunkno, data in contents.items():
        s.write_chunk(tx, chunkno, data)
    s.flush(tx)


def test_range_matches_per_chunk_reads(store):
    fs, tx, s = store
    contents = {0: b"zero", 1: b"one", 2: b"two", 5: b"five"}
    write_chunks(tx, s, contents)
    snap = fs.db.snapshot(tx)
    got = s.read_range(0, 5, snap, tx)
    assert got == contents  # 3 and 4 are holes: absent, not b""
    for c in range(6):
        assert got.get(c, b"") == s.read_chunk(c, snap, tx)


def test_empty_and_inverted_ranges(store):
    fs, tx, s = store
    write_chunks(tx, s, {0: b"x"})
    snap = fs.db.snapshot(tx)
    assert s.read_range(3, 2, snap, tx) == {}
    assert s.read_range(10, 20, snap, tx) == {}


def test_range_sees_newest_version(store):
    """No-overwrite MVCC: superseded versions stay in the heap and the
    index; the range scan must resolve each chunk to its newest visible
    version, exactly as index_eq does."""
    fs, tx, s = store
    write_chunks(tx, s, {0: b"v1", 1: b"stable"})
    write_chunks(tx, s, {0: b"v2"})
    write_chunks(tx, s, {0: b"v3"})
    got = s.read_range(0, 1, fs.db.snapshot(tx), tx)
    assert got == {0: b"v3", 1: b"stable"}


def test_dirty_buffer_shadows_range(store):
    fs, tx, s = store
    write_chunks(tx, s, {0: b"flushed", 1: b"old"})
    s.write_chunk(tx, 1, b"buffered")
    s.write_chunk(tx, 7, b"new")
    got = s.read_range(0, 9, fs.db.snapshot(tx), tx)
    assert got == {0: b"flushed", 1: b"buffered", 7: b"new"}


def test_range_is_one_descent(store):
    """Past one heap page, where the file has its chunkno index."""
    fs, tx, s = store
    write_chunks(tx, s, {c: bytes([c]) * 1000 for c in range(20)})
    assert s.table.heap.npages() > 1 and s._indexed
    d0 = BTree.total_descents
    got = s.read_range(0, 19, fs.db.snapshot(tx), tx)
    assert len(got) == 20
    assert BTree.total_descents - d0 == 1


def test_unindexed_ablation_range(fs, client):
    fs.chunk_index = False  # the Figure 3 ablation configuration
    fd = client.p_creat("/plain")
    client.p_close(fd)
    tx = fs.begin()
    s = ChunkStore(fs.db, fs.resolve("/plain", tx), tx)
    assert not s._indexed
    write_chunks(tx, s, {0: b"a", 2: b"c"})
    write_chunks(tx, s, {0: b"a2"})
    snap = fs.db.snapshot(tx)
    assert s.read_range(0, 3, snap, tx) == {0: b"a2", 2: b"c"}
    assert s.visible_chunk_count(snap, tx) == 2
    fs.commit(tx)


def test_visible_chunk_count_counts_chunks_not_versions(store):
    fs, tx, s = store
    write_chunks(tx, s, {0: b"x", 1: b"y", 2: b"z"})
    write_chunks(tx, s, {1: b"y2"})
    assert s.visible_chunk_count(fs.db.snapshot(tx), tx) == 3
    assert s.version_count() == 4


# -- time travel ------------------------------------------------------------


def test_historical_range_read(fs, client, clock):
    fd = client.p_creat("/hist")
    client.p_write(fd, b"A" * CHUNK_SIZE + b"B" * CHUNK_SIZE)
    client.p_close(fd)
    t0 = clock.now()
    fd = client.p_open("/hist", 2)
    client.p_lseek(fd, 0, 0, 0)
    client.p_write(fd, b"X" * CHUNK_SIZE)
    client.p_close(fd)
    assert fs.read_file("/hist", timestamp=t0) == \
        b"A" * CHUNK_SIZE + b"B" * CHUNK_SIZE
    assert fs.read_file("/hist") == b"X" * CHUNK_SIZE + b"B" * CHUNK_SIZE


def test_historical_range_read_after_vacuum(fs, client, clock):
    """Archived versions are merged into the range scan: the archive
    index contributes chunks the live index no longer resolves."""
    fd = client.p_creat("/vac")
    client.p_write(fd, b"old" + bytes(CHUNK_SIZE - 3) + b"two")
    client.p_close(fd)
    t0 = clock.now()
    fd = client.p_open("/vac", 2)
    client.p_lseek(fd, 0, 0, 0)
    client.p_write(fd, b"new")
    client.p_close(fd)
    fileid = fs.resolve("/vac")
    stats = fs.db.vacuum(chunk_table_name(fileid))
    assert stats.archived >= 1
    old = fs.read_file("/vac", timestamp=t0)
    assert old == b"old" + bytes(CHUNK_SIZE - 3) + b"two"
    assert fs.read_file("/vac")[:3] == b"new"


def test_historical_library_read_spans_archive(fs, client, clock):
    """The same through the library's historical open — the path the
    benchmark read loop takes."""
    fd = client.p_creat("/doc")
    client.p_write(fd, b"h" * (CHUNK_SIZE * 2))
    client.p_close(fd)
    t0 = clock.now()
    fd = client.p_open("/doc", 2)
    client.p_write(fd, b"n" * CHUNK_SIZE)
    client.p_close(fd)
    fs.db.vacuum(chunk_table_name(fs.resolve("/doc")))
    hist = client.p_open("/doc", O_RDONLY, timestamp=t0)
    assert client.p_read(hist, CHUNK_SIZE * 2) == b"h" * (CHUNK_SIZE * 2)
    client.p_close(hist)


# -- flush resolution paths -------------------------------------------------


def test_dense_flush_updates_existing_versions(store):
    """A dense dirty set resolves its existing TIDs with one range scan;
    updates must still supersede the old versions (not duplicate them)."""
    fs, tx, s = store
    write_chunks(tx, s, {c: b"first" for c in range(8)})
    write_chunks(tx, s, {c: b"second" for c in range(8)})
    snap = fs.db.snapshot(tx)
    assert s.read_range(0, 7, snap, tx) == {c: b"second" for c in range(8)}
    assert s.visible_chunk_count(snap, tx) == 8
    assert s.version_count() == 16


def test_sparse_flush_uses_per_chunk_probes(store):
    """Two random writes in a huge span take the per-chunk probe path;
    semantics are identical to the dense path."""
    fs, tx, s = store
    write_chunks(tx, s, {0: b"lo", 1000: b"hi"})
    write_chunks(tx, s, {0: b"lo2", 1000: b"hi2"})
    snap = fs.db.snapshot(tx)
    assert s.read_range(0, 1000, snap, tx) == {0: b"lo2", 1000: b"hi2"}
    assert s.version_count() == 4


# -- Figure 5's sequential read, cold, in process ----------------------------

#: a 1 MB file of 8 KB chunks, read back cold.
SEQ_CHUNKS = 128
SEQ_DATA = b"0123456789abcdef" * (SEQ_CHUNKS * CHUNK_SIZE // 16)


def _chunk_index_descents() -> int:
    return sum(n for rel, n in BTree.descents_by_rel.items()
               if rel.endswith("_chunkno_idx"))


def _cold_read(fs, client, fd, nbytes) -> dict:
    """Read the whole file in ``nbytes`` calls on flushed caches; what
    it cost the chunk index, the drive and read-ahead."""
    db = fs.db
    db.flush_caches()
    disk, buf = db.switch.get("magnetic0").disk.stats, db.buffers.stats

    def counters():
        return (_chunk_index_descents(), disk.reads, buf.prefetches,
                buf.prefetch_hits)
    before = counters()
    client.p_begin()
    client.p_lseek(fd, 0, 0)
    data = b"".join(client.p_read(fd, nbytes)
                    for _ in range(len(SEQ_DATA) // nbytes))
    client.p_commit()
    assert data == SEQ_DATA
    return dict(zip(("descents", "device_reads", "prefetches",
                     "prefetch_hits"),
                    (b - a for a, b in zip(before, counters()))))


def test_a_cold_1mb_read_batches_by_chunk_map_and_read_ahead(fs, client):
    fd = client.p_creat("/seq")
    for pos in range(0, len(SEQ_DATA), CHUNK_SIZE):
        client.p_write(fd, SEQ_DATA[pos:pos + CHUNK_SIZE])
    window = fs.db.buffers.readahead_window

    # 8 KB calls: one descent each, the device I/O batched by read-ahead
    # and every prefetched page used.
    calls = _cold_read(fs, client, fd, CHUNK_SIZE)
    assert calls["descents"] == SEQ_CHUNKS
    assert calls["device_reads"] <= SEQ_CHUNKS // 2
    assert calls["prefetches"] >= SEQ_CHUNKS // 2
    assert calls["prefetch_hits"] == calls["prefetches"]

    # One 1 MB transfer: the chunk map in one descent (two would mean an
    # archive index was consulted), heap reads in read-ahead windows.
    single = _cold_read(fs, client, fd, len(SEQ_DATA))
    assert single["descents"] <= 2
    assert single["device_reads"] <= -(-SEQ_CHUNKS // window)

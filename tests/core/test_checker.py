"""Self-identifying-block consistency checking with injected
corruption: misdirected and garbage chunk rows, and every way a
by-reference row can go wrong — unregistered, outside its registered
range, dangling, malformed."""

import pytest

from repro.core.checker import ConsistencyChecker
from repro.core.chunks import ChunkStore, chunk_table_name, encode_ref
from repro.core.constants import CHUNK_SIZE
from repro.db.snapshot import BootstrapSnapshot
from repro.errors import InversionError
from repro.testkit.workload import payload


@pytest.fixture
def populated(fs, client):
    client.p_mkdir("/data")
    for name, size in (("a", 100), ("b", 2 * CHUNK_SIZE + 7)):
        fd = client.p_creat(f"/data/{name}")
        client.p_write(fd, b"z" * size)
        client.p_close(fd)
    return fs, client


def test_clean_file_system_reports_clean(populated):
    fs, _client = populated
    report = ConsistencyChecker(fs).check_all()
    assert report.clean
    assert report.files_checked == 2
    assert report.chunks_checked == 4  # 1 + 3 chunks


def test_misdirected_write_detected(populated):
    """A chunk tagged with the wrong file identifier (a misdirected
    write) is exactly what self-identification exists to catch."""
    fs, _client = populated
    fileid = fs.resolve("/data/a")
    tx = fs.begin()
    table = fs.db.table(chunk_table_name(fileid), tx)
    tid, row = next(iter(table.scan(fs.db.snapshot(tx), tx)))
    table.update(tx, tid, (row[0], 999999, row[2]))  # wrong selfid
    fs.commit(tx)
    report = ConsistencyChecker(fs).check_file(fileid)
    kinds = {c.kind for c in report.corruptions}
    assert "misdirected" in kinds
    with pytest.raises(InversionError):
        ConsistencyChecker(fs).raise_if_corrupt()


def test_negative_chunkno_detected(populated):
    fs, _client = populated
    fileid = fs.resolve("/data/a")
    tx = fs.begin()
    table = fs.db.table(chunk_table_name(fileid), tx)
    table.insert(tx, (-5, fileid, b"garbage"))
    fs.commit(tx)
    report = ConsistencyChecker(fs).check_file(fileid)
    assert any(c.kind == "negative-chunkno" for c in report.corruptions)


def test_size_mismatch_detected(populated):
    """Attributes claiming more bytes than any visible chunk covers."""
    fs, _client = populated
    fileid = fs.resolve("/data/a")
    tx = fs.begin()
    fs.fileatt.update(tx, fileid, size=10 * CHUNK_SIZE)
    fs.commit(tx)
    report = ConsistencyChecker(fs).check_file(fileid)
    assert any(c.kind == "size-mismatch" for c in report.corruptions)


def test_duplicate_chunk_version_detected(populated):
    """Two visible versions of one chunk number — the corruption a
    mis-coalesced batched write-back would leave behind."""
    fs, _client = populated
    fileid = fs.resolve("/data/b")
    tx = fs.begin()
    table = fs.db.table(chunk_table_name(fileid), tx)
    table.insert(tx, (0, fileid, b"shadow copy"))  # chunk 0 again
    fs.commit(tx)
    report = ConsistencyChecker(fs).check_file(fileid)
    assert any(c.kind == "duplicate-chunk" and c.chunkno == 0
               for c in report.corruptions)


def test_batched_flush_preserves_visible_chunk_count(populated):
    """Coalescing dirty runs into multi-page device writes must neither
    lose nor duplicate a chunk version: the per-file visible chunk
    count is invariant across a flush, and the checker stays clean."""
    fs, client = populated

    def visible_chunk_count(fileid):
        return ChunkStore(fs.db, fileid, None).visible_chunk_count(
            BootstrapSnapshot(fs.db.tm))
    # Dirty a long dense run: a fresh multi-chunk file plus an overwrite.
    fd = client.p_creat("/data/run")
    client.p_write(fd, b"r" * (5 * CHUNK_SIZE + 11))
    client.p_close(fd)
    fileids = {name: fs.resolve(f"/data/{name}") for name in ("a", "b", "run")}
    before = {name: visible_chunk_count(fid)
              for name, fid in fileids.items()}
    assert before["run"] == 6
    fs.db.flush_caches()
    assert fs.db.buffers.stats.batched_writes > 0  # runs really coalesced
    after = {name: visible_chunk_count(fid)
             for name, fid in fileids.items()}
    assert after == before
    assert ConsistencyChecker(fs).check_all().clean


def test_orphan_naming_entry_detected(populated):
    fs, _client = populated
    tx = fs.begin()
    fs.namespace.add_entry(tx, fs.namespace.root_fileid, "ghost", 424242)
    fs.commit(tx)
    report = ConsistencyChecker(fs).check_all()
    assert any(c.kind == "unreadable" and c.fileid == 424242
               for c in report.corruptions)


def test_checker_sees_historical_versions_too(populated):
    """Corruption in a superseded version is still corruption (history
    must stay trustworthy for time travel)."""
    fs, client = populated
    from repro.core.constants import O_RDWR
    fileid = fs.resolve("/data/a")
    # Corrupt the CURRENT version, then supersede it with a good one.
    tx = fs.begin()
    table = fs.db.table(chunk_table_name(fileid), tx)
    tid, row = next(iter(table.scan(fs.db.snapshot(tx), tx)))
    table.update(tx, tid, (row[0], 31337, row[2]))
    fs.commit(tx)
    fd = client.p_open("/data/a", O_RDWR)
    client.p_write(fd, b"fresh" * 20)
    client.p_close(fd)
    report = ConsistencyChecker(fs).check_file(fileid)
    assert any(c.kind == "misdirected" for c in report.corruptions)


# -- by-reference rows ------------------------------------------------------

def _source_xmin(fs, src_id, chunkno):
    """The committing transaction of the newest version of one chunk —
    what a legitimate clone would have pinned."""
    store = ChunkStore(fs.db, src_id, None)
    pairs = list(store.table.index_range_newest(
        ("chunkno",), (chunkno,), (chunkno,), BootstrapSnapshot(fs.db.tm),
        None))
    assert pairs, f"chunk {chunkno} has no visible version"
    return store.table.heap.fetch_raw(pairs[0][0])[0]


def _pin(src_chunkno, src_xmin=None):
    """A well-formed reference to one chunk of ``/src`` (its current
    version unless ``src_xmin`` says otherwise)."""
    def row(fs, src_id):
        xmin = src_xmin or _source_xmin(fs, src_id, src_chunkno)
        return -src_id, encode_ref(src_id, src_chunkno, xmin)
    return row


#: planted row → the one corruption it must produce.  ``/src`` is three
#: chunks; a slice of chunk 0 registers ``vfsref`` coverage for chunk 0
#: only (coverage is per chunk range, not per source file).
PLANTED_REFERENCES = {
    # Exactly what the vacuum guard cannot protect.
    "unregistered": (False, _pin(1), "unregistered-reference"),
    "outside-registered-range": (True, _pin(2), "unregistered-reference"),
    # A version that exists nowhere, live heap or archive.
    "dangling": (True, _pin(0, 999_999_999), "dangling-reference"),
    # Not the 24-byte pin triple.
    "malformed": (True, lambda fs, src_id: (-src_id, b"short"),
                  "bad-reference"),
}


@pytest.mark.parametrize("case", sorted(PLANTED_REFERENCES))
def test_planted_reference_detected(fs, client, case):
    """A reference row planted at the storage level, bypassing the
    registration the file-system layer always performs."""
    sliced, row, kind = PLANTED_REFERENCES[case]
    tx = fs.begin()
    fs.write_file(tx, "/src", payload(1, "src", 3 * CHUNK_SIZE))
    fs.write_file(tx, "/fake", b"")
    fs.commit(tx)
    if sliced:
        tx = fs.begin()
        fs.slice(tx, "/src", 0, CHUNK_SIZE, "/head")
        fs.commit(tx)
    assert ConsistencyChecker(fs).check_all().clean
    tx = fs.begin()
    store = ChunkStore(fs.db, fs.resolve("/fake"), tx)
    store.table.lock_exclusive(tx)
    store.table.insert_many(tx, [(0, *row(fs, fs.resolve("/src")))])
    fs.commit(tx)
    report = ConsistencyChecker(fs).check_all()
    assert [c.kind for c in report.corruptions] == [kind]
    with pytest.raises(InversionError, match=kind):
        ConsistencyChecker(fs).raise_if_corrupt()

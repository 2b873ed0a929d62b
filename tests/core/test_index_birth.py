"""The chunkno index is born when a chunk table outgrows heap page 0.

A file that fits one page has no index relation and no ``pg_index``
row; the index appears inside the transaction whose insert would first
put a record on page 1, populated with every stored version.  Around
that birth: a file whose first flush spans pages is laid out as if the
index had been made at creation; an archive vacuum made while the table
had no index gets one too; a handle opened before another transaction's
birth learns of it at its first exclusive lock, and a handle of the
same transaction learns of it before bearing a second one.  The checker
flags the two ways coverage can go missing."""

from __future__ import annotations

from repro.core.checker import ConsistencyChecker
from repro.core.chunks import CHUNKNO, ChunkStore, chunk_table_name
from repro.core.constants import CHUNK_SIZE, O_RDWR
from repro.db.snapshot import BootstrapSnapshot


def _store(fs, path, tx=None):
    return ChunkStore(fs.db, fs.resolve(path, tx), tx)


def _write(fs, path, data):
    tx = fs.begin()
    fs.write_file(tx, path, data)
    fs.commit(tx)


def _kinds(fs):
    return [c.kind for c in ConsistencyChecker(fs).check_all().corruptions]


def test_a_file_that_fits_a_page_has_no_index(fs):
    _write(fs, "/small", b"s" * 512)
    _write(fs, "/small", b"t" * 600)        # a second version, same page
    store = _store(fs, "/small")
    name = store.table.name
    assert not store._indexed and store.table.heap.npages() == 1
    assert not fs.db.switch.get().relation_exists(f"{name}_chunkno_idx")
    assert not fs.db.catalog.index_exists(f"{name}_chunkno_idx",
                                          BootstrapSnapshot(fs.db.tm))
    assert fs.read_file("/small") == b"t" * 600
    assert _kinds(fs) == []


def test_the_index_is_born_with_every_stored_version(fs, clock):
    _write(fs, "/grow", b"a" * 500)
    t0 = clock.now()
    _write(fs, "/grow", b"b" * 9000)        # chunk 0 no longer fits page 0
    store = _store(fs, "/grow")
    assert store._indexed and store.table.heap.npages() > 1
    # the pre-birth version is reachable through the index
    old = list(store.table.index_eq(CHUNKNO, (0,), fs.db.asof(t0)))
    assert [row[2] for _tid, row in old] == [b"a" * 500]
    assert fs.read_file("/grow", timestamp=t0) == b"a" * 500
    assert fs.read_file("/grow") == b"b" * 9000
    assert _kinds(fs) == []


def test_a_first_flush_spanning_pages_is_laid_out_as_before(fs):
    """Born before any heap page is allocated, the index's pages come
    first on the device — where an index made at creation put them."""
    _write(fs, "/big", b"g" * (3 * CHUNK_SIZE))
    store = _store(fs, "/big")
    dev = fs.db.switch.get(store.table.info.devname)
    index = store.table.info.indexes[0].name
    assert dev.page_address(index, 0) < dev.page_address(store.table.name, 0)


def test_the_ablation_never_bears_an_index(fs):
    fs.chunk_index = False
    _write(fs, "/plain", b"p" * (3 * CHUNK_SIZE))
    store = _store(fs, "/plain")
    assert not store._indexed and store.table.heap.npages() == 3
    assert _kinds(fs) == []
    # The same table judged with the ablation off: its committed
    # versions past page 0 should have been indexed.
    fs.chunk_index = True
    assert _kinds(fs) == ["unindexed-table"]


def test_history_survives_the_index_birth(fs, clock):
    """Vacuum made ``a_inv<oid>`` while the table had no index, so the
    archive has none either; time travel through the indexed table
    reads the archive only through its index, so the birth builds that
    one too."""
    _write(fs, "/h", b"A" * 500)
    t0 = clock.now()
    _write(fs, "/h", b"B" * 500)
    name = chunk_table_name(fs.resolve("/h"))
    assert fs.db.vacuum(name).archived == 1
    assert fs.db.archive_index_for(name, CHUNKNO) is None
    _write(fs, "/h", b"C" * 9000)
    assert fs.db.archive_index_for(name, CHUNKNO) is not None
    assert fs.read_file("/h", timestamp=t0) == b"A" * 500
    assert _kinds(fs) == []


def test_an_archive_left_unindexed_is_flagged(fs):
    """The state the archive rule prevents, made by hand: the live
    table indexed, its archive not."""
    _write(fs, "/u", b"A" * 500)
    _write(fs, "/u", b"B" * 500)
    name = chunk_table_name(fs.resolve("/u"))
    fs.db.vacuum(name)
    tx = fs.begin()
    fs.db.create_index(tx, name, CHUNKNO)
    fs.commit(tx)
    assert _kinds(fs) == ["unindexed-version"]


def test_a_writer_learns_an_index_born_under_it(fs):
    """Session B opens a one-page file; session A grows it past a page
    (bearing the index) and commits; vacuum compacts it back to one
    page; B writes a chunk that fits there.  B's handle predates the
    index, so it re-reads the catalog at its first exclusive lock — or
    its row would miss the index and read back as a hole."""
    _write(fs, "/shared", b"a" * 3000)
    b = fs.begin()
    handle = fs.open("/shared", O_RDWR, tx=b)
    _write(fs, "/shared", b"A" * 6000)      # session A
    store = _store(fs, "/shared")
    assert store._indexed and store.table.heap.npages() == 2
    fs.db.vacuum(store.table.name)
    assert store.table.heap.npages() == 1
    handle.seek(CHUNK_SIZE)
    handle.write(b"B" * 100)
    handle.close()
    fs.commit(b)
    store = _store(fs, "/shared")
    found = list(store.table.index_eq(CHUNKNO, (1,),
                                      BootstrapSnapshot(fs.db.tm)))
    assert [row[2] for _tid, row in found] == [b"B" * 100]
    assert fs.read_file("/shared") == \
        b"A" * 6000 + bytes(CHUNK_SIZE - 6000) + b"B" * 100
    assert _kinds(fs) == []


def test_a_second_handle_of_the_transaction_adopts_the_index(fs):
    """Two handles on one file in one transaction: the first bears the
    index; the second, current since it was opened under the creator's
    lock, finds that index before bearing one of its own."""
    tx = fs.begin()
    fs.creat(tx, "/two")
    first = fs.open("/two", O_RDWR, tx=tx)
    second = fs.open("/two", O_RDWR, tx=tx)
    first.write(b"1" * 9000)
    first.flush()
    second.seek(3 * CHUNK_SIZE)
    second.write(b"2" * 10)
    second.flush()
    fs.commit(tx)
    store = _store(fs, "/two")
    assert [ix.name for ix in store.table.info.indexes] == \
        [f"{store.table.name}_chunkno_idx"]
    assert fs.read_file("/two") == \
        b"1" * 9000 + bytes(3 * CHUNK_SIZE - 9000) + b"2" * 10
    assert _kinds(fs) == []

"""InversionFS: directories, files, metadata, atomicity."""

import pytest

from repro.core.checker import ConsistencyChecker
from repro.core.constants import CHUNK_SIZE, O_CREAT, O_RDWR, TYPE_DIRECTORY
from repro.core.filesystem import InversionFS
from repro.errors import (
    DirectoryNotEmptyError,
    FileExistsError_,
    FileNotFoundError_,
    FileTypeError,
    IsADirectoryError_,
    NotADirectoryError_,
)


def test_mkfs_then_attach(db):
    fs = InversionFS.mkfs(db)
    again = InversionFS.attach(db)
    assert again.namespace.root_fileid == fs.namespace.root_fileid


def test_attach_non_inversion_database_rejected(db):
    with pytest.raises(FileNotFoundError_):
        InversionFS.attach(db)


def test_mkdir_and_readdir(fs):
    tx = fs.begin()
    fs.mkdir(tx, "/docs")
    fs.mkdir(tx, "/docs/papers")
    fs.commit(tx)
    assert fs.readdir("/") == ["docs"]
    assert fs.readdir("/docs") == ["papers"]
    assert fs.stat("/docs").type == TYPE_DIRECTORY


def test_creat_in_missing_dir_rejected(fs):
    tx = fs.begin()
    with pytest.raises(FileNotFoundError_):
        fs.creat(tx, "/nowhere/f")
    fs.abort(tx)


def test_creat_through_file_rejected(fs, client):
    fd = client.p_creat("/plainfile")
    client.p_close(fd)
    tx = fs.begin()
    with pytest.raises(NotADirectoryError_):
        fs.creat(tx, "/plainfile/child")
    fs.abort(tx)


def test_duplicate_creat_rejected(fs):
    tx = fs.begin()
    fs.creat(tx, "/f")
    with pytest.raises(FileExistsError_):
        fs.creat(tx, "/f")
    fs.abort(tx)


def test_open_creat_flag(fs):
    tx = fs.begin()
    with fs.open("/new", O_RDWR | O_CREAT, tx=tx) as f:
        f.write(b"fresh")
    fs.commit(tx)
    assert fs.read_file("/new") == b"fresh"


def test_open_directory_rejected(fs):
    tx = fs.begin()
    fs.mkdir(tx, "/d")
    fs.commit(tx)
    with pytest.raises(IsADirectoryError_):
        fs.open("/d")


@pytest.mark.parametrize("op", [
    lambda c: c.p_reflink("/d", "/copy"),
    lambda c: c.p_concat(["/d"], "/copy"),
    lambda c: c.p_slice("/d", 0, 0, "/copy"),
    lambda c: c.p_truncate("/d", 0),
], ids=["reflink", "concat", "slice", "truncate"])
def test_structural_op_on_a_directory_is_refused_as_one(client, op):
    """Only a plain file has a chunk table.  A directory source used to
    fail the lookup of its table with a TableError — a DbError, which a
    client cannot tell from corruption."""
    client.p_mkdir("/d")
    with pytest.raises(IsADirectoryError_):
        op(client)
    assert client.p_readdir("/") == ["d"]


def test_an_aligned_shrink_keeps_the_last_chunk(fs):
    """Shrinking to a chunk boundary deletes every chunk past it.  When
    the new last chunk is a hole it is written as zeros, as growing
    does: a trailing hole is what the checker calls a size mismatch."""
    tx = fs.begin()
    fs.write_file(tx, "/f", b"x" * CHUNK_SIZE)
    fs.truncate(tx, "/f", 3 * CHUNK_SIZE)           # chunk 1 is a hole
    fs.truncate(tx, "/f", 2 * CHUNK_SIZE)
    fs.commit(tx)
    assert fs.read_file("/f") == b"x" * CHUNK_SIZE + bytes(CHUNK_SIZE)
    ConsistencyChecker(fs).raise_if_corrupt()


def test_unlink_directory_rejected(fs):
    tx = fs.begin()
    fs.mkdir(tx, "/d")
    with pytest.raises(IsADirectoryError_):
        fs.unlink(tx, "/d")
    fs.abort(tx)


def test_rmdir_nonempty_rejected(fs, client):
    client.p_mkdir("/d")
    fd = client.p_creat("/d/f")
    client.p_close(fd)
    tx = fs.begin()
    with pytest.raises(DirectoryNotEmptyError):
        fs.rmdir(tx, "/d")
    fs.abort(tx)


def test_rmdir_empty(fs, client):
    client.p_mkdir("/d")
    client.p_mkdir("/d/sub")
    tx = fs.begin()
    fs.rmdir(tx, "/d/sub")
    fs.commit(tx)
    assert fs.readdir("/d") == []


def test_creation_is_atomic_namespace_plus_attributes(fs):
    """"When a new file is created in a directory, the directory …
    must be updated, and the new file must be created.  If only one of
    these operations takes place, then the file system's structure is
    corrupt" — an abort must undo all three inserts."""
    tx = fs.begin()
    fileid = fs.creat(tx, "/half")
    fs.abort(tx)
    assert not fs.exists("/half")
    tx2 = fs.begin()
    snap = fs.db.snapshot(tx2)
    assert fs.fileatt.get_entry(fileid, snap, tx2) is None
    fs.commit(tx2)


def test_write_file_overwrite_semantics(fs):
    tx = fs.begin()
    fs.write_file(tx, "/w", b"version one")
    fs.commit(tx)
    tx2 = fs.begin()
    fs.write_file(tx2, "/w", b"TWO")
    fs.commit(tx2)
    # Overwrite-in-place of the prefix; the file keeps its length.
    assert fs.read_file("/w") == b"TWOsion one"


def test_set_file_type_requires_defined_type(fs, client):
    fd = client.p_creat("/img")
    client.p_close(fd)
    tx = fs.begin()
    with pytest.raises(FileTypeError):
        fs.set_file_type(tx, "/img", "undeclared")
    fs.db.catalog.define_type(tx, "declared")
    fs.set_file_type(tx, "/img", "declared")
    fs.commit(tx)
    assert fs.stat("/img").type == "declared"


def test_owner_recorded(fs):
    tx = fs.begin()
    fs.creat(tx, "/mine", owner="mao")
    fs.commit(tx)
    assert fs.stat("/mine").owner == "mao"


def test_file_on_named_device(fs):
    fs.db.add_device("juke0", "jukebox")
    tx = fs.begin()
    fileid = fs.creat(tx, "/archive.dat", device="juke0")
    with fs.open("/archive.dat", O_RDWR, tx=tx) as f:
        f.write(b"on optical media")
    fs.commit(tx)
    from repro.core.chunks import chunk_table_name
    assert fs.db.switch.get("juke0").relation_exists(chunk_table_name(fileid))
    assert fs.read_file("/archive.dat") == b"on optical media"


def test_path_of(fs, client):
    client.p_mkdir("/a")
    fd = client.p_creat("/a/b")
    client.p_close(fd)
    assert fs.path_of(fs.resolve("/a/b")) == "/a/b"

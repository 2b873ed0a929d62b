"""The command-line tool (python -m repro.fs)."""

import pytest

from repro.fs.__main__ import main


@pytest.fixture
def dbdir(tmp_path):
    path = str(tmp_path / "clidb")
    assert main([path, "mkfs"]) == 0
    return path


def run(dbdir, *argv) -> int:
    return main([dbdir, *argv])


def test_mkfs_ls_empty(dbdir, capsys):
    assert run(dbdir, "ls") == 0
    assert capsys.readouterr().out == ""


def test_put_cat_roundtrip(dbdir, tmp_path, capsys):
    local = tmp_path / "x.txt"
    local.write_bytes(b"cli contents")
    assert run(dbdir, "put", "/x.txt", str(local)) == 0
    capsys.readouterr()
    assert run(dbdir, "cat", "/x.txt") == 0
    assert capsys.readouterr().out == "cli contents"


def test_mkdir_ls_stat(dbdir, tmp_path, capsys):
    run(dbdir, "mkdir", "/d")
    local = tmp_path / "y"
    local.write_bytes(b"12345")
    run(dbdir, "put", "/d/y", str(local))
    capsys.readouterr()
    assert run(dbdir, "ls", "/d") == 0
    out = capsys.readouterr().out
    assert "y" in out and "5" in out
    assert run(dbdir, "stat", "/d/y") == 0
    out = capsys.readouterr().out
    assert "size    : 5" in out
    assert "table   : inv" in out


def test_rm_and_time_travel_cat(dbdir, tmp_path, capsys):
    local = tmp_path / "z"
    local.write_bytes(b"undelete me")
    run(dbdir, "put", "/z", str(local))
    capsys.readouterr()
    assert run(dbdir, "rm", "/z") == 0
    out = capsys.readouterr().out
    asof = out.strip().rsplit(" ", 1)[-1].rstrip(")")
    assert run(dbdir, "cat", "/z") == 1  # gone now
    capsys.readouterr()
    assert run(dbdir, "cat", "/z", "--asof", asof) == 0
    assert capsys.readouterr().out == "undelete me"


def test_query_command(dbdir, tmp_path, capsys):
    local = tmp_path / "q"
    local.write_bytes(b"abc")
    run(dbdir, "put", "/q", str(local))
    capsys.readouterr()
    assert run(dbdir, "query",
               'retrieve (filename, size(file)) where size(file) > 0') == 0
    assert "q\t3" in capsys.readouterr().out


def test_history_command(dbdir, tmp_path, capsys):
    local = tmp_path / "h"
    for generation in (b"one", b"two!"):
        local.write_bytes(generation)
        run(dbdir, "put", "/h", str(local))
    capsys.readouterr()
    assert run(dbdir, "history", "/h") == 0
    out = capsys.readouterr().out
    assert "2 committed change instants" in out


def test_check_command(dbdir, tmp_path, capsys):
    local = tmp_path / "c"
    local.write_bytes(b"fine")
    run(dbdir, "put", "/c", str(local))
    capsys.readouterr()
    assert run(dbdir, "check") == 0
    assert "checked 1 files" in capsys.readouterr().out


def test_check_command_reports_planted_references(dbdir, capsys):
    """fsck inherits reference integrity: one pointer row whose pinned
    version exists nowhere, one that resolves but that no ``vfsref``
    row registers."""
    from repro.core.chunks import ChunkStore, encode_ref
    from repro.core.filesystem import InversionFS
    from repro.db.database import Database
    db = Database.open(dbdir)
    fs = InversionFS.attach(db)
    tx = fs.begin()
    fs.write_file(tx, "/src", b"s" * 100)
    fs.write_file(tx, "/dst", b"")
    fs.commit(tx)
    src = fs.resolve("/src")
    (_tid, src_xmin, _xmax, _values), = ChunkStore(
        db, src, None).table.heap.scan_all_versions()
    tx = fs.begin()
    store = ChunkStore(db, fs.resolve("/dst"), tx)
    store.table.lock_exclusive(tx)
    store.table.insert_many(tx, [
        (0, -src, encode_ref(src, 0, 999_999_999)),
        (1, -src, encode_ref(src, 0, src_xmin))])
    fs.commit(tx)
    db.close()
    assert run(dbdir, "check") == 1
    out = capsys.readouterr().out
    assert "chunk 0: dangling-reference" in out
    assert "chunk 1: unregistered-reference" in out


def test_vacuum_command(dbdir, tmp_path, capsys):
    local = tmp_path / "v"
    for generation in (b"g0", b"g1"):
        local.write_bytes(generation)
        run(dbdir, "put", "/v", str(local))
    capsys.readouterr()
    assert run(dbdir, "vacuum", "/v") == 0
    assert "archived=1" in capsys.readouterr().out


def test_devices_command(dbdir, capsys):
    assert run(dbdir, "devices") == 0
    assert "magnetic0" in capsys.readouterr().out


def test_error_paths(dbdir, capsys):
    assert run(dbdir, "cat", "/missing") == 1
    assert "error:" in capsys.readouterr().err

"""Namespace management — including the paper's Table 1."""

import pytest

from repro.core.constants import ROOT_PARENT
from repro.core.naming import basename_dirname, split_path
from repro.errors import FileExistsError_, FileNotFoundError_, InversionError


def test_split_path():
    assert split_path("/etc/passwd") == ["etc", "passwd"]
    assert split_path("/") == []
    assert split_path("//a//b/") == ["a", "b"]


def test_relative_path_rejected():
    with pytest.raises(FileNotFoundError_):
        split_path("etc/passwd")


def test_basename_dirname():
    assert basename_dirname("/etc/passwd") == ("/etc", "passwd")
    assert basename_dirname("/top") == ("/", "top")
    with pytest.raises(FileNotFoundError_):
        basename_dirname("/")


def test_root_entry_exists(fs):
    """"The root directory, named '/', appears in every POSTGRES
    database as shipped."""
    snap = fs._snap(None)
    entry = fs.namespace.lookup_entry(ROOT_PARENT, "", snap)
    assert entry is not None
    assert entry[1][2] == fs.namespace.root_fileid


def test_table1_etc_passwd_shape(fs, client):
    """Reproduce Table 1: the naming rows for /etc/passwd form a chain
    ('' → etc → passwd) linked through parentid."""
    client.p_mkdir("/etc")
    fd = client.p_creat("/etc/passwd")
    client.p_close(fd)
    tx = fs.begin()
    rows = {r[0]: r for r in fs.db.iter_table_rows("naming", tx)}
    fs.commit(tx)
    root = rows[""]
    etc = rows["etc"]
    passwd = rows["passwd"]
    assert root[1] == ROOT_PARENT
    assert etc[1] == root[2]       # etc's parentid = root's file id
    assert passwd[1] == etc[2]     # passwd's parentid = etc's file id
    assert passwd[2] != etc[2] != root[2]


def test_resolve_and_construct_are_inverses(fs, client):
    client.p_mkdir("/a")
    client.p_mkdir("/a/b")
    fd = client.p_creat("/a/b/c.txt")
    client.p_close(fd)
    tx = fs.begin()
    snap = fs.db.snapshot(tx)
    fileid = fs.namespace.resolve("/a/b/c.txt", snap, tx)
    assert fs.namespace.construct_path(fileid, snap, tx) == "/a/b/c.txt"
    assert fs.namespace.construct_path(fs.namespace.root_fileid, snap, tx) == "/"
    fs.commit(tx)


def test_resolve_missing(fs):
    with pytest.raises(FileNotFoundError_):
        fs.resolve("/no/such/file")
    assert not fs.exists("/no/such/file")


def test_duplicate_entry_rejected(fs):
    tx = fs.begin()
    fs.namespace.add_entry(tx, fs.namespace.root_fileid, "x", 12345)
    with pytest.raises(FileExistsError_):
        fs.namespace.add_entry(tx, fs.namespace.root_fileid, "x", 67890)
    fs.abort(tx)


def test_children_sorted_by_index(fs, client):
    for name in ("zeta", "alpha", "mid"):
        client.p_mkdir(f"/{name}")
    tx = fs.begin()
    names = [n for n, _f in fs.namespace.children(
        fs.namespace.root_fileid, fs.db.snapshot(tx), tx)]
    fs.commit(tx)
    assert names == sorted(names)


def test_listing_is_in_name_order_paged_or_not_now_or_then(fs, client):
    """One listing path: mixed-case and non-ASCII names come back in
    code-point order whole or paged, and a time-travel listing whose
    entries are split between the live table and the archive is still
    one sorted run (pages cut on it neither skip nor repeat a name)."""
    names = ["b", "Z", "a", "é", "c", "B"]
    for name in names:
        client.p_close(client.p_creat(f"/{name}"))
    then = fs.db.clock.now()
    fs.db.clock.advance(1.0)
    client.p_unlink("/a")
    client.p_unlink("/c")
    fs.db.vacuum("naming")
    assert fs.readdir("/") == sorted(set(names) - {"a", "c"})
    assert fs.readdir("/", timestamp=then) == sorted(names)
    paged, cookie = [], None
    while True:
        page, cookie = fs.readdir_page("/", timestamp=then, cookie=cookie,
                                       limit=2)
        paged += page
        if cookie is None:
            break
    assert paged == sorted(names)


def test_same_name_in_different_directories(fs, client):
    client.p_mkdir("/d1")
    client.p_mkdir("/d2")
    for d in ("d1", "d2"):
        fd = client.p_creat(f"/{d}/same.txt")
        client.p_close(fd)
    assert fs.resolve("/d1/same.txt") != fs.resolve("/d2/same.txt")


def test_rename_entry(fs, client):
    client.p_mkdir("/src")
    client.p_mkdir("/dst")
    fd = client.p_creat("/src/f")
    client.p_close(fd)
    old_id = fs.resolve("/src/f")
    client.p_rename("/src/f", "/dst/g")
    assert fs.resolve("/dst/g") == old_id
    assert not fs.exists("/src/f")


def test_rename_over_existing_rejected(fs, client):
    fd = client.p_creat("/a"); client.p_close(fd)
    fd = client.p_creat("/b"); client.p_close(fd)
    with pytest.raises(FileExistsError_):
        client.p_rename("/a", "/b")


def test_rename_into_own_subtree_rejected(fs, client):
    """POSIX EINVAL: a directory moved below itself would hang from
    nowhere — ``/`` would stop listing it and its subtree would be
    unreachable, with every row still in place."""
    client.p_mkdir("/a")
    client.p_mkdir("/a/b")
    with pytest.raises(InversionError, match="'/a'.*'/a/b/c'"):
        client.p_rename("/a", "/a/b/c")
    assert fs.readdir("/") == ["a"] and fs.readdir("/a") == ["b"]


def test_overlong_name_rejected_cleanly(fs, client):
    from repro.core.naming import MAX_FILENAME_BYTES
    with pytest.raises(FileNotFoundError_):
        client.p_creat("/" + "x" * (MAX_FILENAME_BYTES + 1))
    # And multibyte names are measured in bytes, not characters.
    ok_name = "é" * (MAX_FILENAME_BYTES // 2)
    fd = client.p_creat("/" + ok_name)
    client.p_close(fd)
    assert fs.exists("/" + ok_name)


def test_embedded_nul_rejected(fs):
    tx = fs.begin()
    with pytest.raises(FileNotFoundError_):
        fs.namespace.add_entry(tx, fs.namespace.root_fileid, "a\0b", 1)
    fs.abort(tx)


def test_remove_entry_returns_fileid(fs, client):
    fd = client.p_creat("/gone")
    client.p_close(fd)
    fileid = fs.resolve("/gone")
    tx = fs.begin()
    assert fs.namespace.remove_entry(tx, fs.namespace.root_fileid,
                                     "gone") == fileid
    fs.commit(tx)

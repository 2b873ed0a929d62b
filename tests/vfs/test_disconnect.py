"""Regression (satellite): a session dying mid-VFS-transaction with
buffered multi-file writes must be fully aborted — no half-published
build tree, no leaked locks, no orphan names."""

from __future__ import annotations

import pytest

from repro.cache import session_cache_factory
from repro.core.client import RemoteInversionClient
from repro.core.constants import O_CREAT, O_RDWR
from repro.core.filesystem import InversionFS
from repro.core.library import InversionClient
from repro.core.server import InversionServer
from repro.db.database import Database
from repro.errors import FileNotFoundError_
from repro.sim.clock import SimClock
from repro.sim.network import ETHERNET_10MBIT, NetworkModel
from repro.vfs import VFS


def _stack(tmp_path, **caching):
    clock = SimClock()
    db = Database.create(str(tmp_path / "db"), clock=clock)
    fs = InversionFS.mkfs(db)
    server = InversionServer(fs)
    network = NetworkModel(clock=clock, params=ETHERNET_10MBIT)
    client = RemoteInversionClient(server, network, **caching)
    return db, fs, server, client


@pytest.mark.parametrize("caching", [{}, {"cache_factory":
                                          session_cache_factory(64, 32)}],
                         ids=["plain", "cached"])
def test_disconnect_aborts_open_vfs_transaction(tmp_path, caching):
    db, fs, server, client = _stack(tmp_path, **caching)
    vfs = VFS(client)
    vfs.write_file("/stable", b"before")

    vfs.begin()
    vfs.mkdir("/build.tmp")
    vfs.mkdir("/build.tmp/m0")
    vfs.write_file("/build.tmp/m0/a.o", b"A" * 5000)
    vfs.write_file("/build.tmp/m0/b.o", b"B" * 5000)
    fd = vfs.open("/build.tmp/m0/c.o", O_RDWR | O_CREAT)
    vfs.write(fd, b"C" * 9000)                  # stays buffered
    vfs.rename("/build.tmp", "/build")

    # The session dies with the group open and writes buffered.
    server.disconnect(client._link.conn)

    # A fresh session sees no trace of the half-built tree.
    observer = InversionClient(fs)
    assert observer.p_readdir("/") == ["stable"]
    for path in ("/build", "/build.tmp", "/build.tmp/m0/a.o"):
        with pytest.raises(FileNotFoundError_):
            fs.stat(path)
    assert fs.read_file("/stable") == b"before"

    # No locks survive the teardown: the same paths are immediately
    # re-creatable by the next writer.
    observer.p_mkdir("/build.tmp")
    observer.p_close(observer.p_creat("/build.tmp/fresh"))
    assert observer.p_readdir("/build.tmp") == ["fresh"]
    db.close()


def test_disconnect_aborts_structural_ops_in_group(tmp_path):
    """Reflinks and truncates inside the dying session's group vanish
    with it — including their vfsref bookkeeping's visibility."""
    db, fs, server, client = _stack(tmp_path)
    vfs = VFS(client)
    vfs.write_file("/base", b"x" * 20000)

    vfs.begin()
    vfs.reflink("/base", "/snap")
    vfs.truncate("/base", 100)
    server.disconnect(client._link.conn)

    with pytest.raises(FileNotFoundError_):
        fs.stat("/snap")
    assert fs.stat("/base").size == 20000
    db.close()

"""Failure injection around the commit protocol.

The no-overwrite commit is: (1) force the transaction's dirty pages,
(2) append the commit record to the status file.  A crash at any point
before (2) completes must roll the transaction back; after (2), it must
survive.  These tests inject failures at the boundary.
"""

import pytest

from repro.core.filesystem import InversionFS
from repro.core.library import InversionClient
from repro.db.database import Database
from repro.errors import DeviceError


def build(tmp_path):
    db = Database.create(str(tmp_path / "d"))
    fs = InversionFS.mkfs(db)
    return db, fs, InversionClient(fs)


def reopen(tmp_path):
    db = Database.open(str(tmp_path / "d"))
    return db, InversionFS.attach(db)


def test_crash_after_data_flush_before_status(tmp_path):
    """Data pages durable, commit record missing → rolled back."""
    db, fs, client = build(tmp_path)
    fd = client.p_creat("/base")
    client.p_write(fd, b"committed")
    client.p_close(fd)

    tx = db.begin()
    fs.write_file(tx, "/torn", b"almost committed")
    db.buffers.flush_all()          # step (1) happened...
    db.simulate_crash()             # ...crash before step (2)

    db2, fs2 = reopen(tmp_path)
    assert fs2.read_file("/base") == b"committed"
    assert not fs2.exists("/torn")
    db2.close()


def test_crash_after_status_append_means_committed(tmp_path):
    """Once the status record is durable, the transaction survives even
    though the in-memory caches vanish."""
    db, fs, client = build(tmp_path)
    tx = db.begin()
    fs.write_file(tx, "/kept", b"safe and sound")
    db.commit(tx)                   # both steps completed
    db.simulate_crash()
    db2, fs2 = reopen(tmp_path)
    assert fs2.read_file("/kept") == b"safe and sound"
    db2.close()


def test_status_write_failure_fails_commit_but_data_stays_invisible(tmp_path):
    """If the status append itself dies, the commit call errors and —
    after a crash — the transaction is invisible: the protocol never
    declares success early."""
    db, fs, client = build(tmp_path)
    root = db.switch.get("magnetic0")
    original = root.sync_append_meta

    def broken(tag, data):
        raise DeviceError("status device failed")
    root.sync_append_meta = broken
    tx = db.begin()
    fs.write_file(tx, "/limbo", b"never acknowledged")
    with pytest.raises(DeviceError):
        db.commit(tx)
    root.sync_append_meta = original
    db.simulate_crash()

    db2, fs2 = reopen(tmp_path)
    assert not fs2.exists("/limbo")
    db2.close()


def test_data_flush_failure_aborts_cleanly(tmp_path):
    """A device error while forcing pages surfaces to the caller; the
    transaction can be aborted and the system keeps working."""
    db, fs, client = build(tmp_path)
    fd = client.p_creat("/before")
    client.p_write(fd, b"ok")
    client.p_close(fd)

    dev = db.switch.get("magnetic0")
    original = dev.write_pages
    calls = {"n": 0}

    def flaky(relname, start, datas):
        calls["n"] += 1
        if calls["n"] == 1:
            raise DeviceError("injected write failure")
        original(relname, start, datas)
    dev.write_pages = flaky

    tx = db.begin()
    fs.write_file(tx, "/doomed", b"x" * 10_000)
    with pytest.raises(DeviceError):
        db.commit(tx)
    dev.write_pages = original
    db.abort(tx)

    # The system is still usable afterwards.
    fd = client.p_creat("/after")
    client.p_write(fd, b"recovered")
    client.p_close(fd)
    assert fs.read_file("/after") == b"recovered"
    assert fs.read_file("/before") == b"ok"


def test_aborted_transactions_never_reappear_after_many_crashes(tmp_path):
    db, fs, client = build(tmp_path)
    for round_no in range(3):
        tx = db.begin()
        fs.write_file(tx, f"/commit{round_no}", b"yes")
        db.commit(tx)
        tx = db.begin()
        fs.write_file(tx, f"/abort{round_no}", b"no")
        db.abort(tx)
        db.simulate_crash()
        db, fs = reopen(tmp_path)
        client = InversionClient(fs)
    names = fs.readdir("/")
    assert names == ["commit0", "commit1", "commit2"]
    db.close()


def test_vacuum_after_crash_still_safe(tmp_path):
    """Crash, reopen, vacuum: archived history must match what time
    travel saw before the crash."""
    db, fs, client = build(tmp_path)
    fd = client.p_creat("/f")
    client.p_write(fd, b"gen-zero")
    client.p_close(fd)
    t0 = db.clock.now()
    fd = client.p_open("/f", 2)
    client.p_write(fd, b"gen-one!")
    client.p_close(fd)
    db.simulate_crash()

    db2, fs2 = reopen(tmp_path)
    from repro.core.chunks import chunk_table_name
    table = chunk_table_name(fs2.resolve("/f"))
    stats = db2.vacuum(table)
    assert stats.archived >= 1
    assert fs2.read_file("/f") == b"gen-one!"
    assert fs2.read_file("/f", timestamp=t0) == b"gen-zero"
    db2.close()

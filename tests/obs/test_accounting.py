"""TxAccountant: attribution by current transaction, explicit-xid
charges, and the report rendering CI smokes."""

import threading

from repro.bench.report import format_tx_breakdown
from repro.obs.accounting import FIELDS, TxAccountant


def test_charge_books_to_current_xid():
    acct = TxAccountant()
    acct.begin(7)
    acct.charge("buffer_hits")
    acct.charge("device_pages_read", 3)
    acct.end(7)
    row = acct.row(7)
    assert row["buffer_hits"] == 1
    assert row["device_pages_read"] == 3


def test_charge_outside_transaction_dropped():
    acct = TxAccountant()
    acct.charge("buffer_hits")          # bootstrap read: nobody pays
    acct.begin(1)
    acct.end(1)
    acct.charge("buffer_hits")          # after end: dropped too
    assert acct.row(1)["buffer_hits"] == 0
    assert acct.breakdown() == {1: dict.fromkeys(FIELDS, 0)}


def test_charge_xid_creates_row():
    acct = TxAccountant()
    acct.charge_xid(9, "lock_waits")
    acct.charge_xid(9, "lock_wait_seconds", 0.25)
    assert acct.row(9)["lock_waits"] == 1
    assert acct.row(9)["lock_wait_seconds"] == 0.25


def test_breakdown_in_begin_order():
    acct = TxAccountant()
    for xid in (4, 2, 9):
        acct.begin(xid)
        acct.charge("status_forces")
        acct.end(xid)
    assert list(acct.breakdown()) == [4, 2, 9]


def test_threads_attribute_independently():
    acct = TxAccountant()
    acct.begin(1)

    def other():
        acct.begin(2)
        acct.charge("buffer_misses")
        acct.end(2)

    t = threading.Thread(target=other)
    t.start()
    t.join()
    acct.charge("buffer_hits")
    assert acct.row(1) == {**dict.fromkeys(FIELDS, 0), "buffer_hits": 1}
    assert acct.row(2)["buffer_misses"] == 1


def test_end_only_clears_matching_xid():
    acct = TxAccountant()
    acct.begin(1)
    acct.end(99)                        # stale end from another path
    acct.charge("buffer_hits")
    assert acct.row(1)["buffer_hits"] == 1


def test_format_tx_breakdown_renders_all_fields():
    acct = TxAccountant()
    acct.begin(3)
    acct.charge("buffer_hits", 12)
    acct.charge("lock_wait_seconds", 0.125)
    acct.end(3)
    text = format_tx_breakdown(acct.breakdown())
    lines = text.splitlines()
    assert lines[2].split() == ["xid", "buf.hit", "buf.miss", "rd.ops",
                                "rd.pages", "wr.ops", "wr.pages",
                                "lk.waits", "lk.secs", "forces", "cc.hits"]
    row = [line for line in lines if line.lstrip().startswith("3")][0]
    assert "12" in row and "0.125" in row
    assert lines[-1].lstrip().startswith("total")


def test_live_database_attributes_commit_costs(tmp_path):
    """The end-to-end wiring: a committed transaction's durable work
    (device writes, the status-file force) lands on its own xid."""
    from repro.core.filesystem import InversionFS
    from repro.db.database import Database
    from repro.sim.clock import SimClock

    db = Database.create(str(tmp_path / "d"), clock=SimClock())
    fs = InversionFS.mkfs(db)
    tx = fs.begin()
    fs.mkdir(tx, "/a")
    fs.write_file(tx, "/a/f", b"x" * 10_000)
    fs.commit(tx)
    row = db.obs.tx.row(tx.xid)
    db.close()
    assert row["device_write_ops"] > 0
    assert row["device_pages_written"] >= row["device_write_ops"]
    assert row["status_forces"] >= 1
    assert row["buffer_hits"] + row["buffer_misses"] > 0


def test_a_group_close_is_booked_to_the_transaction_that_closed_it(tmp_path):
    """Under a group-commit window a commit is an enqueue: the sweep and
    the force land on whichever transaction's call closed the group."""
    from repro.core.filesystem import InversionFS
    from repro.db.database import Database
    from repro.sim.clock import SimClock

    clock = SimClock()
    db = Database.create(str(tmp_path / "d"), clock=clock)
    fs = InversionFS.mkfs(db)
    db.tm.group_commit_window = 0.05
    first = fs.begin()
    fs.write_file(first, "/a", b"x" * 10_000)
    fs.commit(first)                      # queued: nothing written yet
    second = fs.begin()
    fs.write_file(second, "/b", b"y" * 10_000)
    clock.advance(1.0)                    # the window elapses
    swept0 = db.tm.stats.group_sweep_pages
    fs.commit(second)                     # closes first's group on the way in
    rows = db.obs.tx.breakdown()
    swept = db.tm.stats.group_sweep_pages - swept0
    db.close()
    assert rows[first.xid]["device_pages_written"] == 0
    assert rows[first.xid]["status_forces"] == 0
    assert rows[second.xid]["device_pages_written"] == swept > 0
    assert rows[second.xid]["status_forces"] == 1

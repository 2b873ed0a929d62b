"""Table abstraction: indexes maintained on writes, MVCC reads."""

import pytest

from repro.db.tuples import Column, Schema
from repro.errors import TableError

SCHEMA = Schema([Column("k", "int4"), Column("name", "text")])


@pytest.fixture
def table_env(db):
    tx = db.begin()
    table = db.create_table(tx, "t", SCHEMA, indexes=[["k"], ["k", "name"]])
    db.commit(tx)
    return db, table


def test_insert_maintains_all_indexes(table_env):
    db, _ = table_env
    tx = db.begin()
    table = db.table("t", tx)
    table.insert(tx, (5, "five"))
    db.commit(tx)
    tx2 = db.begin()
    t2 = db.table("t", tx2)
    snap = db.snapshot(tx2)
    assert [r for _t, r in t2.index_eq(("k",), (5,), snap, tx2)] == [(5, "five")]
    assert [r for _t, r in t2.index_eq(("k", "name"), (5, "five"), snap, tx2)] \
        == [(5, "five")]
    db.commit(tx2)


def test_update_leaves_old_version_indexed_for_history(table_env, clock):
    db, _ = table_env
    tx = db.begin()
    table = db.table("t", tx)
    tid = table.insert(tx, (1, "old"))
    db.commit(tx)
    t0 = clock.now()
    tx2 = db.begin()
    db.table("t", tx2).update(tx2, tid, (1, "new"))
    db.commit(tx2)
    now = [r for _t, r in db.table("t").index_eq(("k",), (1,),
                                                 db.asof(clock.now()))]
    then = [r for _t, r in db.table("t").index_eq(("k",), (1,), db.asof(t0))]
    assert now == [(1, "new")]
    assert then == [(1, "old")]


def test_index_eq_requires_matching_index(table_env):
    db, _ = table_env
    tx = db.begin()
    with pytest.raises(TableError):
        list(db.table("t", tx).index_eq(("name",), ("x",),
                                        db.snapshot(tx), tx))
    db.abort(tx)


def test_index_range_scan(table_env):
    db, _ = table_env
    tx = db.begin()
    table = db.table("t", tx)
    for i in range(20):
        table.insert(tx, (i, f"n{i}"))
    db.commit(tx)
    tx2 = db.begin()
    rows = [r for _t, r in db.table("t", tx2).index_range(
        ("k",), (5,), (8,), db.snapshot(tx2), tx2)]
    assert [r[0] for r in rows] == [5, 6, 7, 8]
    db.commit(tx2)


def test_prefix_range_on_composite_index(table_env):
    db, _ = table_env
    tx = db.begin()
    table = db.table("t", tx)
    for k, name in ((1, "a"), (1, "b"), (2, "a")):
        table.insert(tx, (k, name))
    db.commit(tx)
    tx2 = db.begin()
    rows = [r for _t, r in db.table("t", tx2).index_range(
        ("k", "name"), (1,), (1,), db.snapshot(tx2), tx2)]
    assert rows == [(1, "a"), (1, "b")]
    db.commit(tx2)


def test_writers_take_exclusive_lock(table_env):
    db, _ = table_env
    tx = db.begin()
    table = db.table("t", tx)
    table.insert(tx, (1, "x"))
    resource = ("rel", table.info.oid)
    assert db.locks.holders(resource)[tx.xid] == "X"
    db.commit(tx)
    assert db.locks.holders(resource) == {}


def test_readers_take_no_locks(table_env):
    """Readers are MVCC: snapshot visibility replaces shared locks, so
    scans never block behind writers."""
    db, _ = table_env
    tx = db.begin()
    table = db.table("t", tx)
    list(table.scan(db.snapshot(tx), tx))
    assert tx.xid not in db.locks.holders(("rel", table.info.oid))
    db.commit(tx)


def test_row_count(table_env):
    db, _ = table_env
    tx = db.begin()
    table = db.table("t", tx)
    for i in range(7):
        table.insert(tx, (i, "x"))
    db.commit(tx)
    tx2 = db.begin()
    assert db.table("t", tx2).row_count(db.snapshot(tx2)) == 7
    db.commit(tx2)


def test_newest_version_found_first(db, monkeypatch):
    """index_eq and index_range_newest must not pay heap fetches for
    superseded versions to find the live one (fetch order is
    newest-first), also past heap page 255, where a little-endian TID
    suffix sorted TID(256, 0) before TID(255, 0)."""
    pad = "x" * 7000                         # one row per heap page
    tx = db.begin()
    table = db.create_table(tx, "v", SCHEMA, indexes=[["k"]])
    while table.heap.npages() < 250:
        table.insert(tx, (0, pad))
    tids = [table.insert(tx, (1, "v0" + pad))]
    for i in range(1, 51):
        tids.append(table.update(tx, tids[-1], (1, f"v{i}" + pad)))
    db.commit(tx)
    assert [t.pageno for t in tids] == list(range(250, 301))

    tx2 = db.begin()
    table = db.table("v", tx2)
    snap = db.snapshot(tx2)
    live = (tids[-1], (1, "v50" + pad))
    assert list(table.index_eq(("k",), (1,), snap, tx2)) == [live]
    fetched = []
    fetch = table.heap.fetch
    monkeypatch.setattr(table.heap, "fetch",
                        lambda tid, s: fetched.append(tid) or fetch(tid, s))
    assert next(table.index_eq(("k",), (1,), snap, tx2)) == live
    assert fetched == [tids[-1]]
    fetched.clear()
    assert list(table.index_range_newest(("k",), (1,), (1,), snap,
                                         tx2)) == [live]
    assert fetched == [tids[-1]]
    db.commit(tx2)

"""The assembled database: DDL, transactions, crash recovery."""

import json
import os

import pytest

from repro.db.database import INDEX_KEY_FORMAT, Database
from repro.db.tuples import Column, Schema
from repro.errors import CatalogError, TableError
from repro.sim.clock import SimClock

SCHEMA = Schema([Column("k", "int4"), Column("v", "text")])


def test_create_then_open(tmp_path):
    path = str(tmp_path / "d")
    db = Database.create(path)
    db.close()
    db2 = Database.open(path)
    assert "pg_class" in db2.list_tables()
    db2.close()


def test_create_twice_rejected(tmp_path):
    path = str(tmp_path / "d")
    Database.create(path).close()
    with pytest.raises(CatalogError):
        Database.create(path)


def test_open_missing_rejected(tmp_path):
    with pytest.raises(CatalogError):
        Database.open(str(tmp_path / "nope"))


@pytest.mark.parametrize("stamp", [None, "key+tid<IH"])
def test_open_refuses_another_index_key_format(tmp_path, stamp):
    """An index written with another TID suffix would decode every TID
    wrongly, so open refuses it and says why."""
    path = str(tmp_path / "d")
    Database.create(path).close()
    config_path = os.path.join(path, "devices.json")
    with open(config_path, encoding="utf-8") as f:
        config = json.load(f)
    assert config.pop("index_key_format") == INDEX_KEY_FORMAT
    if stamp is not None:
        config["index_key_format"] = stamp
    with open(config_path, "w", encoding="utf-8") as f:
        json.dump(config, f)
    with pytest.raises(CatalogError) as err:
        Database.open(path)
    message = str(err.value)
    assert config_path in message
    assert "key+tid<IH" in message and INDEX_KEY_FORMAT in message


def test_table_lifecycle(db):
    tx = db.begin()
    table = db.create_table(tx, "t", SCHEMA, indexes=[["k"]])
    table.insert(tx, (1, "one"))
    db.commit(tx)
    assert db.table_exists("t")
    tx2 = db.begin()
    assert [r for _t, r in db.table("t", tx2).scan(db.snapshot(tx2), tx2)] \
        == [(1, "one")]
    db.commit(tx2)


def test_duplicate_table_rejected(db):
    tx = db.begin()
    db.create_table(tx, "t", SCHEMA)
    with pytest.raises(TableError):
        db.create_table(tx, "t", SCHEMA)
    db.abort(tx)


def test_aborted_ddl_vanishes(db):
    tx = db.begin()
    db.create_table(tx, "ghost", SCHEMA)
    assert db.table_exists("ghost", tx)
    db.abort(tx)
    tx2 = db.begin()
    assert not db.table_exists("ghost", tx2)
    db.commit(tx2)


def test_drop_table(db):
    tx = db.begin()
    db.create_table(tx, "t", SCHEMA, indexes=[["k"]])
    db.commit(tx)
    tx2 = db.begin()
    db.drop_table(tx2, "t")
    db.commit(tx2)
    assert not db.table_exists("t")
    assert not db.switch.get("magnetic0").relation_exists("t")


def test_drop_aborted_keeps_table(db):
    tx = db.begin()
    db.create_table(tx, "t", SCHEMA)
    db.commit(tx)
    tx2 = db.begin()
    db.drop_table(tx2, "t")
    db.abort(tx2)
    assert db.table_exists("t")
    assert db.switch.get("magnetic0").relation_exists("t")


def test_create_index_populates_existing_rows(db):
    tx = db.begin()
    table = db.create_table(tx, "t", SCHEMA)
    for i in range(20):
        table.insert(tx, (i, f"v{i}"))
    db.commit(tx)
    tx2 = db.begin()
    db.create_index(tx2, "t", ["k"])
    db.commit(tx2)
    tx3 = db.begin()
    rows = list(db.table("t", tx3).index_eq(("k",), (7,),
                                            db.snapshot(tx3), tx3))
    assert [r for _t, r in rows] == [(7, "v7")]
    db.commit(tx3)


def test_crash_rolls_back_in_flight_transaction(tmp_path):
    path = str(tmp_path / "d")
    db = Database.create(path)
    tx = db.begin()
    table = db.create_table(tx, "t", SCHEMA)
    table.insert(tx, (1, "committed"))
    db.commit(tx)
    tx2 = db.begin()
    db.table("t", tx2).insert(tx2, (2, "lost"))
    db.buffers.flush_all()  # even durable pages stay invisible
    db.simulate_crash()

    db2 = Database.open(path)
    tx3 = db2.begin()
    rows = [r for _t, r in db2.table("t", tx3).scan(db2.snapshot(tx3), tx3)]
    assert rows == [(1, "committed")]
    db2.commit(tx3)
    db2.close()


def test_recovery_is_a_status_file_read(tmp_path):
    """'File system recovery is essentially instantaneous': opening the
    database after a crash does no table scans, only the status load."""
    path = str(tmp_path / "d")
    db = Database.create(path)
    tx = db.begin()
    t = db.create_table(tx, "t", SCHEMA)
    for i in range(200):
        t.insert(tx, (i, "x" * 100))
    db.commit(tx)
    db.simulate_crash()

    clock = SimClock()
    db2 = Database.open(path, clock=clock)
    # Opening resumes the clock past recorded history; the recovery
    # I/O itself is what it moved beyond that point.
    recovery_time = clock.now() - db2.tm.max_recorded_time()
    # Far below even ten page reads.
    assert recovery_time < 0.1
    report = db2.tm.recovery_report()
    assert report["committed"] >= 2
    db2.close()


def test_time_travel_across_reopen(tmp_path):
    path = str(tmp_path / "d")
    clock = SimClock()
    db = Database.create(path, clock=clock)
    tx = db.begin()
    t = db.create_table(tx, "t", SCHEMA)
    t.insert(tx, (1, "v1"))
    db.commit(tx)
    t_old = clock.now()
    tx2 = db.begin()
    t2 = db.table("t", tx2)
    tid = next(iter(t2.index_eq if False else t2.scan(db.snapshot(tx2), tx2)))[0]
    t2.update(tx2, tid, (1, "v2"))
    db.commit(tx2)
    db.close()

    db2 = Database.open(path, clock=clock)
    rows_now = [r for _t, r in db2.table("t").scan(
        db2.asof(clock.now()))]
    rows_then = [r for _t, r in db2.table("t").scan(db2.asof(t_old))]
    assert rows_now == [(1, "v2")]
    assert rows_then == [(1, "v1")]
    db2.close()


def test_add_device_persists(tmp_path):
    path = str(tmp_path / "d")
    db = Database.create(path)
    db.add_device("nvram0", "memdisk")
    assert "nvram0" in db.switch
    db.close()
    db2 = Database.open(path)
    assert "nvram0" in db2.switch
    db2.close()


def test_table_on_secondary_device(db):
    db.add_device("nvram0", "memdisk")
    tx = db.begin()
    table = db.create_table(tx, "fast", SCHEMA, device="nvram0")
    table.insert(tx, (1, "quick"))
    db.commit(tx)
    assert db.switch.get("nvram0").relation_exists("fast")
    tx2 = db.begin()
    assert [r for _t, r in db.table("fast", tx2).scan(db.snapshot(tx2), tx2)] \
        == [(1, "quick")]
    db.commit(tx2)


# -- physical drops ride the commit group -------------------------------------


def test_drop_waits_for_its_groups_force(tmp_path):
    """Under a group-commit window a drop is only queued when its
    commit returns: a crash before the group's force brings the table
    back, so its relation must still be on the device."""
    path = str(tmp_path / "d")
    db = Database.create(path, group_commit_window=60.0)
    tx = db.begin()
    table = db.create_table(tx, "t", SCHEMA, indexes=[["k"]])
    table.insert(tx, (1, "kept"))
    db.commit(tx)
    db.tm.flush_commits()
    tx2 = db.begin()
    db.drop_table(tx2, "t")
    db.commit(tx2)
    assert not db.table_exists("t")       # pre-committed: gone in memory
    assert db.switch.get("magnetic0").relation_exists("t")
    db.simulate_crash()                   # before the force

    db2 = Database.open(path)
    assert db2.table_exists("t")
    assert list(db2.iter_table_rows("t")) == [(1, "kept")]
    tx3 = db2.begin()
    db2.drop_table(tx3, "t")
    db2.commit(tx3)                       # no window: the group closes here
    assert not db2.switch.get("magnetic0").relation_exists("t")
    assert not db2.switch.get("magnetic0").relation_exists("t_k_idx")
    db2.close()


def test_recreate_after_a_queued_drop(tmp_path):
    """A table dropped and created again inside one commit group: the
    first transaction's queued release must not take the new relation."""
    db = Database.create(str(tmp_path / "d"), group_commit_window=60.0)
    tx = db.begin()
    db.create_table(tx, "t", SCHEMA).insert(tx, (1, "old"))
    db.commit(tx)
    tx2 = db.begin()
    db.drop_table(tx2, "t")
    db.commit(tx2)
    tx3 = db.begin()
    db.create_table(tx3, "t", SCHEMA).insert(tx3, (2, "new"))
    db.commit(tx3)
    db.tm.flush_commits()
    assert list(db.iter_table_rows("t")) == [(2, "new")]
    db.close()

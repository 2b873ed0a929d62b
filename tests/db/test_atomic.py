"""``atomic()``: the one runner of begin, body, commit — and its one
rule for a failure: abort what is still in progress, re-raise always."""

import pytest

from repro.core.library import InversionClient
from repro.db.transactions import ABORTED, COMMITTED, atomic
from repro.db.tuples import Column, Schema

SCHEMA = Schema([Column("k", "int4")])


class Boom(Exception):
    pass


def _fail(*_args, **_kwargs):
    raise Boom("the commit failed")


def test_a_clean_body_commits(db):
    with atomic(db) as tx:
        db.create_table(tx, "t", SCHEMA)
    assert tx.state == COMMITTED
    assert db.table_exists("t")
    assert db.locks.holders(("ddl",)) == {}


def test_a_body_that_raises_is_aborted_and_its_error_re_raised(db):
    with pytest.raises(Boom):
        with atomic(db) as tx:
            db.create_table(tx, "t", SCHEMA)
            raise Boom("the body failed")
    assert tx.state == ABORTED
    assert db.tm.state(tx.xid) == ABORTED
    assert not db.table_exists("t")
    assert db.locks.holders(("ddl",)) == {}


def test_a_commit_that_raises_in_progress_is_aborted(db, monkeypatch):
    """The commit fails before it marks the transaction committed: the
    runner aborts it, so its locks do not outlive the call."""
    monkeypatch.setattr(db.tm, "commit", _fail)
    with pytest.raises(Boom, match="the commit failed"):
        with atomic(db) as tx:
            db.create_table(tx, "t", SCHEMA)
    monkeypatch.undo()
    assert tx.state == ABORTED
    assert not db.table_exists("t")
    assert db.locks.holders(("ddl",)) == {}


def test_a_commit_that_raises_once_committed_keeps_its_own_error(db):
    """The commit fails after the transaction is committed (here a
    commit listener): an abort could only raise TransactionError and
    hide the real error, so the runner re-raises it untouched."""
    failures = [Boom("a listener failed")]

    def listener(_xid, committed):
        if committed and failures:
            raise failures.pop()
    db.add_commit_listener(listener)
    with pytest.raises(Boom, match="a listener failed"):
        with atomic(db) as tx:
            db.create_table(tx, "t", SCHEMA)
    assert tx.state == COMMITTED
    assert db.tm.state(tx.xid) == COMMITTED
    assert db.table_exists("t")


def test_a_raising_commit_listener_leaves_no_lock_held(db):
    """A listener that raises after the commit is decided must not keep
    the committed transaction's locks: the next DDL takes ``("ddl",)``
    at once instead of timing out on a finished xid."""
    def listener(_xid, _committed):
        raise Boom("a listener failed")
    db.add_commit_listener(listener)
    for name in ("t", "u"):
        with pytest.raises(Boom, match="a listener failed"):
            with atomic(db) as tx:
                db.create_table(tx, name, SCHEMA)
        assert tx.state == COMMITTED
    assert db.locks.holders(("ddl",)) == {}


def test_an_auto_commit_whose_commit_fails_leaks_no_transaction(
        fs, monkeypatch):
    """The library's one-shot transaction goes through the runner: a
    commit that raises aborts it, and a retry finds no lock held."""
    client = InversionClient(fs)
    monkeypatch.setattr(fs.db.tm, "commit", _fail)
    with pytest.raises(Boom):
        client.p_mkdir("/d")
    monkeypatch.undo()
    assert fs.db.tm.state(client.last_xid) == ABORTED
    client.p_mkdir("/d")
    assert fs.db.tm.state(client.last_xid) == COMMITTED
    assert client.p_stat("/d") is not None

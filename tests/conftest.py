"""Shared fixtures: fresh databases, mounted file systems, clients."""

from __future__ import annotations

import pytest

from repro.core.filesystem import InversionFS
from repro.core.library import InversionClient
from repro.db.database import Database
from repro.sched import MultiUserScheduler
from repro.sim.clock import SimClock


@pytest.fixture
def clock() -> SimClock:
    return SimClock()


@pytest.fixture
def db(tmp_path, clock) -> Database:
    database = Database.create(str(tmp_path / "db"), clock=clock)
    yield database
    database.close()


@pytest.fixture
def fs(db) -> InversionFS:
    return InversionFS.mkfs(db)


@pytest.fixture
def client(fs) -> InversionClient:
    return InversionClient(fs)


@pytest.fixture
def small_db(tmp_path, clock) -> Database:
    """A database with a deliberately tiny buffer cache, to exercise
    eviction paths."""
    database = Database.create(str(tmp_path / "smalldb"), clock=clock,
                               buffer_pages=16)
    yield database
    database.close()


@pytest.fixture
def lock_table_empty_after_run(monkeypatch):
    """Whatever a run did — waits, deadlock victims, timeouts, failed
    sessions — once :meth:`MultiUserScheduler.run` returns, the lock
    table of every database it drove holds nothing and queues no one.
    Autouse in ``tests/sched``; other modules opt in."""
    run = MultiUserScheduler.run

    def checked_run(self, *args, **kwargs):
        report = run(self, *args, **kwargs)
        for db in self.dbs:
            assert db.locks._locks == {}, db.locks._locks
        return report

    monkeypatch.setattr(MultiUserScheduler, "run", checked_run)

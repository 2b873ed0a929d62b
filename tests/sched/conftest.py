"""A tested bound for every scheduler run in this package."""

import pytest

from repro.sched import MultiUserScheduler


@pytest.fixture(autouse=True)
def lock_table_empty_after_run(monkeypatch):
    """Whatever a run did — waits, deadlock victims, timeouts, failed
    sessions — once :meth:`MultiUserScheduler.run` returns, the lock
    table of every database it drove holds nothing and queues no one."""
    run = MultiUserScheduler.run

    def checked_run(self, *args, **kwargs):
        report = run(self, *args, **kwargs)
        for db in self.dbs:
            assert db.locks._locks == {}, db.locks._locks
        return report

    monkeypatch.setattr(MultiUserScheduler, "run", checked_run)

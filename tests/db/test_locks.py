"""Two-phase locking and deadlock detection, on one thread: a request
that must wait runs other transactions' moves through a stub wait
strategy, or fails at once when none is installed."""

import pytest

from repro.db.locks import EXCLUSIVE, SHARED, LockManager
from repro.db.transactions import Transaction
from repro.errors import DeadlockError, LockTimeoutError


def tx(xid: int) -> Transaction:
    return Transaction(xid=xid, start_time=0.0)


class Steps:
    """A stub wait strategy: each wait round runs the next queued step
    — another transaction's move, as the scheduler runs another
    session's request — and a wait with no step left times out.
    ``nested`` gives it the scheduler's shape: a waiter whose round is
    running is suspended beneath the step, so it is exempt from the
    no-barge rule until the step returns."""

    def __init__(self, *steps, nested: bool = False) -> None:
        self.steps = list(steps)
        self.nested = nested
        self.parked: list[int] = []

    def suspended_xids(self) -> set[int]:
        return set(self.parked) if self.nested else set()

    def now(self) -> float:
        return 0.0

    def start(self, lm, xid, resource, mode) -> dict:
        return {"xid": xid}

    def wait_round(self, lm, ctx) -> bool:
        if not self.steps:
            return False
        step = self.steps.pop(0)
        self.parked.append(ctx["xid"])
        try:
            step()
        finally:
            self.parked.pop()
        return True

    def finish(self, lm, ctx, xid) -> float:
        return 0.0


def test_shared_locks_are_compatible():
    lm = LockManager()
    a, b = tx(1), tx(2)
    lm.acquire(a, "r", SHARED)
    lm.acquire(b, "r", SHARED)
    assert set(lm.holders("r")) == {1, 2}


def test_exclusive_blocks_shared():
    """With no wait strategy nobody could release the holder, so the
    request fails at once: a timeout, not a wait, and no queue entry."""
    lm = LockManager()
    a, b = tx(1), tx(2)
    lm.acquire(a, "r", EXCLUSIVE)
    with pytest.raises(LockTimeoutError):
        lm.acquire(b, "r", SHARED)
    assert (lm.stats.timeouts, lm.stats.waits) == (1, 0)
    assert lm.waiter_xids("r") == [] and lm.holders("r") == {1: EXCLUSIVE}


def test_reacquire_is_noop():
    lm = LockManager()
    a = tx(1)
    lm.acquire(a, "r", SHARED)
    lm.acquire(a, "r", SHARED)
    lm.acquire(a, "r", EXCLUSIVE)  # upgrade with no contention
    assert lm.holders("r")[1] == EXCLUSIVE


def test_release_all_unblocks_waiter():
    lm = LockManager()
    a, b = tx(1), tx(2)
    lm.acquire(a, "r", EXCLUSIVE)
    lm.wait_strategy = Steps(lambda: lm.release_all(a))
    lm.acquire(b, "r", EXCLUSIVE)       # waits; a's release lets it in
    assert lm.holders("r") == {2: EXCLUSIVE}
    assert a.held_locks == []
    assert lm.stats.waits == 1


def test_different_resources_do_not_conflict():
    lm = LockManager()
    a, b = tx(1), tx(2)
    lm.acquire(a, "r1", EXCLUSIVE)
    lm.acquire(b, "r2", EXCLUSIVE)


def _close_cycle(lm, victim, resource):
    """A step in which ``victim`` requests ``resource``, closing a
    waits-for cycle, and the list its deadlock messages are kept in."""
    errors = []

    def step():
        with pytest.raises(DeadlockError) as excinfo:
            lm.acquire(victim, resource, EXCLUSIVE)
        errors.append(str(excinfo.value))
        lm.release_all(victim)
    return errors, step


def test_deadlock_detected():
    """A waits for B while B waits for A: the second waiter loses."""
    lm = LockManager()
    a, b = tx(1), tx(2)
    lm.acquire(a, "r1", EXCLUSIVE)
    lm.acquire(b, "r2", EXCLUSIVE)
    errors, b_asks_for_r1 = _close_cycle(lm, b, "r1")
    lm.wait_strategy = Steps(b_asks_for_r1)
    lm.acquire(a, "r2", EXCLUSIVE)      # blocks on b, which loses
    assert len(errors) == 1 and lm.stats.deadlocks == 1
    assert lm.holders("r2") == {1: EXCLUSIVE}
    lm.release_all(a)
    assert lm._locks == {}


def test_bad_mode_rejected():
    lm = LockManager()
    with pytest.raises(ValueError):
        lm.acquire(tx(1), "r", "Z")


def test_two_phase_semantics_via_transaction_record():
    lm = LockManager()
    a = tx(1)
    lm.acquire(a, "r1", SHARED)
    lm.acquire(a, "r2", EXCLUSIVE)
    assert len(a.held_locks) == 2
    lm.release_all(a)
    assert lm.holders("r1") == {} and lm.holders("r2") == {}


def test_upgrade_deadlock_exactly_one_victim():
    """Two shared holders both upgrading to exclusive: each waits on
    the other's shared hold — a cycle.  Exactly one is chosen as the
    victim; the survivor's upgrade succeeds once the victim's locks
    are gone."""
    lm = LockManager()
    a, b = tx(1), tx(2)
    lm.acquire(a, "r", SHARED)
    lm.acquire(b, "r", SHARED)
    errors, b_upgrades = _close_cycle(lm, b, "r")
    lm.wait_strategy = Steps(b_upgrades)
    lm.acquire(a, "r", EXCLUSIVE)       # waits on b's S hold
    assert len(errors) == 1
    assert (lm.stats.deadlocks, lm.stats.timeouts) == (1, 0)
    assert lm.holders("r") == {1: EXCLUSIVE}
    lm.release_all(a)


def test_fifo_no_barge_past_exclusive_waiter():
    """A shared request arriving behind a queued exclusive waiter must
    not barge in front of it, even though it is compatible with the
    current shared holder — nor once the holder is gone: FIFO
    admission prevents writer starvation.  The reader, queued above the
    writer's wait with no one left to run, gives up; the writer is
    granted first."""
    lm = LockManager()
    holder, writer, reader = tx(1), tx(2), tx(3)
    lm.acquire(holder, "r", SHARED)
    order = []

    def reader_arrives():
        with pytest.raises(LockTimeoutError):
            lm.acquire(reader, "r", SHARED)

    def holder_commits():
        # the reader queues behind the writer instead of barging past it.
        assert lm.waiter_xids("r") == [writer.xid, reader.xid]
        assert lm.holders("r") == {holder.xid: SHARED}
        lm.release_all(holder)

    lm.wait_strategy = Steps(reader_arrives, holder_commits)
    lm.acquire(writer, "r", EXCLUSIVE)
    order.append("writer")              # the writer went first
    lm.release_all(writer)
    lm.acquire(reader, "r", SHARED)
    order.append("reader")
    assert order == ["writer", "reader"]
    lm.release_all(reader)
    assert lm._locks == {}


def test_error_messages_name_resource_and_holders():
    """Deadlock and timeout errors carry the contended resource and
    the holders' xids and modes — the contention-debugging breadcrumb."""
    lm = LockManager()
    a, b = tx(1), tx(2)
    lm.acquire(a, ("rel", 42), EXCLUSIVE)
    with pytest.raises(LockTimeoutError) as excinfo:
        lm.acquire(b, ("rel", 42), SHARED)
    message = str(excinfo.value)
    assert "('rel', 42)" in message
    assert "{1:X}" in message

    lm2 = LockManager()
    c, d = tx(7), tx(8)
    lm2.acquire(c, "r1", EXCLUSIVE)
    lm2.acquire(d, "r2", EXCLUSIVE)
    errors, d_asks_for_r1 = _close_cycle(lm2, d, "r1")
    lm2.wait_strategy = Steps(d_asks_for_r1)
    lm2.acquire(c, "r2", EXCLUSIVE)
    lm2.release_all(c)
    assert "r1" in errors[0] and "{7:X}" in errors[0]


def test_cycle_through_a_waiter_that_never_relooked_is_found():
    """T1 parks on R1 behind T0.  While it is parked, T0 commits, T2
    barges onto R1 (T1 is suspended, so exempt) and asks for R2, which
    T1 holds.  T1 never looked again, so whatever it last recorded names
    T0; read off the lock table, T1 waits on T2 — a cycle, found at
    T2's request rather than by waiting out a timeout."""
    lm = LockManager()
    t0, t1, t2 = tx(0), tx(1), tx(2)
    lm.acquire(t0, "R1", EXCLUSIVE)
    lm.acquire(t1, "R2", EXCLUSIVE)
    outcome = {}

    def meanwhile():
        lm.release_all(t0)
        lm.acquire(t2, "R1", EXCLUSIVE)
        try:
            lm.acquire(t2, "R2", EXCLUSIVE)
        except (DeadlockError, LockTimeoutError) as exc:
            outcome["t2"] = type(exc)
        lm.release_all(t2)

    lm.wait_strategy = Steps(meanwhile, nested=True)
    lm.acquire(t1, "R1", EXCLUSIVE)
    assert outcome["t2"] is DeadlockError
    assert lm.stats.deadlocks == 1 and lm.stats.timeouts == 0
    assert lm.holders("R1") == {1: EXCLUSIVE}
    lm.release_all(t1)
    assert lm._locks == {}

"""Two-phase locking and deadlock detection."""

import threading

import pytest

from repro.db.locks import EXCLUSIVE, SHARED, LockManager
from repro.db.transactions import Transaction
from repro.errors import DeadlockError, LockTimeoutError


def tx(xid: int) -> Transaction:
    return Transaction(xid=xid, start_time=0.0)


def test_shared_locks_are_compatible():
    lm = LockManager()
    a, b = tx(1), tx(2)
    lm.acquire(a, "r", SHARED)
    lm.acquire(b, "r", SHARED)
    assert set(lm.holders("r")) == {1, 2}


def test_exclusive_blocks_shared():
    lm = LockManager(timeout_s=0.05)
    a, b = tx(1), tx(2)
    lm.acquire(a, "r", EXCLUSIVE)
    with pytest.raises(LockTimeoutError):
        lm.acquire(b, "r", SHARED)


def test_reacquire_is_noop():
    lm = LockManager()
    a = tx(1)
    lm.acquire(a, "r", SHARED)
    lm.acquire(a, "r", SHARED)
    lm.acquire(a, "r", EXCLUSIVE)  # upgrade with no contention
    assert lm.holders("r")[1] == EXCLUSIVE


def test_release_all_unblocks_waiter():
    lm = LockManager(timeout_s=5.0)
    a, b = tx(1), tx(2)
    lm.acquire(a, "r", EXCLUSIVE)
    got = []

    def worker():
        lm.acquire(b, "r", EXCLUSIVE)
        got.append(True)
    thread = threading.Thread(target=worker)
    thread.start()
    lm.release_all(a)
    thread.join(timeout=5)
    assert got == [True]
    assert a.held_locks == []


def test_different_resources_do_not_conflict():
    lm = LockManager()
    a, b = tx(1), tx(2)
    lm.acquire(a, "r1", EXCLUSIVE)
    lm.acquire(b, "r2", EXCLUSIVE)


def test_deadlock_detected():
    """A waits for B while B waits for A: the second waiter loses."""
    lm = LockManager(timeout_s=10.0)
    a, b = tx(1), tx(2)
    lm.acquire(a, "r1", EXCLUSIVE)
    lm.acquire(b, "r2", EXCLUSIVE)
    outcome = {}

    def a_then_blocks():
        try:
            lm.acquire(a, "r2", EXCLUSIVE)  # blocks on b
            outcome["a"] = "got it"
        except DeadlockError:
            outcome["a"] = "deadlock"
        finally:
            lm.release_all(a)

    thread = threading.Thread(target=a_then_blocks)
    thread.start()
    import time
    time.sleep(0.1)  # let A start waiting
    with pytest.raises(DeadlockError):
        lm.acquire(b, "r1", EXCLUSIVE)  # closes the cycle → victim
    lm.release_all(b)
    thread.join(timeout=5)
    assert outcome["a"] == "got it"


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
    lm = LockManager(timeout_s=10.0)
    a, b = tx(1), tx(2)
    lm.acquire(a, "r", SHARED)
    lm.acquire(b, "r", SHARED)
    outcome = {}
    started = threading.Event()

    def upgrade(t, key):
        started.wait()
        try:
            lm.acquire(t, "r", EXCLUSIVE)
            outcome[key] = "upgraded"
        except DeadlockError:
            outcome[key] = "victim"
            lm.release_all(t)

    threads = [threading.Thread(target=upgrade, args=(a, "a")),
               threading.Thread(target=upgrade, args=(b, "b"))]
    for thread in threads:
        thread.start()
    started.set()
    for thread in threads:
        thread.join(timeout=10)
    assert sorted(outcome.values()) == ["upgraded", "victim"]
    survivor = a if outcome["a"] == "upgraded" else b
    assert lm.holders("r") == {survivor.xid: EXCLUSIVE}
    lm.release_all(survivor)


def test_fifo_no_barge_past_exclusive_waiter():
    """A shared request arriving behind a queued exclusive waiter must
    not barge in front of it, even though it is compatible with the
    current shared holder — FIFO admission prevents writer
    starvation."""
    import time
    lm = LockManager(timeout_s=10.0)
    holder, writer, reader = tx(1), tx(2), tx(3)
    lm.acquire(holder, "r", SHARED)
    order = []

    def want_x():
        lm.acquire(writer, "r", EXCLUSIVE)
        order.append("writer")

    def want_s():
        lm.acquire(reader, "r", SHARED)
        order.append("reader")

    t_writer = threading.Thread(target=want_x)
    t_writer.start()
    deadline = time.time() + 5
    while lm.waiter_xids("r") != [writer.xid] and time.time() < deadline:
        time.sleep(0.01)
    assert lm.waiter_xids("r") == [writer.xid]

    t_reader = threading.Thread(target=want_s)
    t_reader.start()
    deadline = time.time() + 5
    while len(lm.waiter_xids("r")) != 2 and time.time() < deadline:
        time.sleep(0.01)
    # the reader queues behind the writer instead of barging past it.
    assert lm.waiter_xids("r") == [writer.xid, reader.xid]
    assert lm.holders("r") == {holder.xid: SHARED}

    lm.release_all(holder)
    t_writer.join(timeout=10)
    assert order == ["writer"]          # the writer went first
    lm.release_all(writer)
    t_reader.join(timeout=10)
    assert order == ["writer", "reader"]
    lm.release_all(reader)


def test_error_messages_name_resource_and_holders():
    """Deadlock and timeout errors carry the contended resource and
    the holders' xids and modes — the contention-debugging breadcrumb."""
    lm = LockManager(timeout_s=0.05)
    a, b = tx(1), tx(2)
    lm.acquire(a, ("rel", 42), EXCLUSIVE)
    with pytest.raises(LockTimeoutError) as excinfo:
        lm.acquire(b, ("rel", 42), SHARED)
    message = str(excinfo.value)
    assert "('rel', 42)" in message
    assert "{1:X}" in message

    lm2 = LockManager(timeout_s=10.0)
    c, d = tx(7), tx(8)
    lm2.acquire(c, "r1", EXCLUSIVE)
    lm2.acquire(d, "r2", EXCLUSIVE)
    cycle = {}

    def close_cycle():
        try:
            lm2.acquire(c, "r2", EXCLUSIVE)
            cycle["c"] = "ok"
        except DeadlockError as exc:
            cycle["c"] = str(exc)
        finally:
            lm2.release_all(c)

    thread = threading.Thread(target=close_cycle)
    thread.start()
    import time
    time.sleep(0.1)
    with pytest.raises(DeadlockError) as excinfo2:
        lm2.acquire(d, "r1", EXCLUSIVE)
    lm2.release_all(d)
    thread.join(timeout=5)
    message = str(excinfo2.value)
    assert "r1" in message and "{7:X}" in message


class NestedParking:
    """A stub wait strategy shaped like the scheduler's: a waiter parked
    here is exempt from the no-barge rule (it is "suspended beneath"
    the caller), and its wait runs ``on_park`` in place of looping — the
    way a session parked beneath others never re-checks until they
    unwind.  Any other wait times out at once."""

    def __init__(self, parker: int, on_park) -> None:
        self.parker = parker
        self.on_park = on_park
        self.parked: set[int] = set()

    def suspended_xids(self) -> set[int]:
        return set(self.parked)

    def now(self) -> float:
        return 0.0

    def start(self, lm, xid, resource, mode) -> dict:
        return {"xid": xid}

    def wait_round(self, lm, ctx) -> bool:
        if ctx["xid"] != self.parker or self.parked:
            return False
        self.parked.add(ctx["xid"])
        lm._cond.release()
        try:
            self.on_park()
        finally:
            lm._cond.acquire()
            self.parked.clear()
        return True

    def finish(self, lm, ctx, xid) -> float:
        return 0.0


def test_cycle_through_a_waiter_that_never_relooked_is_found():
    """T1 parks on R1 behind T0.  While it is parked, T0 commits, T2
    barges onto R1 (T1 is suspended, so exempt) and asks for R2, which
    T1 holds.  T1 never looked again, so whatever it last recorded names
    T0; read off the lock table, T1 waits on T2 — a cycle, found at
    T2's request rather than by waiting out a timeout."""
    lm = LockManager(timeout_s=10.0)
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

    lm.wait_strategy = NestedParking(t1.xid, meanwhile)
    lm.acquire(t1, "R1", EXCLUSIVE)
    assert outcome["t2"] is DeadlockError
    assert lm.stats.deadlocks == 1 and lm.stats.timeouts == 0
    assert lm.holders("R1") == {1: EXCLUSIVE}
    lm.release_all(t1)
    assert lm._locks == {}

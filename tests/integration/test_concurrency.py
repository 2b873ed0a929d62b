"""Concurrent clients under two-phase locking, on one thread: waits
park in the multi-session scheduler, and a wait with no scheduler to
run the holders fails at once."""

import time

import pytest

from repro.core.library import InversionClient
from repro.core.server import InversionServer
from repro.errors import FileExistsError_, LockTimeoutError, TransactionError
from repro.sched import Apply, Call, MultiUserScheduler, Ref, Txn

pytestmark = pytest.mark.usefixtures("lock_table_empty_after_run")


def _run(fs, programs, seed: int) -> list[tuple]:
    """Run one session per program (``c1``, ``c2``, …); returns the
    scheduler's trace as ``(kind, session, detail)`` events."""
    sched = MultiUserScheduler(InversionServer(fs), seed=seed)
    try:
        for i, program in enumerate(programs):
            sched.add_session(program, name=f"c{i + 1}")
        sched.run()
    finally:
        sched.close()
    return [event[1:] for event in sched.trace]


def _creat_files(fs, *paths) -> None:
    client = InversionClient(fs)
    for path in paths:
        client.p_close(client.p_creat(path))


def test_two_clients_interleave_on_different_files(fs):
    """Writes to distinct files take distinct chunk-table locks, so two
    transactions proceed concurrently.  (Creation itself serializes on
    the naming table — relation-granularity 2PL — so the files are
    pre-created.)"""
    c1, c2 = InversionClient(fs), InversionClient(fs)
    for path in ("/one", "/two"):
        fd = c1.p_creat(path)
        c1.p_close(fd)
    c1.p_begin()
    c2.p_begin()
    fd1 = c1.p_open("/one", 2)
    fd2 = c2.p_open("/two", 2)
    c1.p_write(fd1, b"from c1")
    c2.p_write(fd2, b"from c2")
    c1.p_commit()
    c2.p_commit()
    c1.p_close(fd1)
    c2.p_close(fd2)
    assert fs.read_file("/one") == b"from c1"
    assert fs.read_file("/two") == b"from c2"


def test_concurrent_same_path_creates_serialize(fs):
    """Key-granularity naming locks: a second creator of the *same
    path* waits for the first transaction, then loses cleanly; creates
    of different names proceed concurrently (previous test)."""
    outcome = []

    def creat(who):
        def fn(fs, tx):
            try:
                fs.creat(tx, "/contested")
                outcome.append((who, "created"))
            except FileExistsError_:
                outcome.append((who, "exists"))
        return Apply(f"creat by {who}", fn)

    trace = _run(fs, [[Txn([creat("c1")])], [Txn([creat("c2")])]], seed=1)
    parks = [(name, detail) for kind, name, detail in trace if kind == "park"]
    assert len(parks) == 1 and parks[0][0] == "c2"
    assert "contested" in parks[0][1]   # on the name's X lock
    # blocked while c1's transaction is open, let in by its commit.
    assert trace.index(("slice", "c1", "p_commit")) \
        < trace.index(next(e for e in trace if e[:2] == ("unpark", "c2")))
    assert outcome == [("c1", "created"), ("c2", "exists")]
    assert fs.exists("/contested")


def _write_txn(*steps) -> list:
    """One transaction opening and writing each ``(path, data)`` in
    turn, then closing every descriptor it opened."""
    items = []
    for path, data in steps:
        items += [Call("p_open", path, 2), Call("p_write", Ref(len(items)), data)]
    return [Txn(items)] + [Call("p_close", Ref(i))
                           for i in range(0, len(items), 2)]


def test_writer_blocks_writer_until_commit(fs):
    """2PL: a second writer to the same file waits for the first."""
    _creat_files(fs, "/shared")
    trace = _run(fs, [_write_txn(("/shared", b"first")),
                      _write_txn(("/shared", b"SECON"))], seed=1)
    park = trace.index(next(e for e in trace if e[0] == "park"))
    unpark = trace.index(next(e for e in trace if e[0] == "unpark"))
    # c2's write parks on c1's exclusive lock until c1 commits.
    assert trace[park - 1] == ("slice", "c2", "p_write")
    assert trace[park][1] == trace[unpark][1] == "c2"
    assert trace[park + 1:unpark] == [("slice", "c1", "p_commit")]
    assert fs.read_file("/shared") == b"SECON"


def test_uncommitted_writes_invisible_to_other_client(fs):
    c1, c2 = InversionClient(fs), InversionClient(fs)
    fd = c1.p_creat("/v")
    c1.p_write(fd, b"committed")
    c1.p_close(fd)
    c1.p_begin()
    fd1 = c1.p_open("/v", 2)
    c1.p_write(fd1, b"IN-FLIGHT")
    # c2 reads under its own snapshot (c1 holds X; readdir of other
    # files is fine — check a different file to avoid the lock).
    fd_new = None
    assert fs.read_file("/v", timestamp=fs.db.clock.now()) == b"committed"
    c1.p_abort()
    assert fs.read_file("/v") == b"committed"


def test_deadlock_victim_can_retry(fs):
    """Opposite lock orders on /a and /b deadlock: exactly one session
    is the victim, aborts, backs off and retries its transaction once
    the survivor has committed."""
    _creat_files(fs, "/a", "/b")
    trace = _run(fs, [_write_txn(("/a", b"c1"), ("/b", b"c1")),
                      _write_txn(("/b", b"c2"), ("/a", b"c2"))], seed=2)
    assert [e for e in trace if e[0] in ("victim", "retry")] == [
        ("victim", "c2", "DeadlockError"),
        ("retry", "c2", "attempt=1 backoff=0.005000")]
    assert trace.index(("slice", "c1", "p_commit")) \
        < trace.index(("slice", "c2", "p_commit"))
    # 2PL serializability: both files carry the retried writer's bytes.
    assert fs.read_file("/a") == fs.read_file("/b") == b"c2"


def test_a_lock_wait_outside_the_scheduler_fails_at_once(fs):
    """Two clients on one thread with no scheduler: nobody could release
    c1's hold while c2 waited, so c2's write fails at once rather than
    after ``timeout_s``, names the holder, leaves no queue entry, and
    costs c2 nothing once c1 commits."""
    _creat_files(fs, "/f")
    locks = fs.db.locks
    c1, c2 = InversionClient(fs), InversionClient(fs)
    c1.p_begin()
    fd1 = c1.p_open("/f", 2)
    c1.p_write(fd1, b"c1")
    held = {h.resource for h in c1._tx.held_locks}
    waits, timeouts = locks.stats.waits, locks.stats.timeouts
    c2.p_begin()
    fd2 = c2.p_open("/f", 2)
    started = time.monotonic()
    with pytest.raises(LockTimeoutError) as excinfo:
        c2.p_write(fd2, b"c2")
    assert time.monotonic() - started < 0.5
    assert f"{{{c1.last_xid}:X}}" in str(excinfo.value)
    assert locks.stats.timeouts == timeouts + 1
    assert locks.stats.waits == waits
    assert all(locks.waiter_xids(resource) == [] for resource in held)
    c2.p_abort()
    c1.p_commit()
    c2.p_begin()
    c2.p_write(fd2, b"c2")
    c2.p_commit()
    for client, fd in ((c1, fd1), (c2, fd2)):
        client.p_close(fd)
    assert fs.read_file("/f") == b"c2"
    assert locks._locks == {}


def test_session_transaction_isolation(fs):
    """Two InversionClient sessions hold independent transactions."""
    c1, c2 = InversionClient(fs), InversionClient(fs)
    c1.p_begin()
    c2.p_begin()  # no "nested transaction" error across sessions
    c1.p_abort()
    c2.p_abort()
    with pytest.raises(TransactionError):
        c2.p_abort()

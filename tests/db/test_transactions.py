"""Transaction manager and the status file."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.db.transactions import (
    ABORTED,
    COMMITTED,
    IN_PROGRESS,
    STATUS_TAG,
    Transaction,
    TransactionManager,
)
from repro.devices.memdisk import MemDisk
from repro.sim.clock import SimClock
from repro.errors import TransactionError


@pytest.fixture
def device():
    return MemDisk("mem0", SimClock())


@pytest.fixture
def tm(device):
    return TransactionManager(device, SimClock())


def test_begin_allocates_increasing_xids(tm):
    a, b = tm.begin(), tm.begin()
    assert b.xid > a.xid
    assert tm.state(a.xid) == IN_PROGRESS


def test_commit_records_state_and_time(tm):
    tx = tm.begin()
    tx.wrote = True
    tm.commit(tx)
    assert tm.is_committed(tx.xid)
    assert tm.commit_time(tx.xid) is not None
    assert tm.commit_time(tx.xid) >= tx.start_time


def test_abort(tm):
    tx = tm.begin()
    tx.wrote = True
    tm.abort(tx)
    assert tm.state(tx.xid) == ABORTED
    assert tm.commit_time(tx.xid) is None


def test_double_commit_rejected(tm):
    tx = tm.begin()
    tm.commit(tx)
    with pytest.raises(TransactionError):
        tm.commit(tx)


def test_commit_after_abort_rejected(tm):
    tx = tm.begin()
    tm.abort(tx)
    with pytest.raises(TransactionError):
        tm.commit(tx)


def test_unknown_xid_treated_as_aborted(tm):
    """An xid with no status record was in flight at a crash: its
    records are invisible — 'automatically detected and ignored'."""
    assert tm.state(999999) == ABORTED
    assert not tm.is_committed(999999)


def test_abort_hooks_run(tm):
    tx = tm.begin()
    ran = []
    tx.abort_hooks.append(lambda: ran.append(True))
    tm.abort(tx)
    assert ran == [True]


def test_readonly_commit_writes_no_status(device):
    tm = TransactionManager(device, SimClock())
    tx = tm.begin()  # wrote stays False
    before = device.read_meta("pg_status")
    tm.commit(tx)
    assert device.read_meta("pg_status") == before


def test_status_survives_reload(device):
    clock = SimClock()
    tm = TransactionManager(device, clock)
    committed = tm.begin()
    committed.wrote = True
    clock.advance(1.0)
    tm.commit(committed)
    aborted = tm.begin()
    aborted.wrote = True
    tm.abort(aborted)
    in_flight = tm.begin()
    in_flight.wrote = True  # never committed — crash

    tm2 = TransactionManager(device, clock)
    assert tm2.is_committed(committed.xid)
    assert tm2.commit_time(committed.xid) == pytest.approx(1.0)
    assert tm2.state(aborted.xid) == ABORTED
    assert tm2.state(in_flight.xid) == ABORTED


def test_xids_never_reused_after_reload(device):
    clock = SimClock()
    tm = TransactionManager(device, clock)
    xids = []
    for _ in range(5):
        tx = tm.begin()
        tx.wrote = True
        tm.commit(tx)
        xids.append(tx.xid)
    tm2 = TransactionManager(device, clock)
    assert tm2.begin().xid > max(xids)


def test_xid_hwm_guards_unlogged_xids(device):
    """Read-only transactions write no status record, yet their xids
    must not be reissued after reload."""
    clock = SimClock()
    tm = TransactionManager(device, clock)
    last = None
    for _ in range(3):
        last = tm.begin()
        tm.commit(last)  # read-only: no status line
    tm2 = TransactionManager(device, clock)
    assert tm2.begin().xid > last.xid


def test_recovery_report(tm):
    a = tm.begin(); a.wrote = True; tm.commit(a)
    b = tm.begin(); b.wrote = True; tm.abort(b)
    report = tm.recovery_report()
    assert report["committed"] >= 2  # bootstrap xid + a
    assert report["aborted"] == 1


def test_corrupt_status_rejected(device):
    device.sync_write_meta("pg_status", b"garbage nonsense\n")
    from repro.errors import RecoveryError
    with pytest.raises(RecoveryError):
        TransactionManager(device, SimClock())


#: a fresh manager forces its xid high-water mark to 66, so a local
#: transaction's xid is 66 or more.
XID = st.integers(min_value=2, max_value=80)
TIME = st.floats(min_value=0.0, max_value=1000.0)
#: one status record, as the status file spells it.
RECORD = st.one_of(
    st.builds("C {} {!r} {!r}".format, XID, TIME, TIME),
    st.builds("A {} {!r}".format, XID, TIME),
    st.builds(lambda xid, t: f"P {xid} c.{xid} {t!r}", XID, TIME))
#: a status file: lines of one or more records (a group's force).
STATUS_TEXT = st.lists(st.lists(RECORD, min_size=1, max_size=3),
                       min_size=1, max_size=12).map(
    lambda lines: "".join(" ".join(line) + "\n" for line in lines))


def _loaded(tm: TransactionManager) -> tuple:
    """What a load left: every record but a local transaction's in
    progress, the recovery report (``next_xid`` aside: a refresh keeps
    its own when higher), and the durable horizon."""
    records = {xid: (rec.state, rec.start_time, rec.commit_time, rec.gid)
               for xid, rec in tm._records.items()
               if rec.state != IN_PROGRESS}
    report = tm.recovery_report()
    del report["next_xid"]
    return records, report, tm.durable_committed_xid()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(text=STATUS_TEXT, cuts=st.lists(st.floats(0.0, 1.0), max_size=8),
       local=st.lists(st.booleans(), max_size=8))
@example(text="C 2 1.0 2.0\nC 3 1.5 2.5 A 4 1.75\n", cuts=[0.3, 0.9],
         local=[])
@example(text="C 2 1.0 2.0\nA 66 1.5\nC 3 2.0 3.0\n", cuts=[0.2, 0.7, 1.0],
         local=[True, True])
def test_an_incremental_refresh_matches_a_full_reload(text, cuts, local):
    """The status file grows by the slices between ``cuts`` (so a round
    may end mid-record, and the last one may leave a torn tail); after
    each round a refresh of a manager that parsed every earlier round
    leaves what a manager loading the whole file has.  Between rounds
    the refreshing manager begins or commits a local read-only
    transaction, whose xid a shipped record may name by its commit."""
    raw = text.encode("ascii")
    device = MemDisk("mem0", SimClock())
    tm = TransactionManager(device, SimClock())
    ends = [int(cut * len(raw)) for cut in sorted(cuts)] or [len(raw)]
    done, open_tx = 0, None
    for i, end in enumerate(ends):
        device.sync_append_meta(STATUS_TAG, raw[done:end])
        done = end
        tm.refresh()
        assert _loaded(tm) == _loaded(
            TransactionManager(device, SimClock()))
        if i < len(local) and local[i]:
            if open_tx is None:
                open_tx = tm.begin()
            else:
                tm.commit(open_tx)
                open_tx = None

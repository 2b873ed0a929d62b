"""Group commit: deferred status forces, multi-record appends, and the
recovery parser that reads them back.

With ``group_commit_window=0`` (the default) every writing commit pays
its own sweep and its own forced status append — the paper's behaviour,
asserted exactly.  With a positive window, commit records queue and the
group closes with one sweep and one forced append carrying the whole
batch as a multi-record line; a crash before the force loses the queue,
which is safe because nothing of the group is committed on the medium
until that append (data-then-status, per group), so the lost
transactions are presumed aborted.
"""

import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.checker import ConsistencyChecker
from repro.core.filesystem import InversionFS
from repro.db.database import Database
from repro.db.transactions import (
    ABORTED,
    COMMITTED,
    STATUS_TAG,
    TransactionManager,
)
from repro.db.tuples import Column, Schema
from repro.db.page import PAGE_SIZE
from repro.devices.magnetic import MagneticDisk
from repro.devices.memdisk import MemDisk
from repro.sim.clock import SimClock
from repro.testkit.oracle import ModelFS, harvest_state


@pytest.fixture
def device():
    return MemDisk("mem0", SimClock())


def commit_writer(tm):
    tx = tm.begin()
    tx.wrote = True
    tm.commit(tx)
    return tx


def test_window_zero_forces_once_per_writing_commit(device):
    tm = TransactionManager(device, SimClock())
    for _ in range(5):
        commit_writer(tm)
    assert tm.stats.status_forces == 5
    assert tm.stats.commits_recorded == 5
    assert tm.stats.commits_per_force() == 1.0
    assert tm.stats.group_batches == 0
    assert tm.pending_commit_xids() == []


def test_readonly_commits_force_nothing(device):
    tm = TransactionManager(device, SimClock())
    for _ in range(3):
        tm.commit(tm.begin())
    assert tm.stats.status_forces == 0


def test_window_queues_and_flush_forces_one_append(device):
    clock = SimClock()
    tm = TransactionManager(device, clock, group_commit_window=1.0)
    txs = [commit_writer(tm) for _ in range(4)]
    assert tm.stats.status_forces == 0
    assert tm.pending_commit_xids() == [tx.xid for tx in txs]
    # Queued commits are already visible in memory.
    assert all(tm.is_committed(tx.xid) for tx in txs)
    assert tm.flush_commits() == 4
    assert tm.stats.status_forces == 1
    assert tm.stats.commits_recorded == 4
    assert tm.stats.commits_per_force() == 4.0
    assert tm.stats.group_batches == 1
    assert tm.stats.max_group == 4
    assert tm.pending_commit_xids() == []
    # One line, four records.
    raw = device.read_meta(STATUS_TAG)
    lines = [l for l in raw.decode().splitlines() if l]
    assert len(lines) == 1
    assert lines[0].count("C ") == 4


def test_multi_record_line_survives_reload(device):
    clock = SimClock()
    tm = TransactionManager(device, clock, group_commit_window=1.0)
    txs = []
    for _ in range(3):
        clock.advance(0.25)
        txs.append(commit_writer(tm))
    tm.flush_commits()
    tm2 = TransactionManager(device, clock)
    for tx in txs:
        assert tm2.is_committed(tx.xid)
        assert tm2.commit_time(tx.xid) == pytest.approx(
            tm.commit_time(tx.xid))


def test_window_deadline_flushes_on_next_begin(device):
    clock = SimClock()
    tm = TransactionManager(device, clock, group_commit_window=0.5)
    tx = commit_writer(tm)
    assert tm.pending_commit_xids() == [tx.xid]
    clock.advance(1.0)
    tm.begin()  # past the deadline: the batch is forced here
    assert tm.pending_commit_xids() == []
    assert tm.stats.status_forces == 1


def test_crash_loses_pending_but_stays_consistent(device):
    """A crash before the batch force loses the queued commits — they
    recover as presumed-aborted, never as torn state."""
    clock = SimClock()
    tm = TransactionManager(device, clock, group_commit_window=5.0)
    durable = commit_writer(tm)
    tm.flush_commits()
    floating = [commit_writer(tm) for _ in range(3)]
    # Crash: the pending queue simply never reaches the device.
    tm2 = TransactionManager(device, clock)
    assert tm2.is_committed(durable.xid)
    for tx in floating:
        assert tm2.state(tx.xid) == ABORTED
        assert not tm2.is_committed(tx.xid)


def test_abort_is_recorded_immediately_while_batch_pends(device):
    clock = SimClock()
    tm = TransactionManager(device, clock, group_commit_window=5.0)
    pending = commit_writer(tm)
    aborted = tm.begin()
    aborted.wrote = True
    tm.abort(aborted)
    assert tm.stats.aborts_recorded == 1
    # The A record is durable even though the C record still pends.
    tm2 = TransactionManager(device, clock)
    assert tm2.state(aborted.xid) == ABORTED
    assert tm2.state(pending.xid) == ABORTED  # lost with the queue
    tm.flush_commits()
    tm3 = TransactionManager(device, clock)
    assert tm3.is_committed(pending.xid)


# -- sixteen small commits on a disk ----------------------------------------

#: the TP-style shape where the forced status append dominates: one
#: short row inserted per commit.
SMALL_COMMITS = 16
SMALL_ROW = Schema([Column("seq", "int4"), Column("note", "bytea")])


def _small_commits(workdir: str, window: float) -> dict:
    """SMALL_COMMITS one-row transactions on a mounted database's drive,
    measured to the same durability point (an explicit flush ends the
    run)."""
    db = Database.create(workdir, clock=SimClock())
    InversionFS.mkfs(db)
    db.tm.group_commit_window = window
    try:
        tx = db.begin()
        table = db.create_table(tx, "small", SMALL_ROW)
        db.commit(tx)
        db.flush_caches()
        disk, stats = db.switch.get("magnetic0").disk.stats, db.tm.stats
        t0, writes0 = db.clock.now(), disk.writes
        forces0, commits0 = stats.status_forces, stats.commits_recorded
        for i in range(SMALL_COMMITS):
            tx = db.begin()
            table.insert(tx, (i, (b"fedcba9876543210" * 6)[i % 16:][:64]))
            db.commit(tx)
        db.tm.flush_commits()
        return {"elapsed_s": db.clock.now() - t0,
                "device_writes": disk.writes - writes0,
                "status_forces": stats.status_forces - forces0,
                "commits_recorded": stats.commits_recorded - commits0,
                "group_batches": stats.group_batches,
                "max_group": stats.max_group}
    finally:
        db.close()


def test_sixteen_small_commits_force_sixteen_times_or_once_in_a_group(
        tmp_path):
    alone = _small_commits(str(tmp_path / "alone"), 0.0)
    grouped = _small_commits(str(tmp_path / "grouped"), 1.0e9)
    # Window 0: one forced status append per writing commit.
    assert alone["status_forces"] == alone["commits_recorded"] \
        == SMALL_COMMITS
    assert alone["group_batches"] == 0
    # An open window: the whole batch is one forced append ...
    assert grouped["status_forces"] == 1
    assert grouped["commits_recorded"] == grouped["max_group"] \
        == SMALL_COMMITS
    # ... after one sweep: two device writes where sixteen commits paid
    # two each, and at least twice the commit rate.
    assert grouped["device_writes"] == 2
    assert alone["device_writes"] - grouped["device_writes"] \
        >= 2 * (SMALL_COMMITS - 1)
    assert alone["elapsed_s"] / grouped["elapsed_s"] >= 2.0


# -- the commit group: one sweep, one force, lock-release order ---------------


class Recorder:
    """A manager whose sweep and forces log what happened, in order."""

    def __init__(self, device, window):
        self.clock = SimClock()
        self.events = []
        self.tm = TransactionManager(device, self.clock,
                                     group_commit_window=window)
        self.tm.sweep = self.sweep
        force = device.sync_append_meta

        def logged_force(tag, data):
            # the kinds of the records one force carried, e.g. "CCC"
            self.events.append("".join(
                tok for tok in data.decode().split() if tok in "CAP"))
            force(tag, data)
        device.sync_append_meta = logged_force

    def sweep(self):
        self.events.append("sweep")
        self.clock.advance(0.125)     # the sweep takes simulated time
        return 3

    def commit(self, **kw):
        tx = self.tm.begin()
        tx.wrote = True
        self.tm.commit(tx, **kw)
        return tx


def status_lines(device):
    return device.read_meta(STATUS_TAG).decode().splitlines()


def test_closing_a_group_is_one_sweep_then_one_force_then_the_waiters(device):
    r = Recorder(device, window=1.0)
    txs = [r.commit(after_force=lambda i=i: r.events.append(f"drop{i}"))
           for i in range(3)]
    assert r.events == []             # a commit is an enqueue
    assert r.tm.flush_commits() == 3
    assert r.events == ["sweep", "CCC", "drop0", "drop1", "drop2"]
    assert status_lines(device)[-1].split()[1::4] == [
        str(tx.xid) for tx in txs]    # commit order == file order
    stats = r.tm.stats
    assert (stats.group_closes, stats.group_sweep_pages) == (1, 3)
    assert (stats.group_size.count, stats.group_size.max) == (1, 3)
    assert r.tm.flush_commits() == 0  # nothing open: no sweep, no force
    assert r.events.count("sweep") == 1


def test_window_zero_closes_the_group_inside_commit(device):
    """The paper's protocol: sweep, stamp, force, before commit returns
    — the stamp is taken once the pages are out."""
    r = Recorder(device, window=0.0)
    tx = r.commit(after_force=lambda: r.events.append("drop"))
    assert r.events == ["sweep", "C", "drop"]
    assert r.tm.commit_time(tx.xid) == pytest.approx(0.125)
    assert r.tm.stats.group_closes == 1
    assert r.tm.stats.group_size.max == 1


def test_an_abort_does_not_close_the_group(device):
    r = Recorder(device, window=5.0)
    r.commit()
    victim = r.tm.begin()
    victim.wrote = True
    r.tm.abort(victim)
    assert r.events == ["A"]            # forced at once, no sweep
    assert len(r.tm.pending_commit_xids()) == 1


def test_records_forced_outside_the_queue_close_the_group_first(device):
    """A ``P``, a resolved ``C`` and a window-less ``C`` all land after
    the records of transactions that released their locks earlier."""
    r = Recorder(device, window=5.0)
    first = r.commit()
    prepared = r.tm.begin()
    prepared.wrote = True
    r.tm.prepare(prepared, "g.1")
    assert r.events == ["sweep", "C", "P"]
    second = r.commit()
    r.tm.resolve_prepared(prepared, commit=True)
    third = r.commit()
    r.tm.group_commit_window = 0.0    # the window closes under an open group
    fourth = r.commit()
    kinds_and_xids = [(line.split()[0], line.split()[1::4])
                      for line in status_lines(device)]
    assert kinds_and_xids == [
        ("C", [str(first.xid)]),
        ("P", [str(prepared.xid)]),
        ("C", [str(second.xid)]),
        ("C", [str(prepared.xid)]),
        ("C", [str(third.xid), str(fourth.xid)]),
    ]


# -- a close nobody waits for runs behind the clock --------------------------


class Drive:
    """A manager over a magnetic device whose sweep writes one page
    after 0.125 s of CPU; its drive is the one the closes charge."""

    CPU = 0.125

    def __init__(self, workdir, window):
        self.clock = SimClock()
        self.dev = MagneticDisk("magnetic0", self.clock, str(workdir))
        self.dev.create_relation("swept")
        self.disk = self.dev.disk
        self.tm = TransactionManager(self.dev, self.clock,
                                     group_commit_window=window)
        self.tm.sweep = self.sweep
        self.tm.drives = lambda: [self.disk]

    def sweep(self):
        self.clock.advance(self.CPU)
        self.dev.write_pages("swept", self.dev.extend("swept"),
                             [bytes(PAGE_SIZE)])
        return 1

    def writer(self):
        tx = self.tm.begin()
        tx.wrote = True
        return tx

    def expire(self):
        """Commit one writer and let the window run out."""
        tx = self.writer()
        self.tm.commit(tx)
        self.clock.advance(self.tm.group_commit_window)
        return tx


def test_a_window_expired_close_returns_with_only_cpu_on_the_clock(tmp_path):
    d = Drive(tmp_path, window=0.001)
    tx = d.expire()
    before, queued_before = d.clock.now(), d.disk.stats.queued_seconds
    d.tm.begin()                      # closes the expired group
    assert d.clock.now() == before + Drive.CPU
    assert d.disk.busy_until > d.clock.now()
    assert d.disk.stats.queued_seconds > queued_before
    # issued, though: a read of the status file finds it (after waiting)
    assert status_lines(d.dev)[-1].split()[:2] == ["C", str(tx.xid)]
    assert d.clock.now() >= d.disk.busy_until


def test_an_expired_group_stays_open_while_the_drive_is_busy(tmp_path):
    d = Drive(tmp_path, window=0.001)
    d.expire()
    d.tm.begin()                      # the first group: on the drive now
    first_done = d.disk.busy_until
    second = d.expire()
    assert d.clock.now() < first_done  # the first flush is still running
    before = d.clock.now()
    third = d.tm.begin()              # expired, but the drive is busy
    assert d.clock.now() == before
    assert d.tm.pending_commit_xids() == [second.xid]
    third.wrote = True
    d.tm.commit(third)
    assert d.tm.pending_commit_xids() == [second.xid, third.xid]
    assert d.disk.busy_until == first_done


def test_a_held_group_closes_at_the_first_begin_once_the_drive_is_idle(
        tmp_path):
    d = Drive(tmp_path, window=0.001)
    d.expire()
    d.tm.begin()
    first_done = d.disk.busy_until
    held = d.expire()
    d.clock.advance(first_done - d.clock.now() - 1e-6)
    d.tm.begin()                      # a microsecond early: still held
    assert d.tm.pending_commit_xids() == [held.xid]
    d.clock.advance(first_done - d.clock.now())
    before = d.clock.now()
    assert before >= first_done
    d.tm.begin()                      # at busy_until: the held group closes
    assert d.tm.pending_commit_xids() == []
    assert d.clock.now() == before + Drive.CPU  # its sweep; no drain
    assert d.disk.busy_until > d.clock.now()
    # its record waited out the first flush and then its own; the lag
    # is booked once its force is final, at the next close or flush
    force_end = d.disk.busy_until
    lag = d.tm.stats.durable_lag_seconds
    assert lag.count == 1
    d.tm.flush_commits()
    assert lag.count == 2
    assert lag.max == pytest.approx(
        force_end - d.tm.commit_time(held.xid), abs=1e-12)


def test_never_more_than_one_queued_close_is_in_flight(tmp_path):
    """Writers commit and begin every 2 ms, far faster than the drive
    writes a group: each close finds the drive idle, and no begin or
    commit waits on it — the clock moves by the sweeps' CPU alone."""
    d = Drive(tmp_path, window=0.001)
    idle_at_close = []
    sweep = d.sweep

    def watched_sweep():
        idle_at_close.append(d.disk.busy_until <= d.clock.now())
        return sweep()

    d.tm.sweep = watched_sweep
    start = d.clock.now()
    for _ in range(100):
        d.tm.commit(d.writer())
        d.clock.advance(0.002)
    assert len(idle_at_close) > 2
    assert all(idle_at_close)
    assert d.clock.now() - start == pytest.approx(
        100 * 0.002 + len(idle_at_close) * Drive.CPU, abs=1e-9)
    assert d.tm.stats.group_size.max > 1


def test_a_crash_loses_exactly_the_held_open_group(tmp_path):
    """Group 1 is on the drive (issued, so durable), group 2 is held
    open behind it: a crash then loses group 2 and nothing else."""
    db = Database.create(str(tmp_path / "db"))
    fs = InversionFS.mkfs(db)
    db.tm.group_commit_window = 0.001
    db.tm.flush_commits()
    tx = fs.begin()
    fs.write_file(tx, "/a", b"first" * 300)
    fs.commit(tx)
    first = tx.xid
    db.clock.advance(0.002)
    tx = fs.begin()                   # closes group 1, behind the clock
    fs.commit(tx)
    assert db.tm.pending_commit_xids() == []
    assert db.ready_at() > db.clock.now()
    tx = fs.begin()
    fs.write_file(tx, "/b", b"second" * 300)
    fs.commit(tx)
    second = tx.xid
    db.clock.advance(0.002)
    assert db.ready_at() > db.clock.now()
    fs.begin()                        # expired, held: the drive is busy
    assert db.tm.pending_commit_xids() == [second]
    db.simulate_crash()
    recovered = Database.open(str(tmp_path / "db"))
    try:
        assert recovered.tm.is_committed(first)
        assert not recovered.tm.is_committed(second)
        rfs = InversionFS.attach(recovered)
        assert rfs.read_file("/a") == b"first" * 300
        assert not rfs.exists("/b")
        assert ConsistencyChecker(rfs).check_all().clean
    finally:
        recovered.simulate_crash()


def test_a_read_miss_during_a_queued_close_returns_before_the_flush_ends(
        tmp_path):
    """The drive serves a read between a group's writes: it waits for
    the sweep's write in flight, not for the status force behind it,
    and the records land in the status file in commit order."""
    d = Drive(tmp_path, window=0.001)
    d.dev.create_relation("cold")
    d.dev.write_pages("cold", d.dev.extend("cold"), [bytes(PAGE_SIZE)])
    first = d.expire()
    d.tm.begin()                      # closes the expired group, queued
    flushed = d.disk.busy_until
    assert d.dev.read_pages("cold", 0, 1) == [bytes(PAGE_SIZE)]
    assert d.clock.now() < d.disk.busy_until
    assert d.disk.busy_until > flushed        # the force moved back
    assert d.disk.stats.reads_ahead == 1
    d.clock.advance(d.disk.busy_until - d.clock.now())
    second = d.expire()
    d.tm.begin()
    d.tm.flush_commits()
    assert [line.split()[:2] for line in status_lines(d.dev)] == [
        ["C", str(first.xid)], ["C", str(second.xid)]]


def test_a_read_served_ahead_of_the_force_is_in_the_booked_lag(tmp_path):
    """A group's durability lag ends where its force finally ends: a
    read the drive serves between the sweep's write and the force
    pushes the force back, and the booked lag says so."""
    d = Drive(tmp_path, window=0.001)
    d.dev.create_relation("cold")
    d.dev.write_pages("cold", d.dev.extend("cold"), [bytes(PAGE_SIZE)])
    first = d.expire()
    d.tm.begin()                      # closes the expired group, queued
    queued_end = d.disk.busy_until
    d.dev.read_pages("cold", 0, 1)    # served ahead of the force
    force_end = d.disk.busy_until
    assert force_end > queued_end
    d.tm.flush_commits()
    lag = d.tm.stats.durable_lag_seconds
    assert lag.count == 1
    assert lag.max == pytest.approx(
        force_end - d.tm.commit_time(first.xid), abs=1e-12)


def test_flush_commits_returns_with_every_queued_write_on_the_medium(
        tmp_path):
    d = Drive(tmp_path, window=0.001)
    d.expire()
    d.tm.begin()
    assert d.tm.pending_commit_xids() == []
    assert d.disk.busy_until > d.clock.now()
    assert d.tm.flush_commits() == 0
    assert d.clock.now() >= d.disk.busy_until


def test_a_window_zero_commit_charges_the_clock_for_all_it_writes(tmp_path):
    d = Drive(tmp_path, window=0.0)
    before, busy = d.clock.now(), d.disk.stats.busy_seconds
    d.tm.commit(d.writer())
    assert d.disk.stats.queued_seconds == 0.0
    assert d.clock.now() - before == pytest.approx(
        Drive.CPU + d.disk.stats.busy_seconds - busy, abs=1e-12)
    assert d.disk.busy_until <= d.clock.now()


def test_prepare_returns_with_its_p_record_on_the_medium(tmp_path):
    d = Drive(tmp_path, window=0.001)
    d.expire()
    d.tm.begin()
    prepared = d.writer()
    queued_before = d.disk.stats.queued_seconds
    d.tm.prepare(prepared, "g.1")
    assert d.disk.stats.queued_seconds == queued_before
    assert d.clock.now() >= d.disk.busy_until
    assert status_lines(d.dev)[-1].split()[:2] == ["P", str(prepared.xid)]


def test_a_resolved_commit_is_written_behind_the_clock(tmp_path):
    d = Drive(tmp_path, window=0.001)
    prepared = d.writer()
    d.tm.prepare(prepared, "g.1")
    before = d.clock.now()
    d.tm.resolve_prepared(prepared, commit=True)
    assert d.clock.now() == before
    assert d.disk.busy_until > d.clock.now()
    assert d.tm.is_committed(prepared.xid)
    assert status_lines(d.dev)[-1].split()[:2] == ["C", str(prepared.xid)]


# -- torn multi-record appends ------------------------------------------------


def build_status(device, records):
    device.sync_write_meta(STATUS_TAG, records)


def test_torn_multi_record_append_keeps_the_durable_prefix(device):
    build_status(device,
                 b"C 2 0.0 1.0\n"
                 b"C 3 1.0 2.0 C 4 1.5 2.0 C 5 1.7 2")  # torn mid-batch
    tm = TransactionManager(device, SimClock())
    assert tm.is_committed(2)
    assert tm.is_committed(3)
    # Records 4 and 5: 4 parses complete, but as the last parseable
    # record of a torn line its final token cannot be trusted — both
    # are presumed aborted, which is safe (their data pages were forced
    # before the append; losing the record only loses the commit).
    assert tm.state(5) == ABORTED
    assert tm.recovery_report()["torn_tail"] == 1


def test_torn_tail_discards_final_record_even_if_it_parses(device):
    """A tear can truncate the final float of the last record and still
    leave it token-complete (``0.25`` → ``0.2``); the parser therefore
    never trusts the last record of a newline-less line."""
    build_status(device, b"C 2 0.0 1.0\nC 3 1.0 2.0")  # no trailing \n
    tm = TransactionManager(device, SimClock())
    assert tm.is_committed(2)
    assert tm.state(3) == ABORTED
    assert tm.recovery_report()["torn_tail"] == 1
    # The xid is still not reusable.
    assert tm.begin().xid > 3


def test_mixed_records_on_one_line_parse(device):
    build_status(device, b"C 2 0.0 1.0 A 3 0.5 C 4 0.7 1.2\n")
    tm = TransactionManager(device, SimClock())
    assert tm.is_committed(2)
    assert tm.state(3) == ABORTED
    assert tm.is_committed(4)


def test_garbage_status_still_rejected(device):
    build_status(device, b"garbage nonsense\n")
    from repro.errors import RecoveryError
    with pytest.raises(RecoveryError):
        TransactionManager(device, SimClock())


# -- hwm off the hot path -----------------------------------------------------


def test_begin_does_not_force_hwm_in_steady_state(device):
    tm = TransactionManager(device, SimClock())
    loaded_forces = tm.stats.hwm_forces  # the ahead-of-need force at load
    assert loaded_forces == 1
    for _ in range(40):
        commit_writer(tm)
    # Headroom top-ups piggybacked on status forces; begin never paid.
    assert tm.stats.status_forces == 40


def test_hwm_hard_floor_still_guards_xid_reuse(device):
    """Read-only transactions burn headroom without status forces to
    piggyback on; the hard floor in begin() must still advance the hwm
    before handing out an xid at the durable mark."""
    clock = SimClock()
    tm = TransactionManager(device, clock)
    last = None
    for _ in range(200):  # far past one stride of headroom
        last = tm.begin()
        tm.commit(last)  # read-only: no status line
    assert tm.stats.hwm_forces >= 2
    tm2 = TransactionManager(device, clock)
    assert tm2.begin().xid > last.xid


def test_read_only_begins_between_closes_hit_the_floor_at_most_once(
        tmp_path):
    """A group close tops the hwm up by what the last interval used: a
    second run of 200 read-only begins finds its headroom waiting."""
    d = Drive(tmp_path, window=0.001)

    def close_a_group():
        d.expire()
        d.clock.advance(max(0.0, d.disk.busy_until - d.clock.now()))
        d.tm.begin()
        assert d.tm.pending_commit_xids() == []

    def read_only_begins():
        floor = d.tm.stats.hwm_floor_forces
        for _ in range(200):
            tx = d.tm.begin()
            assert tx.xid < d.tm._durable_hwm
            d.tm.commit(tx)
        return d.tm.stats.hwm_floor_forces - floor

    close_a_group()
    assert read_only_begins() >= 2    # 200 xids on a 64-xid stride
    close_a_group()
    assert read_only_begins() <= 1
    last_handed_out = d.tm._next_xid - 1
    assert TransactionManager(d.dev, d.clock).begin().xid > last_handed_out


def test_commit_state_values_unchanged(device):
    tm = TransactionManager(device, SimClock())
    tx = commit_writer(tm)
    assert tm.state(tx.xid) == COMMITTED


@given(script=st.lists(st.tuples(st.lists(st.tuples(
    st.sampled_from(["/a", "/b", "/c"]), st.binary(max_size=20000)),
    min_size=1, max_size=3), st.booleans()), max_size=5))
@settings(max_examples=15, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
def test_a_torn_group_line_keeps_a_commit_prefix(script):
    """A group is one status line, its records in the order their
    transactions released their locks.  The script ends with T1 and T2
    writing one file in one group — T2 supersedes a chunk version whose
    record is still queued — so T1's record must precede T2's, and
    wherever a tear cuts the line recovery must keep a prefix of the
    commits: never T2 without T1."""
    script = script + [([("/hot", b"one" * 400)], False),
                       ([("/hot", b"TWO" * 300)], False)]
    with tempfile.TemporaryDirectory() as root:
        db = Database.create(root + "/db")
        fs = InversionFS.mkfs(db)
        db.tm.group_commit_window = 60.0
        model, history = ModelFS(), []
        for writes, abort in script:
            tx = fs.begin()
            for path, data in writes:
                fs.write_file(tx, path, data)
            (fs.abort if abort else fs.commit)(tx)
            if not abort:
                model.apply_many(("write", *write) for write in writes)
                history.append((tx.xid, model.copy()))
        db.tm.flush_commits()
        db.simulate_crash()
        status = os.path.join(root, "db", "magnetic0", "pg_status.meta")
        with open(status, "rb") as f:
            raw = f.read()
        start = raw.rindex(b"\n", 0, len(raw) - 1) + 1
        line = raw[start:]
        in_line = [int(tok) for tok in line.split()[1::4]]
        assert in_line == [xid for xid, _ in history if xid in in_line]
        assert in_line[-2:] == [xid for xid, _ in history[-2:]]
        prefixes = [ModelFS().state()] + [m.state() for _, m in history]
        ends = [i + 1 for i, byte in enumerate(line) if byte in b" \n"][3::4]
        kept = 0
        for cut in sorted({end - 2 for end in ends} | set(ends)):
            with open(status, "wb") as f:
                f.write(raw[:start] + line[:cut])
            recovered = Database.open(root + "/db")
            try:
                state = harvest_state(InversionFS.attach(recovered))
            finally:
                recovered.simulate_crash()
            # a prefix of the commits, and a longer tail loses no more
            kept = next(i for i in range(kept, len(prefixes))
                        if prefixes[i] == state)
        assert state == prefixes[-1]               # the whole line: everything

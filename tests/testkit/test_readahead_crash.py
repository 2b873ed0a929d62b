"""Read-ahead under the crash testkit.

Read-ahead must be semantically invisible: batched reads pass the same
fault gates as page-at-a-time reads, reads are never crash boundaries
(so the explorer's schedules are identical with the window open or
closed), and the differential oracle sees the same bytes either way.
"""

import pytest

from repro.core.constants import CHUNK_SIZE
from repro.db.buffer import BufferCache
from repro.db.page import PAGE_SIZE
from repro.devices.memdisk import MemDisk
from repro.errors import InjectedFaultError
from repro.sim.clock import SimClock
from repro.testkit import (CrashController, CrashExplorer, FaultPlan,
                           FaultyDevice, OneServer)
from repro.testkit.oracle import harvest_state
from repro.testkit.workload import TxStep, Workload, payload


def make_proxy(plan: FaultPlan = FaultPlan(), nrel_pages: int = 8):
    inner = MemDisk("m0", SimClock())
    inner.create_relation("r")
    for i in range(nrel_pages):
        p = inner.extend("r")
        inner.write_page("r", p, bytes([i]) * PAGE_SIZE)
    ctrl = CrashController(plan)
    return inner, ctrl, FaultyDevice(inner, ctrl)


# -- FaultyDevice.read_pages gating ----------------------------------------


def test_batched_read_counts_each_page():
    _inner, ctrl, dev = make_proxy()
    dev.read_pages("r", 0, 5)
    assert ctrl.reads == 5  # same global read indices as 5 read_page calls


def test_injected_error_hits_page_inside_batch():
    """A transient read error aimed at global read #3 fires even when
    that page is fetched as the middle of a batch."""
    _inner, ctrl, dev = make_proxy(FaultPlan(read_errors=frozenset({3})))
    with pytest.raises(InjectedFaultError):
        dev.read_pages("r", 0, 6)
    # The error consumed indices 0..3; a retry of the batch succeeds.
    assert dev.read_pages("r", 0, 6)[2] == bytes([2]) * PAGE_SIZE


def test_broken_relation_fails_batched_reads():
    _inner, _ctrl, dev = make_proxy(
        FaultPlan(broken_relations=frozenset({"r"})))
    with pytest.raises(InjectedFaultError):
        dev.read_pages("r", 0, 2)


def test_batched_reads_are_not_crash_boundaries():
    """Only durable writes advance the crash counter: prefetching more
    (or fewer) pages can never shift where a scheduled crash lands."""
    _inner, ctrl, dev = make_proxy(FaultPlan(crash_after=100))
    w0 = ctrl.writes
    dev.read_pages("r", 0, 8)
    dev.read_page("r", 0)
    assert ctrl.writes == w0


# -- explorer with the window open vs closed -------------------------------


def seqread_workload(seed: int = 0) -> Workload:
    """Multi-chunk sequential files — enough pages that the buffer
    cache's read-ahead actually opens its window during recovery
    verification and the read-back steps."""
    p = lambda tag, size: payload(seed, tag, size)
    big = CHUNK_SIZE * 3 + 123
    return Workload(name="seqread", steps=(
        TxStep((("mkdir", "/data"),
                ("write", "/data/big", p("b0", big)))),
        TxStep((("write", "/data/big", p("b1", CHUNK_SIZE + 17)),)),
        TxStep((("write", "/data/second", p("s0", CHUNK_SIZE * 2)),)),
        TxStep((("unlink", "/data/second"),), abort=True),
    ))


def _no_readahead(monkeypatch):
    monkeypatch.setattr(
        BufferCache, "_readahead_count",
        lambda self, dev, relname, dev_name, pageno, streak: 1)


def test_explorer_schedule_identical_with_and_without_readahead(
        tmp_path, monkeypatch):
    base = CrashExplorer(str(tmp_path / "ra"), seqread_workload(),
                         OneServer).explore(max_points=20)
    assert base.violations == [], "\n".join(
        f"point {v.point}: {v.detail}" for v in base.violations)

    _no_readahead(monkeypatch)
    plain = CrashExplorer(str(tmp_path / "nora"), seqread_workload(),
                          OneServer).explore(max_points=20)
    assert plain.violations == []
    # Same durable-write trace → same crash points, point for point.
    assert base.total_writes == plain.total_writes
    assert base.points_tested == plain.points_tested


def test_explorer_with_readahead_survives_torn_appends(tmp_path):
    report = CrashExplorer(str(tmp_path), seqread_workload(), OneServer,
                           torn_append=True).explore(max_points=15)
    assert report.violations == [], "\n".join(
        f"point {v.point}: {v.detail}" for v in report.violations)


# -- oracle parity ----------------------------------------------------------


def test_oracle_state_identical_with_and_without_readahead(
        tmp_path, clock, monkeypatch):
    """The harvested file-system state (every file read back through
    the chunked read path) is byte-identical whether or not the cache
    prefetches — including a historical read after more writes."""
    from repro.core.filesystem import InversionFS
    from repro.db.database import Database

    def build_and_harvest(workdir):
        database = Database.create(str(workdir), clock=SimClock())
        fs = InversionFS.mkfs(database)
        tx = fs.begin()
        fs.mkdir(tx, "/d")
        fs.write_file(tx, "/d/a", payload(0, "a", CHUNK_SIZE * 4 + 99))
        fs.write_file(tx, "/d/b", payload(0, "b", CHUNK_SIZE - 1))
        fs.commit(tx)
        t0 = database.clock.now()
        tx = fs.begin()
        fs.write_file(tx, "/d/a", payload(1, "a2", CHUNK_SIZE * 2))
        fs.commit(tx)
        database.buffers.invalidate_all()  # cold cache: reads hit devices
        state = harvest_state(fs)
        historical = fs.read_file("/d/a", timestamp=t0)
        database.close()
        return state, historical

    with_ra = build_and_harvest(tmp_path / "ra")
    _no_readahead(monkeypatch)
    without_ra = build_and_harvest(tmp_path / "nora")
    assert with_ra == without_ra

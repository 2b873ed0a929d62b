"""``HeapFile.scan`` with per-page decoded rows (``cache_rows``) yields
exactly what the per-slot scan yields — also when the consumer mutates
the page it is parked on, as ``Catalog.remove_table_row`` and
``remove_index_rows`` do — with the same visibility checks and CPU
charges in the same order."""

import pytest

from repro.db.buffer import BufferCache
from repro.db.heap import HeapFile
from repro.db.snapshot import (AsOfSnapshot, BootstrapSnapshot,
                               CurrentSnapshot, Snapshot)
from repro.db.transactions import TransactionManager
from repro.db.tuples import Column, Schema
from repro.devices.memdisk import MemDisk
from repro.devices.switch import DeviceSwitch
from repro.sim.clock import SimClock
from repro.sim.cpu import CpuModel

SCHEMA = Schema([Column("k", "int4"), Column("v", "text")])
PAD = "x" * 900            # eight rows to a page
ROWS = 20                  # two full pages and a half-empty tail


class Env:
    """One heap over its own clock and status file, filled by a fixed
    history: rows from several commits at distinct times, one aborted
    insert, one committed delete."""

    def __init__(self, cache_rows: bool) -> None:
        self.clock = SimClock()
        switch = DeviceSwitch()
        dev = MemDisk("mem0", self.clock)
        switch.register(dev)
        dev.create_relation("t")
        self.tm = TransactionManager(dev, self.clock)
        self.cpu = CpuModel(self.clock)
        self.heap = HeapFile(BufferCache(switch, capacity=32), "mem0", "t",
                             SCHEMA, cpu=self.cpu)
        self.heap.cache_rows = cache_rows
        self.tids = {}
        self.commit_times = []
        for lo in range(0, ROWS, 5):
            tx = self.tm.begin()
            for k in range(lo, lo + 5):
                self.tids[k] = self.heap.insert(tx, (k, PAD))
            self.clock.advance(1.0)
            self.tm.commit(tx)
            self.commit_times.append(self.clock.now())
        loser = self.tm.begin()
        self.heap.insert(loser, (99, PAD))
        self.tm.abort(loser)
        tx = self.tm.begin()
        self.heap.delete(tx, self.tids[3])
        self.clock.advance(1.0)
        self.tm.commit(tx)

    def snapshot(self, kind: str, tx) -> Snapshot:
        if kind == "current":
            return CurrentSnapshot(self.tm, tx.xid)
        if kind == "bootstrap":
            return BootstrapSnapshot(self.tm)
        return AsOfSnapshot(self.tm, self.commit_times[2])


class CountingSnapshot(Snapshot):
    def __init__(self, inner: Snapshot) -> None:
        self.inner = inner
        self.asked = []

    def is_visible(self, xmin: int, xmax: int) -> bool:
        self.asked.append((xmin, xmax))
        return self.inner.is_visible(xmin, xmax)


def run_scan(cache_rows: bool, kind: str, warm: bool, mutate_at):
    """One scan whose consumer, on reaching row ``mutate_at``, deletes
    the row two slots on (same page) and inserts a new row; returns
    everything observable."""
    env = Env(cache_rows)
    tx = env.tm.begin()
    if warm:
        list(env.heap.scan(BootstrapSnapshot(env.tm)))
    snap = CountingSnapshot(env.snapshot(kind, tx))
    busy0 = env.cpu.busy_seconds
    seen = []
    for tid, values in env.heap.scan(snap):
        seen.append((tid, values[0]))
        if values[0] == mutate_at:
            env.heap.delete(tx, env.tids[mutate_at + 2])
            env.heap.insert(tx, (1000 + mutate_at, PAD))
    after = [(tid, values[0]) for tid, values in env.heap.scan(snap.inner)]
    return seen, snap.asked, env.cpu.busy_seconds - busy0, after


@pytest.mark.parametrize("kind", ["current", "bootstrap", "asof"])
@pytest.mark.parametrize("warm", [False, True])
@pytest.mark.parametrize("mutate_at", [None, 0, 9, 17])
def test_cached_scan_equals_per_slot_scan(kind, warm, mutate_at):
    plain = run_scan(False, kind, warm, mutate_at)
    cached = run_scan(True, kind, warm, mutate_at)
    assert cached == plain


def test_consumer_mutations_are_seen_by_the_parked_scan():
    """The pinned semantics themselves, so the equality above is not
    two scans agreeing on something else."""
    seen, _asked, _cpu, after = run_scan(True, "current", True, 17)
    keys = [k for _tid, k in seen]
    # Row 19 was deleted by this transaction while the scan was parked
    # on row 17 of the same page: not yielded.  The row inserted in
    # the same moment landed on that page past the slot count read on
    # entering it: not yielded either, but there afterwards.
    assert keys == [k for k in range(ROWS) if k not in (3, 19)]
    assert [k for _tid, k in after] == keys + [1017]


def test_rows_are_decoded_once_per_page_version(monkeypatch):
    calls = []
    real = Schema.unpack
    monkeypatch.setattr(Schema, "unpack",
                        lambda self, *a: calls.append(1) or real(self, *a))
    env = Env(True)
    snap = BootstrapSnapshot(env.tm)
    list(env.heap.scan(snap))
    stored = len(calls)
    assert stored == ROWS + 1                  # the aborted row is decoded too
    for _ in range(5):
        list(env.heap.scan(snap))
    assert len(calls) == stored
    tx = env.tm.begin()
    env.heap.delete(tx, env.tids[0])           # page 0 changes: 8 rows
    list(env.heap.scan(snap))
    assert len(calls) == stored + 8
    plain = Env(False)
    del calls[:]
    list(plain.heap.scan(BootstrapSnapshot(plain.tm)))
    list(plain.heap.scan(BootstrapSnapshot(plain.tm)))
    assert len(calls) == 2 * (ROWS - 1)        # every visible row, every time

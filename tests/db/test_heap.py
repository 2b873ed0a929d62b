"""No-overwrite heap tables."""

import pytest
from hypothesis import given, strategies as st

from repro.db.buffer import BufferCache
from repro.db.heap import TID, HeapFile
from repro.db.snapshot import Snapshot
from repro.db.transactions import Transaction
from repro.db.tuples import Column, INVALID_XID, Schema
from repro.devices.memdisk import MemDisk
from repro.devices.switch import DeviceSwitch
from repro.sim.clock import SimClock

SCHEMA = Schema([Column("k", "int4"), Column("v", "text")])


class AllVisible(Snapshot):
    def is_visible(self, xmin: int, xmax: int) -> bool:
        return True


class CommittedByXidThreshold(Snapshot):
    """Visible if inserted by xid < threshold and not deleted by one."""

    def __init__(self, threshold: int) -> None:
        self.threshold = threshold

    def is_visible(self, xmin: int, xmax: int) -> bool:
        if xmin >= self.threshold:
            return False
        return xmax == INVALID_XID or xmax >= self.threshold


def make_heap() -> HeapFile:
    clock = SimClock()
    switch = DeviceSwitch()
    switch.register(MemDisk("mem0", clock))
    switch.get("mem0").create_relation("t")
    return HeapFile(BufferCache(switch, capacity=32), "mem0", "t", SCHEMA)


def tx(xid: int = 5) -> Transaction:
    return Transaction(xid=xid, start_time=0.0)


def test_insert_returns_tid_and_fetch():
    heap = make_heap()
    t = tx()
    tid = heap.insert(t, (1, "one"))
    assert heap.fetch(tid, AllVisible()) == (1, "one")
    assert t.wrote


def test_insert_stamps_xmin():
    heap = make_heap()
    tid = heap.insert(tx(9), (1, "x"))
    xmin, xmax, values = heap.fetch_raw(tid)
    assert (xmin, xmax) == (9, INVALID_XID)
    assert values == (1, "x")


def test_delete_marks_not_removes():
    """Paper: "the original record is marked invalid, but remains in
    place"."""
    heap = make_heap()
    tid = heap.insert(tx(5), (1, "x"))
    heap.delete(tx(6), tid)
    xmin, xmax, values = heap.fetch_raw(tid)
    assert (xmin, xmax) == (5, 6)
    assert values == (1, "x")
    assert heap.record_count_physical() == 1


def test_update_is_delete_plus_insert():
    heap = make_heap()
    old = heap.insert(tx(5), (1, "old"))
    new = heap.update(tx(6), old, (1, "new"))
    assert new != old
    assert heap.record_count_physical() == 2
    assert heap.fetch_raw(old)[1] == 6  # xmax stamped
    assert heap.fetch_raw(new)[:2] == (6, INVALID_XID)


def test_scan_filters_by_snapshot():
    heap = make_heap()
    heap.insert(tx(1), (1, "a"))
    heap.insert(tx(10), (2, "b"))
    rows = [v for _t, v in heap.scan(CommittedByXidThreshold(5))]
    assert rows == [(1, "a")]


def test_fetch_invisible_returns_none():
    heap = make_heap()
    tid = heap.insert(tx(10), (1, "a"))
    assert heap.fetch(tid, CommittedByXidThreshold(5)) is None


def test_multipage_growth():
    heap = make_heap()
    payload = "x" * 2000
    tids = [heap.insert(tx(), (i, payload)) for i in range(50)]
    assert heap.npages() > 1
    assert len({t.pageno for t in tids}) == heap.npages()
    for i, tid in enumerate(tids):
        assert heap.fetch(tid, AllVisible()) == (i, payload)


def test_scan_all_versions_includes_deleted():
    heap = make_heap()
    tid = heap.insert(tx(5), (1, "a"))
    heap.update(tx(6), tid, (1, "b"))
    versions = list(heap.scan_all_versions())
    assert len(versions) == 2


def test_insert_raw_preserves_stamps():
    heap = make_heap()
    tid = heap.insert_raw(3, 4, (9, "archived"))
    assert heap.fetch_raw(tid) == (3, 4, (9, "archived"))


def test_write_requires_active_transaction():
    heap = make_heap()
    dead = tx()
    dead.state = "aborted"
    with pytest.raises(Exception):
        heap.insert(dead, (1, "x"))


def test_fetch_out_of_range_slot():
    heap = make_heap()
    heap.insert(tx(), (1, "a"))
    assert heap.fetch(TID(0, 99), AllVisible()) is None


TIDS = st.builds(TID, st.integers(0, 2**32 - 1), st.integers(0, 2**16 - 1))


@given(TIDS, TIDS)
def test_packed_tids_sort_as_tids(a, b):
    """Index entries are keyed (user key, TID.pack()), and the heap only
    appends, so a key's versions sort oldest to newest only if packing
    keeps the order of (page, slot)."""
    assert (a < b) == (a.pack() < b.pack())
    assert TID.unpack(a.pack()) == a

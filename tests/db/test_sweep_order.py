"""The commit sweep, observed at the drive.

``BufferCache.flush_all`` goes out over the heap pages in ascending
order of where the device manager says they sit and comes back over
the index pages in descending order, a run of adjacent pages at a
time: by block address on a magnetic disk — whatever proxies stand in
front of it — and by (relation, page) on a manager with no geometry."""

from __future__ import annotations

import pytest

from repro.core.constants import CHUNK_SIZE, O_RDWR
from repro.core.filesystem import InversionFS
from repro.core.library import InversionClient
from repro.db.buffer import BufferCache
from repro.db.database import Database
from repro.db.page import PAGE_BTREE_LEAF, PAGE_HEAP, PAGE_SIZE
from repro.devices.memdisk import MemDisk
from repro.devices.switch import DeviceSwitch
from repro.replica.feed import PrimaryFeed
from repro.sim.clock import SimClock
from repro.errors import SimulatedCrashError
from repro.testkit import CrashController, FaultPlan, FaultyDevice


def behind_faults(db) -> None:
    ctrl = CrashController()
    db.wrap_devices(lambda dev: FaultyDevice(dev, ctrl))


def behind_feed_tap(db) -> None:
    PrimaryFeed.attach(db)


def behind_both(db) -> None:
    """As the replica stack arms them: the fault proxy outside
    the tap."""
    behind_feed_tap(db)
    behind_faults(db)


@pytest.mark.parametrize("interpose", [None, behind_faults, behind_feed_tap,
                                       behind_both],
                         ids=["bare", "faulty", "feed_tap", "both"])
def test_flush_all_sweeps_a_magnetic_disk_in_block_order(tmp_path, interpose):
    db = Database.create(str(tmp_path / "db"))
    client = InversionClient(InversionFS.mkfs(db))
    if interpose is not None:
        interpose(db)
    # Dirty a scatter of relations: new files (a heap and an index each)
    # next to the catalogs, ``naming`` and ``fileatt`` they all update.
    client.p_begin()
    for i in range(6):
        fd = client.p_creat(f"/f{i}")
        client.p_write(fd, bytes([i]) * (9000 * (1 + i % 3)))
        client.p_close(fd)
    dev = db.switch.get("magnetic0")
    buffers = db.buffers
    dirty = {dev.page_address(rel, pageno):
             bool(buffers._frames[_d, rel, pageno].page.flags & PAGE_HEAP)
             for _d, rel, pageno in buffers._dirty_keys}
    assert sum(dirty.values()) >= 8 and len(dirty) - sum(dirty.values()) >= 8
    by_name = [dev.page_address(rel, pageno)
               for _d, rel, pageno in sorted(buffers._dirty_keys)]

    model = dev.disk                         # proxies pass ``disk`` through
    written: list[int] = []
    write_block = model.write_block
    model.write_block = lambda block, nbytes: (
        written.extend(range(block, block + nbytes // PAGE_SIZE)),
        write_block(block, nbytes))[1]
    assert buffers.flush_all() == len(dirty)
    del model.write_block
    client.p_commit()

    heap = [block for block in written if dirty[block]]
    index = [block for block in written if not dirty[block]]
    assert written == heap + index           # no leaf before a heap page
    assert heap == sorted(heap)              # out ...
    runs = [index[:1]]                       # ... and back, run by run
    for block in index[1:]:
        if block == runs[-1][-1] + 1:
            runs[-1].append(block)
        else:
            runs.append([block])
    assert runs == sorted(runs, reverse=True) and len(runs) >= 4
    assert max(map(len, runs)) >= 2          # a run is written forwards
    assert sorted(written) == sorted(dirty)  # each dirty page, once
    # sorted by (relation, page) the same pages go back and forth
    assert by_name != sorted(by_name)
    db.close()


def test_no_index_entry_reaches_the_medium_before_its_record(tmp_path):
    """Why heap pages go first.  A committed file is rewritten at twice
    its length — its chunk index sits at lower blocks than the heap
    pages the rewrite adds — and power fails in place of each write of
    the commit in turn: every index entry on the medium points at a
    record on the medium."""
    for boundary in range(1000):
        path = str(tmp_path / f"at{boundary}")
        db = Database.create(path)
        client = InversionClient(InversionFS.mkfs(db))
        client.p_begin()
        fd = client.p_creat("/f")
        client.p_write(fd, b"a" * (3 * CHUNK_SIZE))
        client.p_close(fd)
        client.p_commit()
        ctrl = CrashController(FaultPlan(crash_after=boundary))
        db.wrap_devices(lambda dev: FaultyDevice(dev, ctrl))
        try:
            client.p_begin()
            fd = client.p_open("/f", O_RDWR)
            client.p_write(fd, b"b" * (6 * CHUNK_SIZE))
            client.p_close(fd)
            client.p_commit()
        except SimulatedCrashError:
            pass
        finished = not ctrl.crashed
        ctrl.disarm()
        db.simulate_crash()
        db = Database.open(path)
        entries = 0
        for name in db.list_tables():
            table = db.table(name)
            for _index, btree in table._btrees:
                for _key, tid in btree.scan_values_range(None, None):
                    assert tid.pageno < table.heap.npages(), (boundary, name)
                    page = db.buffers.get_page(table.info.devname, name,
                                               tid.pageno)
                    assert tid.slot < page.nslots, (boundary, name)
                    entries += 1
        db.close()
        if finished:
            break
    assert boundary >= 8 and entries > 12


def test_flush_all_on_a_manager_without_geometry_goes_by_relation_and_page():
    """MemDisk / NVRAM: the same trip over (relation, page number) —
    the order costs nothing there — coalesced exactly as before."""
    switch = DeviceSwitch()
    dev = MemDisk("nvram", SimClock())
    switch.register(dev)
    cache = BufferCache(switch, capacity=32)
    flags = {"b_heap": PAGE_HEAP, "a_idx": PAGE_BTREE_LEAF,
             "a_heap": PAGE_HEAP}
    for rel, kind in flags.items():          # created in no useful order
        dev.create_relation(rel)
        for _ in range(4):
            cache.new_page("nvram", rel, flags=kind)
    cache.flush_all()
    for rel, pageno in [("a_idx", 3), ("b_heap", 0), ("a_heap", 2),
                        ("a_idx", 0), ("b_heap", 1), ("a_heap", 0),
                        ("b_heap", 2), ("a_idx", 1)]:
        cache.get_page("nvram", rel, pageno)
        cache.mark_dirty("nvram", rel, pageno)
    order: list[tuple[str, int]] = []
    write_pages = dev.write_pages
    dev.write_pages = lambda rel, start, datas: (
        order.extend((rel, start + i) for i in range(len(datas))),
        write_pages(rel, start, datas))[1]
    batched, hits = cache.stats.batched_writes, cache.stats.write_coalesce_hits
    assert cache.flush_all() == 8
    assert order == [("a_heap", 0), ("a_heap", 2),
                     ("b_heap", 0), ("b_heap", 1), ("b_heap", 2),
                     ("a_idx", 3), ("a_idx", 0), ("a_idx", 1)]
    # b_heap 0-2 went as one call, a_idx 0-1 as another
    assert cache.stats.batched_writes == batched + 2
    assert cache.stats.write_coalesce_hits == hits + 3


def test_a_1mb_sequential_write_flushes_in_a_few_multi_page_runs(tmp_path):
    """Figure 6's write: 128 chunks in one transaction, whose commit
    sweep sends adjacent dirty pages to the drive as one write each."""
    db = Database.create(str(tmp_path / "db"), clock=SimClock())
    client = InversionClient(InversionFS.mkfs(db))
    fd = client.p_creat("/seq")
    db.flush_caches()
    disk, buf = db.switch.get("magnetic0").disk.stats, db.buffers.stats
    writes0, forced0 = disk.writes, buf.forced_writes
    batched0, coalesced0 = buf.batched_writes, buf.write_coalesce_hits
    data = b"fedcba9876543210" * (CHUNK_SIZE // 16)
    client.p_begin()
    for _ in range(128):
        client.p_write(fd, data)
    client.p_commit()
    assert buf.forced_writes - forced0 >= 128
    assert disk.writes - writes0 <= 8
    assert buf.batched_writes - batched0 >= 1
    assert buf.write_coalesce_hits - coalesced0 >= 128 // 2
    db.close()

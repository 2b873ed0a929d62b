"""Shared LRU buffer cache."""

import pytest

from repro.db.buffer import BufferCache
from repro.db.page import PAGE_HEAP
from repro.devices.memdisk import MemDisk
from repro.devices.switch import DeviceSwitch
from repro.sim.clock import SimClock


@pytest.fixture
def setup():
    clock = SimClock()
    switch = DeviceSwitch()
    dev = MemDisk("mem0", clock)
    switch.register(dev)
    dev.create_relation("r")
    return switch, dev, BufferCache(switch, capacity=4)


def test_new_page_is_dirty_until_flushed(setup):
    _switch, dev, cache = setup
    pageno, page = cache.new_page("mem0", "r")
    page.add_record(b"data")
    cache.mark_dirty("mem0", "r", pageno)
    assert len(cache.dirty_pages()) == 1
    assert cache.flush_all() == 1
    assert len(cache.dirty_pages()) == 0


def test_hit_does_not_touch_device(setup):
    _switch, dev, cache = setup
    pageno, _page = cache.new_page("mem0", "r")
    cache.flush_all()
    reads_before = dev.stats.reads
    cache.get_page("mem0", "r", pageno)
    assert dev.stats.reads == reads_before
    assert cache.stats.hits == 1


def test_cycling_over_resident_pages_only_hits(setup):
    _switch, dev, cache = setup
    pages = [cache.new_page("mem0", "r")[0] for _ in range(4)]  # = capacity
    hits, misses, reads = cache.stats.hits, cache.stats.misses, dev.stats.reads
    for i in range(200):
        cache.get_page("mem0", "r", pages[i % 4])
    assert cache.stats.hits - hits == 200
    assert (cache.stats.misses, dev.stats.reads) == (misses, reads)


def test_miss_reads_from_device(setup):
    _switch, dev, cache = setup
    pageno, _ = cache.new_page("mem0", "r")
    cache.flush_all()
    cache.invalidate_all()
    cache.get_page("mem0", "r", pageno)
    assert dev.stats.reads == 1
    assert cache.stats.misses == 1


def test_lru_eviction_writes_dirty_pages(setup):
    _switch, dev, cache = setup
    pages = []
    for i in range(6):  # capacity 4 → 2 evictions
        pageno, page = cache.new_page("mem0", "r")
        page.add_record(bytes([i]) * 8)
        cache.mark_dirty("mem0", "r", pageno)
        pages.append(pageno)
    assert cache.stats.evictions == 2
    assert cache.stats.dirty_writebacks == 2
    # Evicted pages are readable with their data intact.
    assert cache.get_page("mem0", "r", pages[0]).get_record(0) == b"\x00" * 8


def test_eviction_order_is_lru(setup):
    _switch, _dev, cache = setup
    p0, _ = cache.new_page("mem0", "r")
    for _ in range(3):
        cache.new_page("mem0", "r")
    cache.get_page("mem0", "r", p0)  # touch p0 → p1 becomes LRU
    cache.new_page("mem0", "r")
    assert cache.resident("mem0", "r", p0)
    assert not cache.resident("mem0", "r", 1)


def test_invalidate_without_writeback_loses_dirty_data(setup):
    """The crash model: volatile buffers vanish."""
    _switch, dev, cache = setup
    pageno, page = cache.new_page("mem0", "r")
    cache.flush_all()
    page = cache.get_page("mem0", "r", pageno)
    page.add_record(b"uncommitted")
    cache.mark_dirty("mem0", "r", pageno)
    cache.invalidate_all(write_dirty=False)
    fresh = cache.get_page("mem0", "r", pageno)
    assert fresh.nslots == 0


def test_flush_relation_only_touches_named_relation(setup):
    switch, dev, cache = setup
    dev.create_relation("other")
    p1, pg1 = cache.new_page("mem0", "r")
    p2, pg2 = cache.new_page("mem0", "other")
    assert cache.flush_relation("mem0", "r") == 1
    assert len(cache.dirty_pages()) == 1


def test_flush_relation_counts_forced_writes(setup):
    """flush_relation is a commit-path force, so it must account its
    writes exactly like flush_all does."""
    _switch, dev, cache = setup
    dev.create_relation("other")
    for _ in range(3):
        cache.new_page("mem0", "r")
    cache.new_page("mem0", "other")
    before = cache.stats.forced_writes
    assert cache.flush_relation("mem0", "r") == 3
    assert cache.stats.forced_writes == before + 3
    cache.flush_all()
    assert cache.stats.forced_writes == before + 4


def scattered_dirty_heap_pages(switch, dev):
    """A cache whose dirty heap pages are 1-2, 4 and 6 of ``r``, dirtied
    in no useful order, and the ``(start, len)`` of every device write
    from here on."""
    runs = []
    original = dev.write_pages

    def spy(relname, start, datas):
        runs.append((start, len(datas)))
        original(relname, start, datas)
    big = BufferCache(switch, capacity=16)
    for _ in range(8):
        big.new_page("mem0", "r", flags=PAGE_HEAP)
    big.flush_all()
    dev.write_pages = spy
    for pageno in (6, 1, 4, 2):
        big.mark_dirty("mem0", "r", pageno)
    return big, runs


def test_flush_relation_elevator_order(setup):
    switch, dev, _cache = setup
    big, runs = scattered_dirty_heap_pages(switch, dev)
    assert big.flush_relation("mem0", "r") == 4
    assert runs == [(1, 2), (4, 1), (6, 1)]


def test_invalidate_without_writeback_performs_no_device_io(setup):
    """simulate_crash semantics: dropping volatile buffers must not
    leak a single dirty page to the media."""
    _switch, dev, cache = setup
    pageno, page = cache.new_page("mem0", "r")
    page.add_record(b"uncommitted")
    cache.mark_dirty("mem0", "r", pageno)
    writes_before = dev.stats.writes
    cache.invalidate_all(write_dirty=False)
    assert dev.stats.writes == writes_before
    assert len(cache.dirty_pages()) == 0
    assert len(cache) == 0


def test_invalidate_with_writeback_flushes_then_empties(setup):
    _switch, dev, cache = setup
    pageno, page = cache.new_page("mem0", "r")
    page.add_record(b"data")
    cache.mark_dirty("mem0", "r", pageno)
    cache.invalidate_all()  # write_dirty=True is the default
    assert len(cache) == 0
    assert cache.get_page("mem0", "r", pageno).nslots == 1


def test_drop_relation_discards_frames(setup):
    _switch, _dev, cache = setup
    cache.new_page("mem0", "r")
    cache.drop_relation("mem0", "r")
    assert len(cache) == 0


def test_drop_relation_discards_dirty_frames_without_writeback(setup):
    """Dropping a relation invalidates its frames outright — writing a
    dirty page back to a relation being destroyed (e.g. vacuum swapping
    in the compacted copy) would resurrect stale data."""
    _switch, dev, cache = setup
    pageno, page = cache.new_page("mem0", "r")
    cache.flush_all()
    page = cache.get_page("mem0", "r", pageno)
    page.add_record(b"stale")
    cache.mark_dirty("mem0", "r", pageno)
    writes_before = dev.stats.writes
    cache.drop_relation("mem0", "r")
    assert dev.stats.writes == writes_before
    assert len(cache.dirty_pages()) == 0
    # The on-media page is untouched by the dropped dirty frame.
    assert cache.get_page("mem0", "r", pageno).nslots == 0


def test_mark_dirty_requires_residency(setup):
    _switch, _dev, cache = setup
    with pytest.raises(KeyError):
        cache.mark_dirty("mem0", "r", 0)


def test_flush_all_elevator_order(setup):
    """Dirty pages are written in sorted page order (one ascending
    sweep), not the order they were dirtied in."""
    switch, dev, _cache = setup
    big, runs = scattered_dirty_heap_pages(switch, dev)
    assert big.flush_all() == 4
    assert runs == [(1, 2), (4, 1), (6, 1)]

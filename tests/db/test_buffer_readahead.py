"""Buffer-cache read-ahead: sequential detection, window sizing, and
the per-relation frame indexes behind relation-scoped flush/drop."""

import pytest

from repro.db.buffer import BufferCache
from repro.db.page import PAGE_HEAP, Page
from repro.devices.memdisk import MemDisk
from repro.devices.switch import DeviceSwitch
from repro.sim.clock import SimClock

NPAGES = 32


def payload(i: int) -> bytes:
    return bytes([i]) * 8


@pytest.fixture
def setup():
    clock = SimClock()
    switch = DeviceSwitch()
    dev = MemDisk("mem0", clock)
    switch.register(dev)
    dev.create_relation("r")
    for i in range(NPAGES):
        p = dev.extend("r")
        page = Page(flags=PAGE_HEAP)
        page.add_record(payload(i))
        dev.write_page("r", p, page.to_bytes())
    return switch, dev, BufferCache(switch, capacity=16, readahead_window=8)


class ReadCalls:
    """Counts device read *operations* (MemDisk's own ``stats.reads``
    counts pages, so batching is invisible there)."""

    def __init__(self, dev):
        self.calls: list[tuple[int, int]] = []
        orig = dev.read_pages

        def read_pages(relname, start, count):
            self.calls.append((start, count))
            return orig(relname, start, count)

        dev.read_pages = read_pages


def read_all_sequential(cache, n=NPAGES):
    for i in range(n):
        cache.get_page("mem0", "r", i)


# -- sequential detection -------------------------------------------------


def test_first_misses_are_single_pages(setup):
    """The window only opens on the third consecutive sequential access
    — isolated reads and adjacent pairs never over-fetch."""
    _switch, dev, cache = setup
    calls = ReadCalls(dev)
    cache.get_page("mem0", "r", 0)
    cache.get_page("mem0", "r", 1)
    assert calls.calls == [(0, 1), (1, 1)]
    assert cache.stats.prefetches == 0


def test_third_sequential_access_opens_window(setup):
    _switch, dev, cache = setup
    calls = ReadCalls(dev)
    for i in range(3):
        cache.get_page("mem0", "r", i)
    # Pages 2..9 arrived in one batch; 3..9 were prefetched.
    assert calls.calls == [(0, 1), (1, 1), (2, 8)]
    assert cache.stats.prefetches == 7
    for p in range(2, 10):
        assert cache.resident("mem0", "r", p)
    assert not cache.resident("mem0", "r", 10)


def test_random_access_never_prefetches(setup):
    _switch, dev, cache = setup
    for p in (5, 17, 2, 29, 11, 23):
        cache.get_page("mem0", "r", p)
    assert cache.stats.prefetches == 0
    assert dev.stats.reads == 6


def test_rereading_same_page_keeps_streak(setup):
    """Fetching several records off one page must not look like a
    broken run — the next page still continues the sequence."""
    _switch, _dev, cache = setup
    for p in (0, 0, 1, 1, 1, 2):
        cache.get_page("mem0", "r", p)
    assert cache.stats.prefetches == 7  # window opened at page 2


def test_backward_access_breaks_streak(setup):
    _switch, _dev, cache = setup
    for p in (5, 6, 4, 5):
        cache.get_page("mem0", "r", p)
    assert cache.stats.prefetches == 0


def test_full_scan_batches_device_reads(setup):
    _switch, dev, cache = setup
    calls = ReadCalls(dev)
    read_all_sequential(cache)
    # 2 single misses, then 8-page windows.
    assert len(calls.calls) == 2 + (NPAGES - 2 + 7) // 8
    assert sum(c for _s, c in calls.calls) == NPAGES  # nothing read twice


def test_prefetch_contents_match_device(setup):
    _switch, _dev, cache = setup
    read_all_sequential(cache)
    for i in range(NPAGES):
        assert cache.get_page("mem0", "r", i).get_record(0) == payload(i)


def test_prefetch_hit_accounting(setup):
    _switch, _dev, cache = setup
    read_all_sequential(cache)
    # A full scan uses every prefetched page: zero wasted transfer.
    assert cache.stats.prefetches > 0
    assert cache.stats.prefetch_hits == cache.stats.prefetches


# -- window sizing ---------------------------------------------------------


def test_window_capped_by_relation_size(setup):
    """A run near EOF never reads past the last page."""
    _switch, dev, cache = setup
    calls = ReadCalls(dev)
    for p in range(NPAGES - 4, NPAGES):
        cache.get_page("mem0", "r", p)
    assert calls.calls == [(NPAGES - 4, 1), (NPAGES - 3, 1), (NPAGES - 2, 2)]


def test_window_stops_at_resident_frame(setup):
    """A resident frame may be dirty; prefetch must never replace it."""
    _switch, _dev, cache = setup
    victim = cache.get_page("mem0", "r", 5)
    victim.add_record(b"precious")
    cache.mark_dirty("mem0", "r", 5)
    for i in range(3):
        cache.get_page("mem0", "r", i)  # window would cover 2..9
    assert cache.get_page("mem0", "r", 5).get_record(1) == b"precious"
    assert cache.resident("mem0", "r", 3)
    assert not cache.resident("mem0", "r", 6)  # fetch stopped at 5


def test_window_disabled(setup):
    switch, dev, _ = setup
    cache = BufferCache(switch, capacity=16, readahead_window=1)
    read_all_sequential(cache)
    assert cache.stats.prefetches == 0
    assert dev.stats.reads == NPAGES


# -- get_page_range --------------------------------------------------------


def test_range_fetches_missing_run_in_one_call(setup):
    _switch, dev, cache = setup
    calls = ReadCalls(dev)
    pages = cache.get_page_range("mem0", "r", 4, 10)
    assert [p.get_record(0) for p in pages] == [payload(i) for i in range(4, 14)]
    assert calls.calls == [(4, 10)]


def test_range_is_exact(setup):
    """Explicit ranges transfer exactly the requested pages — callers
    that resolved an index know the span, so there is no overshoot."""
    _switch, dev, cache = setup
    calls = ReadCalls(dev)
    cache.get_page_range("mem0", "r", 0, 10)
    assert sum(c for _s, c in calls.calls) == 10


def test_range_serves_dirty_resident_frames(setup):
    _switch, _dev, cache = setup
    page = cache.get_page("mem0", "r", 6)
    page.add_record(b"dirty")
    cache.mark_dirty("mem0", "r", 6)
    pages = cache.get_page_range("mem0", "r", 4, 5)
    assert pages[2].get_record(1) == b"dirty"


def test_range_continues_streak_for_later_accesses(setup):
    """A range read primes the detector: the next page-at-a-time miss
    immediately opens a window."""
    _switch, _dev, cache = setup
    cache.get_page_range("mem0", "r", 0, 4)
    cache.get_page("mem0", "r", 4)
    assert cache.stats.prefetches == 7  # 4..11 in one batch


def test_range_rejects_negative_count(setup):
    _switch, _dev, cache = setup
    with pytest.raises(ValueError):
        cache.get_page_range("mem0", "r", 0, -1)


# -- per-relation frame indexes -------------------------------------------


def test_flush_relation_only_touches_that_relation(setup):
    switch, dev, cache = setup
    dev.create_relation("s")
    dev.extend("s")
    cache.get_page("mem0", "r", 0).add_record(b"r0")
    cache.mark_dirty("mem0", "r", 0)
    _pageno, spage = cache.new_page("mem0", "s")
    spage.add_record(b"s0")
    assert cache.flush_relation("mem0", "r") == 1
    assert len(cache.dirty_pages()) == 1  # s's page still dirty


def test_drop_relation_forgets_frames_and_detector(setup):
    _switch, dev, cache = setup
    for i in range(3):
        cache.get_page("mem0", "r", i)
    cache.drop_relation("mem0", "r")
    assert len(cache) == 0
    # Detector state was reset: next access is not "sequential".
    cache.get_page("mem0", "r", 10)
    cache.get_page("mem0", "r", 11)
    assert not cache.resident("mem0", "r", 12)


def test_eviction_maintains_rel_index(setup):
    """Evicted frames leave the per-relation index; flush_relation after
    heavy eviction still writes exactly the dirty residents."""
    switch, dev, cache = setup
    cache.get_page("mem0", "r", 0).add_record(b"x")
    cache.mark_dirty("mem0", "r", 0)
    for p in range(1, 20):  # capacity 16 → page 0 evicted (written back)
        cache.get_page("mem0", "r", p)
    assert not cache.resident("mem0", "r", 0)
    assert cache.flush_relation("mem0", "r") == 0
    cache.invalidate_all()
    assert cache.get_page("mem0", "r", 0).get_record(1) == b"x"


def test_flush_all_skips_clean_frames_via_dirty_index(setup):
    _switch, _dev, cache = setup
    for i in range(8):
        cache.get_page("mem0", "r", i)
    cache.get_page("mem0", "r", 12).add_record(b"d")
    cache.mark_dirty("mem0", "r", 12)
    assert cache.flush_all() == 1
    assert cache.flush_all() == 0

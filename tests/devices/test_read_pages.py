"""Page runs across the device managers.

``read_pages`` / ``write_pages`` are the two I/O verbs of the device
interface: one call per run of consecutive pages, one positioning
charge per physically contiguous block run.  A single page is a run of
one — ``read_page`` / ``write_page`` are the ABC's conveniences for it
— and that is pinned here, manager by manager and proxy by proxy.
"""

import pytest

from repro.db.page import PAGE_SIZE
from repro.devices.jukebox import SonyJukebox
from repro.devices.magnetic import EXTENT_PAGES, MagneticDisk
from repro.devices.memdisk import MemDisk
from repro.devices.tape import TapeJukebox
from repro.errors import DeviceError, SimulatedCrashError
from repro.replica.feed import FeedTapDevice, PrimaryFeed
from repro.sim.clock import SimClock
from repro.testkit import CrashController, FaultPlan, FaultyDevice


def page_of(byte: int) -> bytes:
    return bytes([byte & 0xFF]) * PAGE_SIZE


def fill(dev, relname: str, npages: int) -> None:
    for _ in range(npages):
        p = dev.extend(relname)
        dev.write_page(relname, p, page_of(p))


def _magnetic(tmp_path):
    return MagneticDisk("d", SimClock(), str(tmp_path))


MANAGERS = {
    "magnetic": _magnetic,
    "memdisk": lambda tmp_path: MemDisk("d", SimClock()),
    "jukebox": lambda tmp_path: SonyJukebox("d", SimClock()),
    "tape": lambda tmp_path: TapeJukebox("d", SimClock()),
    "faulty": lambda tmp_path: FaultyDevice(_magnetic(tmp_path),
                                            CrashController()),
    "feed_tap": lambda tmp_path: FeedTapDevice(_magnetic(tmp_path),
                                               PrimaryFeed(None)),
}


@pytest.fixture
def magnetic(tmp_path):
    dev = MagneticDisk("m0", SimClock(), str(tmp_path / "m0"))
    dev.create_relation("r")
    return dev


@pytest.fixture(params=["magnetic", "memdisk", "jukebox", "tape"])
def device(request, tmp_path):
    """Each of the four managers, with an empty relation ``r``."""
    dev = MANAGERS[request.param](tmp_path / "d")
    dev.create_relation("r")
    return dev


# -- semantics (all managers) ----------------------------------------------


def test_batched_bytes_match_single_reads(device):
    fill(device, "r", 12)
    batched = device.read_pages("r", 3, 7)
    singles = [device.read_page("r", 3 + i) for i in range(7)]
    assert batched == singles


def test_empty_and_negative_counts(device):
    fill(device, "r", 2)
    assert device.read_pages("r", 0, 0) == []
    with pytest.raises(ValueError):
        device.read_pages("r", 0, -1)


def test_out_of_range_rejected(device):
    fill(device, "r", 4)
    with pytest.raises(DeviceError):
        device.read_pages("r", 2, 3)  # runs past page 3
    with pytest.raises(DeviceError):
        device.read_pages("r", -1, 2)


def test_unwritten_tail_pages_read_zero(device):
    """Pages allocated with extend() but never written come back as
    zeroes, exactly as read_page returns them."""
    fill(device, "r", 2)
    device.extend("r")
    device.extend("r")
    pages = device.read_pages("r", 0, 4)
    assert pages[:2] == [page_of(0), page_of(1)]
    assert pages[2:] == [bytes(PAGE_SIZE), bytes(PAGE_SIZE)]


REFUSED_RUNS = {
    "past_the_end": lambda dev: dev.write_pages("r", 1, [page_of(7)] * 2),
    "short_second_page": lambda dev: dev.write_pages(
        "r", 0, [page_of(7), page_of(8)[:-1]]),
    "negative_start": lambda dev: dev.write_pages("r", -1, [page_of(7)] * 2),
    "read_past_the_end": lambda dev: dev.read_pages("r", 1, 2),
}


@pytest.mark.parametrize("run", list(REFUSED_RUNS))
def test_a_refused_run_touches_nothing(device, run):
    """A run the medium refuses is refused whole, before any page is
    staged or written and before the clock or a counter moves."""
    fill(device, "r", 2)
    before = observed(device)
    with pytest.raises((DeviceError, ValueError)):
        REFUSED_RUNS[run](device)
    assert observed(device) == before
    assert device.read_pages("r", 0, 2) == [page_of(0), page_of(1)]


# -- cost model (magnetic) -------------------------------------------------


def test_contiguous_run_is_one_read_operation(magnetic):
    fill(magnetic, "r", 8)
    stats = magnetic.disk.stats
    r0 = stats.reads
    magnetic.read_pages("r", 0, 8)
    assert stats.reads == r0 + 1  # one positioning + one transfer


def test_batched_read_is_cheaper_than_singles(tmp_path):
    clock_a = SimClock()
    a = MagneticDisk("a", clock_a, str(tmp_path / "a"))
    a.create_relation("r")
    fill(a, "r", 16)
    t0 = clock_a.now()
    a.read_pages("r", 0, 16)
    batched = clock_a.now() - t0

    clock_b = SimClock()
    b = MagneticDisk("b", clock_b, str(tmp_path / "b"))
    b.create_relation("r")
    fill(b, "r", 16)
    # Defeat the head's sequential-position optimisation by touching a
    # far-away block between reads, as interleaved workloads would.
    t0 = clock_b.now()
    for i in range(16):
        b.read_page("r", i)
        b.disk.read_block(b.disk.geometry.total_blocks - 1)
    singles = clock_b.now() - t0
    assert batched < singles


def test_run_breaks_at_non_adjacent_extents(tmp_path):
    """Two relations growing together interleave their extents; a range
    spanning the extent boundary needs two read operations."""
    dev = MagneticDisk("m0", SimClock(), str(tmp_path / "m0"))
    dev.create_relation("r")
    dev.create_relation("s")
    fill(dev, "r", 3)             # r extents of 1 and 2 pages, adjacent
    fill(dev, "s", 1)             # s extent interleaves
    fill(dev, "r", 2)             # r extent of 4, not adjacent to the others
    stats = dev.disk.stats
    r0 = stats.reads
    pages = dev.read_pages("r", 0, 5)
    assert stats.reads == r0 + 2
    assert pages == [page_of(i) for i in range(5)]


def test_adjacent_extents_stay_one_run(tmp_path):
    """A relation growing alone gets adjacent extents — the run (and the
    single read operation) continues straight across the boundary."""
    dev = MagneticDisk("m0", SimClock(), str(tmp_path / "m0"))
    dev.create_relation("r")
    fill(dev, "r", EXTENT_PAGES + 4)
    stats = dev.disk.stats
    r0 = stats.reads
    dev.read_pages("r", EXTENT_PAGES - 2, 4)
    assert stats.reads == r0 + 1


# -- a page is a run of one (every manager, both proxies) -------------------


@pytest.fixture(params=list(MANAGERS))
def twins(request, tmp_path):
    """Two devices of one kind with the same five pages written the
    same way: whatever one call costs on the first, its twin call must
    cost on the second."""
    pair = []
    for side in ("a", "b"):
        dev = MANAGERS[request.param](tmp_path / side)
        dev.create_relation("r")
        fill(dev, "r", 5)
        pair.append(dev)
    return pair


def observed(dev) -> dict:
    """The clock and every counter the device (and what it wraps)
    keeps."""
    seen = {"clock": dev.clock.now(), "stats": vars(dev.stats).copy()}
    for model in ("disk", "staging_disk"):
        if hasattr(dev, model):
            seen[model] = vars(getattr(dev, model).stats).copy()
    if isinstance(dev, FaultyDevice):
        seen["gates"] = (dev.ctrl.reads, dev.ctrl.writes, dev.ctrl.write_log[:])
    if isinstance(dev, FeedTapDevice):
        seen["feed"] = dev.feed.log[:]
    return seen


def test_reading_a_run_of_one_is_reading_a_page(twins):
    a, b = twins
    assert a.read_pages("r", 3, 1) == [b.read_page("r", 3)] == [page_of(3)]
    assert observed(a) == observed(b)


def test_writing_a_run_of_one_is_writing_a_page(twins):
    a, b = twins
    a.write_pages("r", 2, [page_of(9)])
    b.write_page("r", 2, page_of(9))
    assert observed(a) == observed(b)
    assert a.read_page("r", 2) == b.read_page("r", 2) == page_of(9)


def test_a_magnetic_run_of_one_is_one_block_operation(magnetic):
    fill(magnetic, "r", 3)
    stats = magnetic.disk.stats
    before = stats.snapshot()
    magnetic.read_page("r", 1)
    magnetic.write_page("r", 1, page_of(7))
    assert (stats.reads, stats.bytes_read) == (
        before.reads + 1, before.bytes_read + PAGE_SIZE)
    assert (stats.writes, stats.bytes_written) == (
        before.writes + 1, before.bytes_written + PAGE_SIZE)


def test_a_negative_count_is_refused_by_every_manager(twins):
    dev, _ = twins
    assert dev.read_pages("r", 0, 0) == []
    with pytest.raises(ValueError):
        dev.read_pages("r", 0, -2)


def test_jukebox_reads_a_run_page_by_page():
    """Managers whose medium has no contiguity to reward loop over
    their per-page routine — same bytes, page-at-a-time cost."""
    dev = SonyJukebox("j0", SimClock())
    dev.create_relation("r")
    fill(dev, "r", 5)
    hits = dev.stats.staging_hits
    assert dev.read_pages("r", 1, 3) == [page_of(1), page_of(2), page_of(3)]
    assert dev.stats.staging_hits == hits + 3


@pytest.mark.parametrize("k", range(4))
def test_a_faulted_run_leaves_exactly_a_prefix_durable(tmp_path, k):
    """``FaultyDevice.write_pages`` gates and writes page by page: power
    failing in place of write ``k`` of a run leaves pages ``< k`` new
    and the rest old."""
    inner = _magnetic(tmp_path)
    inner.create_relation("r")
    fill(inner, "r", 4)
    ctrl = CrashController(FaultPlan(crash_after=k))
    dev = FaultyDevice(inner, ctrl)
    with pytest.raises(SimulatedCrashError):
        dev.write_pages("r", 0, [page_of(100 + i) for i in range(4)])
    assert ctrl.write_log == [("page", "d", f"r:{i}") for i in range(k)]
    assert inner.read_pages("r", 0, 4) == (
        [page_of(100 + i) for i in range(k)]
        + [page_of(i) for i in range(k, 4)])


# -- memdisk ---------------------------------------------------------------


def test_memdisk_batched_read(tmp_path):
    clock = SimClock()
    dev = MemDisk("mem0", clock)
    dev.create_relation("r")
    fill(dev, "r", 6)
    t0 = clock.now()
    pages = dev.read_pages("r", 2, 4)
    elapsed_batch = clock.now() - t0
    assert pages == [page_of(i) for i in range(2, 6)]
    t0 = clock.now()
    for i in range(2, 6):
        dev.read_page("r", i)
    elapsed_single = clock.now() - t0
    assert elapsed_batch == pytest.approx(elapsed_single)  # DMA: no seek cost

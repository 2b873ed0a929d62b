"""The shared buffer cache.

"POSTGRES maintains an in-memory shared cache of recently used 8 KByte
data pages.  The size of this cache is tunable when the file system is
installed; as shipped, the system uses 64 buffers, but the version in
use locally uses 300.  Data pages are kicked out of this cache in LRU
order, regardless of the device from which they came.  Dirty pages are
written to backing store before being deleted from the cache."

The cache is the only path between the storage layers (heap, B-tree)
and the device managers.  All simulated I/O cost is charged by the
devices, so a cache hit is (nearly) free and a miss pays real disk
time — exactly the performance structure the benchmark measures.

Dirty pages leave the cache at eviction, one at a time, and at a flush
(commit forces every dirty page), which sorts them first by device and
by the address the device manager reports for the page, whichever
relations they belong to: a magnetic disk is swept in ascending block
order over the heap pages and back in descending order over the index
pages (:func:`sweep_runs` says why heap pages go first).

Sequential scans additionally get a read-ahead window: when a miss
lands on the page directly after the previous access to the same
relation, the cache fetches up to ``readahead_window`` pages in one
``read_pages`` device call, so a scan pays one positioning per window
instead of one per page.  Read-ahead is purely a cost optimisation —
prefetched pages hold exactly the bytes a page-at-a-time read would
have seen, and reads are not crash boundaries, so the crash explorer's
schedules are unchanged by it.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

from repro.db.page import PAGE_HEAP, Page
from repro.devices.switch import DeviceSwitch
from repro.obs.registry import MetricSpec
from repro.obs.tracing import NO_SPAN
from repro.sim.cpu import CpuModel

BufferKey = tuple[str, str, int]  # (device name, relation name, page number)

DEFAULT_BUFFERS = 300
"""The evaluated configuration; POSTGRES shipped with 64."""

DEFAULT_READAHEAD = 8
"""Pages fetched per device call once a scan turns sequential."""

METRICS = (
    MetricSpec("buffer.hits", "counter", "pages",
               "Page requests served from a resident frame.",
               "repro.db.buffer"),
    MetricSpec("buffer.misses", "counter", "pages",
               "Page requests that paid a device read.",
               "repro.db.buffer"),
    MetricSpec("buffer.evictions", "counter", "pages",
               "Frames pushed out in LRU order to admit new pages.",
               "repro.db.buffer"),
    MetricSpec("buffer.dirty_writebacks", "counter", "pages",
               "Dirty pages written back to their device (eviction or "
               "flush).",
               "repro.db.buffer"),
    MetricSpec("buffer.forced_writes", "counter", "pages",
               "Dirty pages written by an explicit flush (commit force, "
               "relation flush).",
               "repro.db.buffer"),
    MetricSpec("buffer.batched_writes", "counter", "ops",
               "write_pages device calls that carried more than one page.",
               "repro.db.buffer"),
    MetricSpec("buffer.write_coalesce_hits", "counter", "pages",
               "Pages that rode along in a batched write beyond the "
               "first — each one a positioning charge a write of its "
               "own would have paid.",
               "repro.db.buffer"),
    MetricSpec("buffer.prefetches", "counter", "pages",
               "Pages fetched ahead of an explicit request by the "
               "read-ahead window.",
               "repro.db.buffer"),
    MetricSpec("buffer.prefetch_hits", "counter", "pages",
               "Hits served from a prefetched, not-yet-requested frame.",
               "repro.db.buffer"),
)

#: pushed per-relation device families — charged at the buffer/device
#: seam, where both the device name and the relation are known (the
#: registry's ``device.reads{device=...,relation=...}`` series).
DEVICE_METRICS = (
    MetricSpec("device.reads", "counter", "ops",
               "Device read calls issued by the buffer cache (a batched "
               "run counts once).",
               "repro.db.buffer", ("device", "relation")),
    MetricSpec("device.pages_read", "counter", "pages",
               "Pages transferred by those reads.",
               "repro.db.buffer", ("device", "relation")),
    MetricSpec("device.writes", "counter", "ops",
               "Device write calls issued by the buffer cache (a run "
               "counts once).",
               "repro.db.buffer", ("device", "relation")),
    MetricSpec("device.pages_written", "counter", "pages",
               "Pages transferred by those writes.",
               "repro.db.buffer", ("device", "relation")),
)


@dataclass
class BufferStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    dirty_writebacks: int = 0
    forced_writes: int = 0
    #: ``write_pages`` device calls that carried more than one page.
    batched_writes: int = 0
    #: pages that rode along in a batched write beyond the first — each
    #: one a device positioning a write of its own would have paid.
    write_coalesce_hits: int = 0
    #: pages fetched ahead of an explicit request (beyond the missed page).
    prefetches: int = 0
    #: hits that were served from a prefetched (not yet requested) frame.
    prefetch_hits: int = 0


def sweep_runs(switch: DeviceSwitch, pages) -> list[tuple]:
    """The order a commit sweep writes ``pages`` in, as an elevator
    would: out over the heap pages in ascending order of where the
    device says they sit (``DeviceManager.page_address`` — the block
    address on a magnetic disk, (relation, page) on a manager with no
    geometry), and back over the index pages in descending order,
    towards the front of the disk where the commit record is forced
    next.  ``pages`` holds ``(key, item, is_heap)`` triples; the result
    is ``(device, relation, first page, [item, ...])`` runs of
    consecutive pages of one relation that sort next to each other —
    each one batched device write, issued forwards in either direction.

    Heap pages go first because index entries are not versioned: a
    B-tree leaf that reached the medium ahead of the heap page its
    entries point at would, after a crash in between, hold TIDs of
    records that do not exist — out of range, or worse, slots the next
    insert hands to another record.  A replica applying a shipped round
    (:mod:`repro.replica.server`) writes its pages in this order for
    the same reason."""
    device = switch.get

    def position(page):
        dev_name, relname, pageno = page[0]
        return dev_name, device(dev_name).page_address(relname, pageno)

    out: list[tuple] = []       # runs of heap pages
    back: list[tuple] = []      # runs of index pages
    run = None
    for (dev_name, relname, pageno), item, heap in sorted(pages,
                                                          key=position):
        if run is not None and (dev_name, relname, pageno) == (
                run[0], run[1], run[2] + len(run[3])):
            run[3].append(item)
            continue
        run = (dev_name, relname, pageno, [item])
        (out if heap else back).append(run)
    return out + back[::-1]


class _Frame:
    """One resident page.  A plain ``__slots__`` class: frames are the
    unit object of every buffer lookup, so they skip the dict that a
    dataclass instance would carry.  ``prefetched`` marks a frame
    admitted by read-ahead and not yet explicitly requested."""

    __slots__ = ("page", "dirty", "prefetched")

    def __init__(self, page: Page, dirty: bool = False,
                 prefetched: bool = False) -> None:
        self.page = page
        self.dirty = dirty
        self.prefetched = prefetched


@dataclass
class BufferCache:
    """LRU page cache over the device manager switch."""

    switch: DeviceSwitch
    capacity: int = DEFAULT_BUFFERS
    cpu: CpuModel | None = None
    readahead_window: int = DEFAULT_READAHEAD
    #: the session's Observability bundle (set by Database); None for
    #: standalone caches in unit tests.
    obs: object | None = field(default=None, repr=False)
    stats: BufferStats = field(default_factory=BufferStats)
    _frames: "OrderedDict[BufferKey, _Frame]" = field(
        default_factory=OrderedDict, repr=False)
    #: (device, relation) -> resident page numbers; keeps relation-scoped
    #: flush/drop from walking every frame in the cache.
    _rel_keys: dict[tuple[str, str], set[int]] = field(
        default_factory=dict, repr=False)
    #: keys of dirty frames — flush_all iterates these, not all frames.
    _dirty_keys: set[BufferKey] = field(default_factory=set, repr=False)
    #: last page number touched per (device, relation) — the sequential
    #: detector.
    _last: dict[tuple[str, str], int] = field(default_factory=dict, repr=False)
    #: consecutive sequential accesses per (device, relation).  The
    #: read-ahead window only opens once a run has proven itself (two
    #: sequential steps), so an access pattern that merely brushes two
    #: adjacent pages never over-fetches.
    _streaks: dict[tuple[str, str], int] = field(default_factory=dict, repr=False)

    # -- core operations ---------------------------------------------------

    def get_page(self, dev_name: str, relname: str, pageno: int) -> Page:
        """Return the cached page, reading it from its device on a miss.

        A miss at ``last_access + 1`` is treated as a sequential scan
        and pulls a whole read-ahead window in one device call."""
        key = (dev_name, relname, pageno)
        obs = self.obs
        streak = self._note_access((dev_name, relname), pageno)
        frames = self._frames
        frame = frames.get(key)
        if frame is not None:
            stats = self.stats
            stats.hits += 1
            if obs is not None:
                obs.tx.charge("buffer_hits")
            if frame.prefetched:
                frame.prefetched = False
                stats.prefetch_hits += 1
            frames.move_to_end(key)
            return frame.page
        dev = self.switch.get(dev_name)
        count = self._readahead_count(dev, relname, dev_name, pageno, streak)
        return self._fill(dev, dev_name, relname, pageno, count, 1)[0]

    def _fill(self, dev, dev_name: str, relname: str, start: int,
              count: int, demanded: int) -> list[Page]:
        """The one place bytes arrive from a device: read the run
        [start, start + count) in one device call and admit a frame per
        page.  The first ``demanded`` pages were asked for and count as
        misses; the rest are read-ahead, admitted ``prefetched``."""
        stats = self.stats
        stats.misses += demanded
        stats.prefetches += count - demanded
        obs = self.obs
        span = obs.span("device.read", device=dev_name, relation=relname,
                        page=start, pages=count) \
            if obs is not None and obs.tracer.enabled else NO_SPAN
        with span:
            datas = dev.read_pages(relname, start, count)
        if obs is not None:
            obs.tx.charge("buffer_misses", demanded)
            obs.device_read(dev_name, relname, count)
        if self.cpu is not None:
            for _ in datas:
                self.cpu.buffer_copy()
        pages = list(map(Page, datas))
        for i, page in enumerate(pages):
            self._admit((dev_name, relname, start + i),
                        _Frame(page, False, i >= demanded))
        return pages

    def _note_access(self, lk: tuple[str, str], pageno: int) -> int:
        """Record one page access for the sequential detector; returns
        the length of the current sequential streak (0 = not part of a
        run).  Re-reading the last page (e.g. several records fetched
        off one page) keeps the streak — only a jump breaks it."""
        last = self._last.get(lk)
        if last == pageno - 1:
            streak = self._streaks.get(lk, 0) + 1
        elif last == pageno:
            streak = self._streaks.get(lk, 0)
        else:
            streak = 0
        self._streaks[lk] = streak
        self._last[lk] = pageno
        return streak

    def _readahead_count(self, dev, relname: str, dev_name: str,
                         pageno: int, streak: int) -> int:
        """How many pages to fetch for a miss at ``pageno``: 1 until the
        access pattern has taken two consecutive sequential steps (so a
        read that merely brushes adjacent pages never over-fetches),
        then a full window, capped by the relation's size, the cache
        capacity, and the first already-resident page (a resident frame
        may be dirty and must never be overwritten by a stale prefetch)."""
        window = self.readahead_window
        if window <= 1 or streak < 2:
            return 1
        count = min(window, dev.nblocks(relname) - pageno, self.capacity)
        for i in range(1, count):
            if (dev_name, relname, pageno + i) in self._frames:
                return i
        return max(count, 1)

    def get_page_range(self, dev_name: str, relname: str,
                       start: int, count: int) -> list[Page]:
        """Return ``count`` consecutive pages, fetching every missing run
        with one batched device call each.  Resident frames (possibly
        dirty) are served from the cache, so the result is always the
        current contents, identical to ``count`` ``get_page`` calls."""
        if count < 0:
            raise ValueError(f"negative page count {count}")
        dev = self.switch.get(dev_name)
        obs = self.obs
        lk = (dev_name, relname)
        # The range counts as `count` sequential accesses for the
        # detector; a later page-at-a-time continuation picks up the
        # streak where the range left off.
        entry_streak = self._streaks.get(lk, 0) + 1 \
            if count and self._last.get(lk) == start - 1 else 0
        pages: list[Page] = []
        i = 0
        while i < count:
            key = (dev_name, relname, start + i)
            frame = self._frames.get(key)
            if frame is not None:
                self.stats.hits += 1
                if obs is not None:
                    obs.tx.charge("buffer_hits")
                if frame.prefetched:
                    frame.prefetched = False
                    self.stats.prefetch_hits += 1
                self._frames.move_to_end(key)
                pages.append(frame.page)
                i += 1
                continue
            # Collect the whole missing run and fetch it in one call.
            run = 1
            while (i + run < count
                   and (dev_name, relname, start + i + run) not in self._frames):
                run += 1
            if run == 1:
                # A lone missing page: route through get_page so the
                # sequential detector can extend it into a read-ahead
                # window (page-at-a-time range calls — e.g. one chunk
                # per request — still batch their device I/O).
                pages.append(self.get_page(dev_name, relname, start + i))
                i += 1
                continue
            pages += self._fill(dev, dev_name, relname, start + i, run, run)
            i += run
        if count:
            self._last[lk] = start + count - 1
            self._streaks[lk] = entry_streak + count - 1
        return pages

    def new_page(self, dev_name: str, relname: str, flags: int = 0) -> tuple[int, Page]:
        """Extend the relation by one page; returns (pageno, page).  The
        new page is dirty — it reaches the device at eviction or
        flush."""
        dev = self.switch.get(dev_name)
        pageno = dev.extend(relname)
        page = Page(flags=flags)
        self._admit((dev_name, relname, pageno), _Frame(page, dirty=True))
        return pageno, page

    def mark_dirty(self, dev_name: str, relname: str, pageno: int) -> None:
        key = (dev_name, relname, pageno)
        frame = self._frames.get(key)
        if frame is None:
            raise KeyError(f"page {key} not resident")
        frame.dirty = True
        self._dirty_keys.add(key)

    def _admit(self, key: BufferKey, frame: _Frame) -> None:
        while len(self._frames) >= self.capacity:
            self._evict_one()
        self._frames[key] = frame
        self._rel_keys.setdefault(key[:2], set()).add(key[2])
        if frame.dirty:
            self._dirty_keys.add(key)

    def _evict_one(self) -> None:
        key, frame = self._frames.popitem(last=False)
        self.stats.evictions += 1
        self._forget(key)
        if frame.dirty:
            self._write_run(*key, [frame], "eviction")

    def _forget(self, key: BufferKey) -> None:
        """Drop a key from the secondary indexes (frame already gone)."""
        pages = self._rel_keys.get(key[:2])
        if pages is not None:
            pages.discard(key[2])
            if not pages:
                del self._rel_keys[key[:2]]

    def _write_run(self, dev_name: str, relname: str, start: int,
                   frames: list[_Frame], cause: str) -> None:
        """The one place bytes leave for a device: write a run of
        consecutive dirty pages back in a single device call — an
        evicted victim is a run of one.  ``dirty_writebacks`` counts
        pages; ``batched_writes`` and ``write_coalesce_hits`` count the
        runs longer than one and the pages that rode along in them."""
        obs = self.obs
        npages = len(frames)
        span = obs.span("device.write", device=dev_name, relation=relname,
                        page=start, pages=npages, cause=cause) \
            if obs is not None and obs.tracer.enabled else NO_SPAN
        with span:
            self.switch.get(dev_name).write_pages(
                relname, start, [f.page.to_bytes() for f in frames])
        if obs is not None:
            obs.device_write(dev_name, relname, npages)
        for i, frame in enumerate(frames):
            frame.dirty = False
            self._dirty_keys.discard((dev_name, relname, start + i))
        stats = self.stats
        stats.dirty_writebacks += npages
        stats.batched_writes += npages > 1
        stats.write_coalesce_hits += npages - 1

    # -- flushing ------------------------------------------------------------

    def _sweep(self, keys) -> int:
        """Write back the dirty frames among ``keys`` in
        :func:`sweep_runs` order, one batched device write per run."""
        frames = self._frames
        dirty = [(key, frames[key], frames[key].page.flags & PAGE_HEAP)
                 for key in keys if key in frames and frames[key].dirty]
        for run in sweep_runs(self.switch, dirty):
            self._write_run(*run, "flush")
            self.stats.forced_writes += len(run[3])
        return len(dirty)

    def flush_all(self) -> int:
        """Write back every dirty page (transaction commit forces its
        writes this way — the no-overwrite manager has no WAL, so data
        pages themselves must be durable before the commit record).
        Returns the number of pages written."""
        # One elevator trip: the scatter of dirty pages goes out in the
        # order the medium holds them, whichever relations they belong
        # to, as the disk driver's elevator would send it.
        obs = self.obs
        span = obs.span("buffer.flush_all") \
            if obs is not None and obs.tracer.enabled else NO_SPAN
        with span as sp:
            written = self._sweep(self._dirty_keys)
            sp.set(pages=written)
        return written

    def flush_relation(self, dev_name: str, relname: str) -> int:
        """Force one relation's dirty pages (same sweep order,
        coalescing, and ``forced_writes`` accounting as
        :meth:`flush_all`, so write counting is consistent whichever
        flush path a caller takes)."""
        resident = self._rel_keys.get((dev_name, relname))
        if not resident:
            return 0
        return self._sweep(
            [(dev_name, relname, pageno) for pageno in resident])

    def install(self, dev_name: str, relname: str, pageno: int,
                data: bytes) -> None:
        """Give a resident frame the page image ``data`` that was
        written to the device behind the cache's back (a replica's
        shipped page).  A no-op when the page is not resident;
        otherwise the frame keeps its LRU place and pays one
        ``buffer_copy``, since the bytes are already in memory."""
        frame = self._frames.get((dev_name, relname, pageno))
        if frame is None:
            return
        frame.page = Page(data)
        if self.cpu is not None:
            self.cpu.buffer_copy()

    # -- invalidation -----------------------------------------------------------

    def invalidate_all(self, write_dirty: bool = True) -> None:
        """Drop every frame.  With ``write_dirty=False`` this models a
        crash (buffer contents lost); with True it is the benchmark's
        'all caches were flushed before each test'."""
        if write_dirty:
            self.flush_all()
        self._frames.clear()
        self._rel_keys.clear()
        self._dirty_keys.clear()
        self._last.clear()
        self._streaks.clear()

    def drop_relation(self, dev_name: str, relname: str) -> None:
        """Discard frames of a dropped relation without writeback."""
        pages = self._rel_keys.pop((dev_name, relname), None)
        if not pages:
            # ``_last`` / ``_streaks`` stay, as they always have here:
            # they gate read-ahead, which is a simulated cost.
            return
        for pageno in pages:
            key = (dev_name, relname, pageno)
            self._frames.pop(key, None)
            self._dirty_keys.discard(key)
        self._last.pop((dev_name, relname), None)
        self._streaks.pop((dev_name, relname), None)

    # -- introspection -------------------------------------------------------------

    def resident(self, dev_name: str, relname: str, pageno: int) -> bool:
        return (dev_name, relname, pageno) in self._frames

    def dirty_pages(self) -> list[BufferKey]:
        return sorted(self._dirty_keys)

    def __len__(self) -> int:
        return len(self._frames)

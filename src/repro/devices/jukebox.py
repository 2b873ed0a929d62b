"""Sony WORM optical jukebox device manager.

The paper: "Due to extremely high setup costs (many seconds to load an
optical platter) and relatively low transfer rates, using the jukebox
directly for every transfer would be very slow.  Instead, the Sony
jukebox device manager caches recently-used blocks on magnetic disk.
The size of this cache is tunable, and defaults to 10 MBytes."  And on
layout: "The Sony jukebox device manager allocates tables in units of
extents, where an extent is a collection of physically contiguous
8 KByte data pages … defaults to 16 pages."

Model:

- a set of WORM platters, each a write-once array of blocks (a block,
  once burned, can never be rewritten — :class:`WormViolationError`);
- a small number of drives; touching a platter that is not loaded
  charges a multi-second load;
- a magnetic-disk staging cache (default 10 MB) holding recently used
  and dirty pages; logical page rewrites stay in the staging cache and
  are burned to *fresh* blocks on destage, leaving a revision chain on
  the platter (the Cached-WORM technique of [QUIN91], which POSTGRES'
  Sony manager followed).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.db.page import PAGE_SIZE
from repro.devices.base import RelationTable
from repro.errors import DeviceError, DeviceFullError, WormViolationError
from repro.obs.registry import MetricSpec
from repro.sim.clock import SimClock
from repro.sim.disk import DiskGeometry, DiskModel, RZ58

JUKEBOX_EXTENT_PAGES = 16
"""Default extent size: 16 physically contiguous pages."""

METRICS = (
    MetricSpec("jukebox.platter_loads", "counter", "ops",
               "Times a drive had to load an optical platter "
               "(multi-second setup cost each).",
               "repro.devices.jukebox", ("device",)),
    MetricSpec("jukebox.burns", "counter", "pages",
               "Pages burned to write-once optical blocks on destage.",
               "repro.devices.jukebox", ("device",)),
    MetricSpec("jukebox.optical_reads", "counter", "pages",
               "Pages read from the platter (staging-cache misses).",
               "repro.devices.jukebox", ("device",)),
    MetricSpec("jukebox.staging_hits", "counter", "pages",
               "Page reads served by the magnetic staging cache.",
               "repro.devices.jukebox", ("device",)),
    MetricSpec("jukebox.staging_misses", "counter", "pages",
               "Page reads that missed the staging cache and went to "
               "the platter.",
               "repro.devices.jukebox", ("device",)),
)


@dataclass(frozen=True)
class JukeboxParams:
    """Cost/geometry parameters for the jukebox."""

    n_platters: int = 50
    platter_capacity_bytes: int = 6_550_000_000  # ≈ 327 GB / 50 platters
    n_drives: int = 2
    platter_load_s: float = 8.0
    seek_s: float = 0.15
    transfer_rate_bps: float = 600_000.0
    staging_cache_bytes: int = 10_000_000
    extent_pages: int = JUKEBOX_EXTENT_PAGES

    @property
    def platter_blocks(self) -> int:
        return self.platter_capacity_bytes // PAGE_SIZE


@dataclass
class JukeboxStats:
    platter_loads: int = 0
    burns: int = 0
    optical_reads: int = 0
    staging_hits: int = 0
    staging_misses: int = 0


class _Platter:
    """One write-once optical platter."""

    def __init__(self, index: int, nblocks: int) -> None:
        self.index = index
        self.nblocks = nblocks
        self.blocks: dict[int, bytes] = {}
        self.next_free = 0

    def burn(self, block: int, data: bytes) -> None:
        if block in self.blocks:
            raise WormViolationError(
                f"platter {self.index} block {block} already burned (WORM)")
        self.blocks[block] = bytes(data)

    def read(self, block: int) -> bytes:
        try:
            return self.blocks[block]
        except KeyError:
            raise DeviceError(
                f"platter {self.index} block {block} never burned") from None

    def allocate(self, count: int) -> int:
        if self.next_free + count > self.nblocks:
            raise DeviceFullError(f"platter {self.index} is full")
        start = self.next_free
        self.next_free += count
        return start


class SonyJukebox(RelationTable):
    """WORM optical jukebox with a magnetic staging cache.

    A relation's ``where`` maps each destaged page to its revision
    chain: the (platter, block) of every version burned, latest last."""

    nonvolatile = True  # burned blocks survive anything

    def __init__(self, name: str, clock: SimClock,
                 params: JukeboxParams | None = None,
                 staging_geometry: DiskGeometry = RZ58) -> None:
        super().__init__(name, clock)
        self.params = params or JukeboxParams()
        self.stats = JukeboxStats()
        self.staging_disk = DiskModel(clock=clock, geometry=staging_geometry)
        self._platters = [
            _Platter(i, self.params.platter_blocks)
            for i in range(self.params.n_platters)
        ]
        self._loaded: OrderedDict[int, None] = OrderedDict()  # platter LRU in drives
        # relname -> (platter, next block, end) of the extent it burns
        # fresh pages into.
        self._extents: dict[str, tuple[int, int, int]] = {}
        # Staging cache: (relname, pageno) -> [data, dirty]
        self._staging: OrderedDict[tuple[str, int], list] = OrderedDict()
        self._staging_used = 0
        self._next_platter = 0
        self._staging_block_cursor = 0

    # -- cost helpers ------------------------------------------------------

    def _load_platter(self, index: int) -> None:
        if index in self._loaded:
            self._loaded.move_to_end(index)
            return
        if len(self._loaded) >= self.params.n_drives:
            self._loaded.popitem(last=False)
        self._loaded[index] = None
        self.stats.platter_loads += 1
        self.clock.advance(self.params.platter_load_s)

    def _optical_io(self, nbytes: int) -> None:
        self.clock.advance(self.params.seek_s + nbytes / self.params.transfer_rate_bps)

    def _staging_io(self, nbytes: int = PAGE_SIZE) -> None:
        # Staging cache I/O is charged as a short-seek magnetic access.
        block = self._staging_block_cursor
        self._staging_block_cursor = (self._staging_block_cursor + 1) % 4096
        self.staging_disk.write_block(block, nbytes)

    # -- staging cache -------------------------------------------------------

    def _stage(self, relname: str, pageno: int, data: bytes, dirty: bool) -> None:
        key = (relname, pageno)
        if key in self._staging:
            entry = self._staging[key]
            entry[0] = bytes(data)
            entry[1] = entry[1] or dirty
            self._staging.move_to_end(key)
            return
        while (self._staging_used + PAGE_SIZE > self.params.staging_cache_bytes
               and self._staging):
            self._evict_one()
        self._staging[key] = [bytes(data), dirty]
        self._staging_used += PAGE_SIZE

    def _evict_one(self) -> None:
        (relname, pageno), (data, dirty) = self._staging.popitem(last=False)
        self._staging_used -= PAGE_SIZE
        if dirty:
            self._burn(relname, pageno, data)

    def _burn(self, relname: str, pageno: int, data: bytes) -> None:
        """Burn the latest version of a page to fresh WORM blocks."""
        platter_idx, block = self._allocate_block(relname)
        self._load_platter(platter_idx)
        self._optical_io(PAGE_SIZE)
        self._platters[platter_idx].burn(block, data)
        self._rels[relname].where.setdefault(pageno, []).append(
            (platter_idx, block))
        self.stats.burns += 1

    def _allocate_block(self, relname: str) -> tuple[int, int]:
        platter_idx, block, end = self._extents.get(relname, (0, 0, 0))
        if block == end:
            ext = self.params.extent_pages
            platter = self._platters[self._next_platter]
            try:
                block = platter.allocate(ext)
            except DeviceFullError:
                self._next_platter += 1
                if self._next_platter >= len(self._platters):
                    raise DeviceFullError(f"jukebox {self.name} is full") from None
                platter = self._platters[self._next_platter]
                block = platter.allocate(ext)
            platter_idx, end = platter.index, block + ext
        self._extents[relname] = (platter_idx, block + 1, end)
        return platter_idx, block

    # -- DeviceManager interface ----------------------------------------------

    def _free(self, relname: str, st) -> None:
        # WORM blocks cannot be reclaimed; drop the staging entries only.
        for key in [k for k in self._staging if k[0] == relname]:
            del self._staging[key]
            self._staging_used -= PAGE_SIZE
        self._extents.pop(relname, None)

    def extend(self, relname: str) -> int:
        pageno = super().extend(relname)
        self._stage(relname, pageno, bytes(PAGE_SIZE), dirty=False)
        return pageno

    def _read_one(self, relname: str, st, pageno: int) -> bytes:
        key = (relname, pageno)
        entry = self._staging.get(key)
        if entry is not None:
            self.stats.staging_hits += 1
            self._staging.move_to_end(key)
            self.staging_disk.read_block(self._staging_block_cursor)
            return entry[0]
        self.stats.staging_misses += 1
        chain = st.where.get(pageno)
        if chain is None:
            # Extended but never written nor destaged, and fell out of
            # staging: logically a zero page.
            return bytes(PAGE_SIZE)
        platter_idx, block = chain[-1]
        self._load_platter(platter_idx)
        self._optical_io(PAGE_SIZE)
        self.stats.optical_reads += 1
        data = self._platters[platter_idx].read(block)
        self._stage(relname, pageno, data, dirty=False)
        return data

    def _write_one(self, relname: str, st, pageno: int, data: bytes) -> None:
        self._staging_io()
        self._stage(relname, pageno, data, dirty=True)

    def flush(self) -> None:
        """Destage every dirty staged page to the platters."""
        for key in list(self._staging):
            entry = self._staging[key]
            if entry[1]:
                self._burn(key[0], key[1], entry[0])
                entry[1] = False

    def sync_write_meta(self, tag: str, data: bytes) -> None:
        self._staging_io(max(512, min(len(data), PAGE_SIZE)))
        super().sync_write_meta(tag, data)

    def close(self) -> None:
        self.flush()

    def simulate_crash(self) -> None:
        """The magnetic staging cache is assumed battery-protected in
        POSTGRES deployments; we flush dirty pages on crash so burned
        state is consistent (a conservative model)."""
        self.flush()

    # -- introspection ---------------------------------------------------------

    def revision_count(self, relname: str, pageno: int) -> int:
        """Number of burned versions of a logical page (WORM revision
        chain length) — verifies that rewrites burn fresh blocks."""
        return len(self._state(relname).where.get(pageno, ()))

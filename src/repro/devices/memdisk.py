"""Non-volatile RAM device manager.

POSTGRES 4.0.1 "supports storage on non-volatile RAM, magnetic disk,
and a 327 GByte Sony optical disk WORM jukebox"; the NVRAM manager
"operates on raw devices".  This manager keeps pages in memory and
charges only a bus-copy cost per transfer.  Because the medium is
battery-backed, its contents survive a *simulated* crash (the crash
model is a power failure of the volatile parts of the machine, which
NVRAM by definition survives).  It does not survive real process exit;
durability tests use :class:`repro.devices.magnetic.MagneticDisk`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.db.page import PAGE_SIZE
from repro.devices.base import RelationTable
from repro.errors import DeviceError, DeviceFullError
from repro.obs.registry import MetricSpec
from repro.sim.clock import SimClock

METRICS = (
    MetricSpec("memdisk.reads", "counter", "pages",
               "Pages copied out of non-volatile RAM (batched reads "
               "count per page).",
               "repro.devices.memdisk", ("device",)),
    MetricSpec("memdisk.writes", "counter", "pages",
               "Pages copied into non-volatile RAM (batched writes "
               "count per page).",
               "repro.devices.memdisk", ("device",)),
)


@dataclass
class MemDiskStats:
    reads: int = 0
    writes: int = 0


class MemDisk(RelationTable):
    """RAM-backed device manager with a DMA-copy cost model."""

    nonvolatile = True

    def __init__(self, name: str, clock: SimClock,
                 capacity_bytes: int = 64 * 1024 * 1024,
                 dma_rate_bps: float = 20_000_000.0) -> None:
        super().__init__(name, clock)
        self.capacity_bytes = capacity_bytes
        self.dma_rate_bps = dma_rate_bps
        self.stats = MemDiskStats()
        self._used = 0

    def _free(self, relname: str, st) -> None:
        self._used -= st.npages * PAGE_SIZE

    def rename_relation(self, src: str, dst: str) -> None:
        """In-memory swap: a dict move, trivially atomic."""
        if src not in self._rels:
            if dst in self._rels:
                return
            raise DeviceError(f"no relation {src!r} on {self.name}")
        if dst in self._rels:
            self.drop_relation(dst)
        self._rels[dst] = self._rels.pop(src)

    # -- page I/O -------------------------------------------------------

    def extend(self, relname: str) -> int:
        if self._used + PAGE_SIZE > self.capacity_bytes:
            raise DeviceFullError(f"NVRAM device {self.name} is full")
        pageno = super().extend(relname)
        self._used += PAGE_SIZE
        return pageno

    def read_pages(self, relname: str, start: int, count: int) -> list[bytes]:
        """One DMA burst for the whole run — same bytes, one charge call."""
        pages = super().read_pages(relname, start, count)
        self.clock.advance(count * PAGE_SIZE / self.dma_rate_bps)
        self.stats.reads += count
        return pages

    def write_pages(self, relname: str, start: int,
                    datas: list[bytes]) -> None:
        """One DMA burst for the whole run — same bytes, one charge call."""
        super().write_pages(relname, start, datas)
        self.clock.advance(len(datas) * PAGE_SIZE / self.dma_rate_bps)
        self.stats.writes += len(datas)

    def _read_one(self, relname: str, st, pageno: int) -> bytes:
        return st.where.get(pageno, bytes(PAGE_SIZE))

    def _write_one(self, relname: str, st, pageno: int, data: bytes) -> None:
        st.where[pageno] = bytes(data)

    # -- durability ------------------------------------------------------

    def flush(self) -> None:
        """NVRAM needs no flushing."""

    def sync_write_meta(self, tag: str, data: bytes) -> None:
        self.clock.advance(len(data) / self.dma_rate_bps)
        super().sync_write_meta(tag, data)

    def close(self) -> None:
        """Nothing to release."""

    # NVRAM survives the simulated power failure: inherit the no-op
    # simulate_crash from the base class.

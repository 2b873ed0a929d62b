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

from dataclasses import dataclass, field

from repro.db.page import PAGE_SIZE
from repro.devices.base import DeviceManager
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


class MemDisk(DeviceManager):
    """RAM-backed device manager with a DMA-copy cost model."""

    nonvolatile = True

    def __init__(self, name: str, clock: SimClock,
                 capacity_bytes: int = 64 * 1024 * 1024,
                 dma_rate_bps: float = 20_000_000.0) -> None:
        self.name = name
        self.clock = clock
        self.capacity_bytes = capacity_bytes
        self.dma_rate_bps = dma_rate_bps
        self.stats = MemDiskStats()
        self._relations: dict[str, list[bytes]] = {}
        self._meta: dict[str, bytes] = {}
        self._used = 0

    # -- relation lifecycle -------------------------------------------

    def create_relation(self, relname: str) -> None:
        self._validate_relname(relname)
        if relname in self._relations:
            raise DeviceError(f"relation {relname!r} already exists on {self.name}")
        self._relations[relname] = []

    def drop_relation(self, relname: str) -> None:
        pages = self._relations.pop(relname, None)
        if pages is None:
            raise DeviceError(f"no relation {relname!r} on {self.name}")
        self._used -= len(pages) * PAGE_SIZE

    def rename_relation(self, src: str, dst: str) -> None:
        """In-memory swap: a dict move, trivially atomic."""
        if src not in self._relations:
            if dst in self._relations:
                return
            raise DeviceError(f"no relation {src!r} on {self.name}")
        if dst in self._relations:
            self.drop_relation(dst)
        self._relations[dst] = self._relations.pop(src)

    def relation_exists(self, relname: str) -> bool:
        return relname in self._relations

    def list_relations(self) -> list[str]:
        return list(self._relations)

    def nblocks(self, relname: str) -> int:
        return len(self._pages(relname))

    def _pages(self, relname: str) -> list[bytes]:
        try:
            return self._relations[relname]
        except KeyError:
            raise DeviceError(f"no relation {relname!r} on {self.name}") from None

    # -- page I/O -------------------------------------------------------

    def extend(self, relname: str) -> int:
        pages = self._pages(relname)
        if self._used + PAGE_SIZE > self.capacity_bytes:
            raise DeviceFullError(f"NVRAM device {self.name} is full")
        pages.append(bytes(PAGE_SIZE))
        self._used += PAGE_SIZE
        return len(pages) - 1

    def read_pages(self, relname: str, start: int, count: int) -> list[bytes]:
        """One DMA burst for the whole run — same bytes, one charge call."""
        if count < 0:
            raise ValueError(f"negative page count {count}")
        pages = self._pages(relname)
        if not (0 <= start and start + count <= len(pages)):
            raise DeviceError(f"{relname!r} pages [{start}, {start + count}) out of range")
        self.clock.advance(count * PAGE_SIZE / self.dma_rate_bps)
        self.stats.reads += count
        return list(pages[start:start + count])

    def write_pages(self, relname: str, start: int,
                    datas: list[bytes]) -> None:
        """One DMA burst for the whole run — same bytes, one charge call."""
        count = len(datas)
        if count == 0:
            return
        for data in datas:
            self._check_page(data)
        pages = self._pages(relname)
        if not (0 <= start and start + count <= len(pages)):
            raise DeviceError(f"{relname!r} pages [{start}, {start + count}) out of range")
        self.clock.advance(count * PAGE_SIZE / self.dma_rate_bps)
        self.stats.writes += count
        for i, data in enumerate(datas):
            pages[start + i] = bytes(data)

    # -- durability ------------------------------------------------------

    def flush(self) -> None:
        """NVRAM needs no flushing."""

    def sync_write_meta(self, tag: str, data: bytes) -> None:
        self.clock.advance(len(data) / self.dma_rate_bps)
        self._meta[tag] = bytes(data)

    def read_meta(self, tag: str) -> bytes | None:
        return self._meta.get(tag)

    def meta_tags(self) -> list[str]:
        return sorted(self._meta)

    def close(self) -> None:
        """Nothing to release."""

    # NVRAM survives the simulated power failure: inherit the no-op
    # simulate_crash from the base class.

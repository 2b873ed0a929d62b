"""Metrum VHS-form-factor tape jukebox device manager.

"In the near future, a 9 TByte Metrum VHS-form factor tape jukebox will
also be supported."  The paper's migration discussion wants files moved
"from fast, expensive storage like magnetic disk to slower, cheaper
storage, such as magnetic tape", so this manager exists as the cold
tier for :mod:`repro.core.migration` and as a second exercise of the
device-manager switch.

Model: a library of cartridges, one drive, serpentine linear media.
Touching an unloaded cartridge charges a load; every access charges a
wind to the target position (cost proportional to distance) plus
streaming transfer.  Tape is rewriteable (unlike the WORM jukebox) but
brutally slow for random access — which is the point.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.db.page import PAGE_SIZE
from repro.devices.base import RelationTable
from repro.errors import DeviceFullError
from repro.obs.registry import MetricSpec
from repro.sim.clock import SimClock

METRICS = (
    MetricSpec("tape.loads", "counter", "ops",
               "Cartridge loads into the single drive.",
               "repro.devices.tape", ("device",)),
    MetricSpec("tape.reads", "counter", "pages",
               "Pages streamed off tape.",
               "repro.devices.tape", ("device",)),
    MetricSpec("tape.writes", "counter", "pages",
               "Pages streamed onto tape.",
               "repro.devices.tape", ("device",)),
    MetricSpec("tape.wind_seconds", "counter", "seconds",
               "Simulated seconds spent winding to target positions.",
               "repro.devices.tape", ("device",)),
)


@dataclass(frozen=True)
class TapeParams:
    n_cartridges: int = 600
    cartridge_capacity_bytes: int = 15_000_000_000  # ≈ 9 TB / 600
    cartridge_load_s: float = 25.0
    wind_rate_bps: float = 80_000_000.0  # high-speed search
    transfer_rate_bps: float = 1_000_000.0

    @property
    def cartridge_blocks(self) -> int:
        return self.cartridge_capacity_bytes // PAGE_SIZE


@dataclass
class TapeStats:
    loads: int = 0
    reads: int = 0
    writes: int = 0
    wind_seconds: float = 0.0


class TapeJukebox(RelationTable):
    """Sequential-media tape library.  A relation's ``where`` maps each
    written page to its (cartridge, block)."""

    nonvolatile = True

    def __init__(self, name: str, clock: SimClock,
                 params: TapeParams | None = None) -> None:
        super().__init__(name, clock)
        self.params = params or TapeParams()
        self.stats = TapeStats()
        self._cartridges: list[dict[int, bytes]] = [
            {} for _ in range(self.params.n_cartridges)]
        self._next_free: list[int] = [0] * self.params.n_cartridges
        self._loaded: int | None = None
        self._head_block = 0
        self._alloc_cartridge = 0

    # -- cost helpers -----------------------------------------------------

    def _position(self, cartridge: int, block: int) -> None:
        if self._loaded != cartridge:
            self._loaded = cartridge
            self._head_block = 0
            self.stats.loads += 1
            self.clock.advance(self.params.cartridge_load_s)
        distance_bytes = abs(block - self._head_block) * PAGE_SIZE
        wind = distance_bytes / self.params.wind_rate_bps
        self.stats.wind_seconds += wind
        self.clock.advance(wind)
        self._head_block = block

    def _transfer(self, nbytes: int) -> None:
        self.clock.advance(nbytes / self.params.transfer_rate_bps)
        self._head_block += max(1, nbytes // PAGE_SIZE)

    def _allocate(self) -> tuple[int, int]:
        p = self.params
        while self._alloc_cartridge < p.n_cartridges:
            c = self._alloc_cartridge
            if self._next_free[c] < p.cartridge_blocks:
                block = self._next_free[c]
                self._next_free[c] += 1
                return c, block
            self._alloc_cartridge += 1
        raise DeviceFullError(f"tape library {self.name} is full")

    # -- DeviceManager interface ---------------------------------------------

    def _free(self, relname: str, st) -> None:
        for cartridge, block in st.where.values():
            self._cartridges[cartridge].pop(block, None)

    def _read_one(self, relname: str, st, pageno: int) -> bytes:
        loc = st.where.get(pageno)
        if loc is None:
            return bytes(PAGE_SIZE)
        cartridge, block = loc
        self._position(cartridge, block)
        self._transfer(PAGE_SIZE)
        self.stats.reads += 1
        return self._cartridges[cartridge][block]

    def _write_one(self, relname: str, st, pageno: int, data: bytes) -> None:
        loc = st.where.get(pageno)
        if loc is None:
            loc = st.where[pageno] = self._allocate()
        cartridge, block = loc
        self._position(cartridge, block)
        self._transfer(PAGE_SIZE)
        self.stats.writes += 1
        self._cartridges[cartridge][block] = bytes(data)

    def flush(self) -> None:
        """Streaming writes land on medium immediately."""

    def close(self) -> None:
        """Nothing to release."""

"""Battery-backed RAM write cache — the PRESTOserve board.

The paper's NFS baseline uses PRESTOserve: "a board containing 1 MByte
of battery-backed RAM and driver software to cache NFS writes in
non-volatile memory".  Because the RAM is non-volatile, a write that
lands in it counts as stable storage and the synchronous-NFS-write rule
is satisfied without touching the disk.  The paper's Figure 6 shows the
consequence: "the NFS measurements show no degradation due to random
accesses, since the whole 1 MByte write fits in the PRESTOserve cache,
and is not flushed to disk."

The model is a fixed-capacity write-back cache keyed by block number.
Writes that fit cost only a DMA copy onto the board; when the board is
full, the oldest dirty blocks are destaged to the backing disk (paying
real disk costs) to make room.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

from repro.obs.registry import counter, metric_stats
from repro.sim.clock import SimClock
from repro.sim.disk import BLOCK_SIZE, DiskModel


@metric_stats("nvram")
class NvramStats:
    hits: int = counter(
        "ops", "Writes that overwrote a block already resident on the "
        "board (a subset of nvram.absorbed_writes).")
    absorbed_writes: int = counter(
        "ops", "Stable writes satisfied by battery-backed RAM without "
        "touching the disk.")
    destages: int = counter("blocks", "Dirty blocks written back to the disk.")
    overflow_destages: int = counter(
        "blocks", "Destages forced by a full board to make room for an "
        "incoming write.")


@dataclass
class NvramCache:
    """A PRESTOserve-style NVRAM write cache in front of a disk."""

    clock: SimClock
    disk: DiskModel
    capacity_bytes: int = 1_000_000
    dma_rate_bps: float = 20_000_000.0  # bus copy onto the board
    stats: NvramStats = field(default_factory=NvramStats)
    # block number -> byte count currently held for that block
    _dirty: "OrderedDict[int, int]" = field(default_factory=OrderedDict, repr=False)
    _used: int = field(default=0, repr=False)

    @property
    def capacity_blocks(self) -> int:
        return self.capacity_bytes // BLOCK_SIZE

    def used_bytes(self) -> int:
        return self._used

    def write(self, block: int, nbytes: int = BLOCK_SIZE) -> float:
        """Stable write of ``nbytes`` at ``block``.

        Returns the simulated cost.  If the board is full, the
        least-recently-written blocks are destaged to disk first.
        """
        cost = 0.0
        if block in self._dirty:
            # Overwrite in place on the board.
            self._used -= self._dirty.pop(block)
            self.stats.hits += 1
        while self._used + nbytes > self.capacity_bytes and self._dirty:
            victim_block, victim_bytes = self._dirty.popitem(last=False)
            self._used -= victim_bytes
            cost += self.disk.write_block(victim_block, victim_bytes)
            self.stats.destages += 1
            self.stats.overflow_destages += 1
        dma = nbytes / self.dma_rate_bps
        self.clock.advance(dma)
        cost += dma
        self._dirty[block] = nbytes
        self._used += nbytes
        self.stats.absorbed_writes += 1
        return cost

    def read_hit(self, block: int) -> bool:
        """True if ``block`` is still on the board (reads of freshly
        written data are served from NVRAM)."""
        return block in self._dirty

    def flush(self) -> float:
        """Destage everything to disk (background syncer / unmount)."""
        cost = 0.0
        while self._dirty:
            block, nbytes = self._dirty.popitem(last=False)
            self._used -= nbytes
            cost += self.disk.write_block(block, nbytes)
            self.stats.destages += 1
        return cost

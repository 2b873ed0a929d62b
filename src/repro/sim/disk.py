"""Disk cost model with head-position tracking.

The paper attributes Inversion's 25 MB-file-creation slowdown (Figure 3)
to B-tree index writes being *interleaved* with data-file writes,
"penalizing Inversion by forcing the disk head to move frequently",
while NFS "writes the data file sequentially".  Reproducing that shape
requires a disk model that remembers where the head is: sequential
block accesses cost only transfer time, while jumps cost a seek plus
rotational latency.

The default geometry is calibrated to the DEC RZ58 (the 1.38 GB drive
on the paper's DECsystem 5900): ~12.9 ms average seek, 5400 rpm
(5.6 ms average rotational latency), ~2.5 MB/s media transfer rate.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.obs.registry import MetricSpec
from repro.sim.clock import SimClock

BLOCK_SIZE = 8192
"""The unit of disk transfer — one POSTGRES/FFS page."""

METRICS = (
    MetricSpec("disk.reads", "counter", "ops",
               "Disk read operations (a batched contiguous run counts once).",
               "repro.sim.disk", ("device",)),
    MetricSpec("disk.writes", "counter", "ops",
               "Disk write operations (a batched contiguous run counts once).",
               "repro.sim.disk", ("device",)),
    MetricSpec("disk.seeks", "counter", "ops",
               "Operations that paid a head seek (non-sequential access).",
               "repro.sim.disk", ("device",)),
    MetricSpec("disk.sequential_ops", "counter", "ops",
               "Operations that hit the next sequential block — transfer "
               "time only, no positioning charge.",
               "repro.sim.disk", ("device",)),
    MetricSpec("disk.bytes_read", "counter", "bytes",
               "Bytes transferred from the platter.",
               "repro.sim.disk", ("device",)),
    MetricSpec("disk.bytes_written", "counter", "bytes",
               "Bytes transferred to the platter.",
               "repro.sim.disk", ("device",)),
    MetricSpec("disk.busy_seconds", "counter", "seconds",
               "Simulated seconds the drive spent positioning and "
               "transferring.",
               "repro.sim.disk", ("device",)),
    MetricSpec("disk.queued_seconds", "counter", "seconds",
               "Of disk.busy_seconds, those charged behind the clock: "
               "writes issued in a queued section, which the drive "
               "finishes while the caller goes on computing.",
               "repro.sim.disk", ("device",)),
)


@dataclass(frozen=True)
class DiskGeometry:
    """Physical parameters of a simulated drive."""

    name: str
    capacity_bytes: int
    rpm: float
    min_seek_s: float       # single-cylinder seek
    avg_seek_s: float       # manufacturer average seek
    max_seek_s: float       # full-stroke seek
    transfer_rate_bps: float  # sustained media rate, bytes/second
    blocks_per_cylinder: int = 64

    @property
    def rotation_s(self) -> float:
        """Time for one full platter rotation."""
        return 60.0 / self.rpm

    @property
    def avg_rotational_delay_s(self) -> float:
        """Average rotational latency — half a rotation."""
        return self.rotation_s / 2.0

    @property
    def total_blocks(self) -> int:
        return self.capacity_bytes // BLOCK_SIZE

    @property
    def total_cylinders(self) -> int:
        return max(1, self.total_blocks // self.blocks_per_cylinder)


RZ58 = DiskGeometry(
    name="DEC RZ58",
    capacity_bytes=1_380_000_000,
    rpm=5400.0,
    min_seek_s=0.0025,
    avg_seek_s=0.0129,
    max_seek_s=0.025,
    transfer_rate_bps=2_500_000.0,
)


@dataclass
class DiskStats:
    """Operation counters, useful for ablation benches and tests."""

    reads: int = 0
    writes: int = 0
    seeks: int = 0
    sequential_ops: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    busy_seconds: float = 0.0
    queued_seconds: float = 0.0

    def snapshot(self) -> "DiskStats":
        return DiskStats(**vars(self))


@dataclass
class DiskModel:
    """Charges simulated time for block-addressed disk I/O.

    The model tracks the last block touched.  An access to
    ``last_block + 1`` is sequential (transfer time only); an access on
    the same cylinder costs rotational latency; anything else costs a
    distance-dependent seek plus rotational latency.  The seek curve is
    the standard ``a + b*sqrt(distance)`` approximation fit through the
    (min, avg, max) points of the geometry.

    A charge made inside a *queued section* (:func:`queued`) is computed
    the same way, head position and counters included, but the drive
    does it behind the clock: its cost is added after
    ``max(busy_until, now)`` and no clock moves.  Every other charge, and
    :func:`drain`, first advances the clock to :attr:`busy_until` — the
    caller waits for the drive to finish what it was handed.
    """

    clock: SimClock
    geometry: DiskGeometry = RZ58
    stats: DiskStats = field(default_factory=DiskStats)
    #: when the drive finishes its queued writes, on ``clock``; at or
    #: before ``clock.now()`` once it is idle.
    busy_until: float = 0.0
    _head_block: int = field(default=-(10 ** 9), repr=False)
    _queued: bool = field(default=False, repr=False)

    def _seek_time(self, from_cyl: int, to_cyl: int) -> float:
        distance = abs(to_cyl - from_cyl)
        if distance == 0:
            return 0.0
        g = self.geometry
        # a + b*sqrt(d) through (1, min_seek) and (C, max_seek).
        span = math.sqrt(g.total_cylinders) - 1.0
        if span <= 0:
            return g.avg_seek_s
        b = (g.max_seek_s - g.min_seek_s) / span
        a = g.min_seek_s - b
        return a + b * math.sqrt(distance)

    def _cylinder(self, block: int) -> int:
        return block // self.geometry.blocks_per_cylinder

    def _charge(self, block: int, nbytes: int) -> float:
        """Compute and charge the cost of touching ``block`` and
        transferring ``nbytes``."""
        g = self.geometry
        transfer = nbytes / g.transfer_rate_bps
        if block == self._head_block + 1:
            cost = transfer
            self.stats.sequential_ops += 1
        else:
            from_cyl = self._cylinder(max(self._head_block, 0))
            to_cyl = self._cylinder(block)
            seek = self._seek_time(from_cyl, to_cyl)
            if seek > 0.0:
                self.stats.seeks += 1
            cost = seek + g.avg_rotational_delay_s + transfer
        nblocks = max(1, (nbytes + BLOCK_SIZE - 1) // BLOCK_SIZE)
        self._head_block = block + nblocks - 1
        return self._spend(cost)

    def _spend(self, cost: float) -> float:
        """Book ``cost`` drive seconds: behind the clock inside a queued
        section, else after waiting for the queue to empty."""
        self.stats.busy_seconds += cost
        if self._queued:
            self.busy_until = max(self.busy_until, self.clock.now()) + cost
            self.stats.queued_seconds += cost
        else:
            self._drain()
            self.clock.advance(cost)
        return cost

    def _drain(self) -> None:
        """Advance the clock to :attr:`busy_until`, when the writes
        queued behind it are on the medium."""
        if self.busy_until > self.clock.now():
            self.clock.advance(self.busy_until - self.clock.now())

    def read_block(self, block: int, nbytes: int = BLOCK_SIZE) -> float:
        """Charge for one read of ``nbytes`` starting at ``block``: a
        single positioning (seek + rotation unless the head is already
        there) followed by pure media transfer, however many blocks the
        bytes span.  A run is one read operation."""
        self.stats.reads += 1
        self.stats.bytes_read += nbytes
        return self._charge(block, nbytes)

    def write_block(self, block: int, nbytes: int = BLOCK_SIZE) -> float:
        """Charge for one write of ``nbytes`` starting at ``block`` —
        the write-side twin of ``read_block``: one positioning, one
        write operation, whatever the run length."""
        self.stats.writes += 1
        self.stats.bytes_written += nbytes
        return self._charge(block, nbytes)

    def flush(self) -> float:
        """Charge for a synchronous cache flush barrier (controller
        settle time).  Small but non-zero; commits pay it."""
        return self._spend(self.geometry.rotation_s / 4.0)

    def reset_head(self) -> None:
        """Forget head position (e.g. after the OS reuses the drive)."""
        self._head_block = -(10 ** 9)


def drain(drives: Iterable[DiskModel]) -> None:
    """Wait until every one of ``drives`` has written what was queued
    behind the clock: advance the clock to the latest ``busy_until``."""
    for drive in drives:
        drive._drain()


@contextmanager
def queued(drives: Iterable[DiskModel]) -> Iterator[None]:
    """A queued section over ``drives``: they are drained first, so at
    most one section's writes are in flight, then every charge to them
    until the section ends runs behind the clock.  For writes nobody
    waits for — they are issued where and in the order they always
    were, only the clock does not stop for them."""
    drives = list(drives)
    drain(drives)
    for drive in drives:
        drive._queued = True
    try:
        yield
    finally:
        for drive in drives:
            drive._queued = False

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
    MetricSpec("disk.reads_ahead", "counter", "ops",
               "Foreground reads the drive served ahead of queued "
               "requests (between a queued section's writes).",
               "repro.sim.disk", ("device",)),
    MetricSpec("disk.deferred_seconds", "counter", "seconds",
               "Seconds the queued requests were pushed back by the "
               "reads served ahead of them: each read's cost plus the "
               "change in the next request's positioning.",
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
    reads_ahead: int = 0
    deferred_seconds: float = 0.0

    def snapshot(self) -> "DiskStats":
        return DiskStats(**vars(self))


@dataclass
class _Request:
    """One command a queued section handed the drive: blocks ``first``
    through ``last``, where it leaves the head."""

    end: float           # when the drive finishes it, on the clock
    first: int
    last: int
    positioning: float   # seek + rotation it was costed with


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
    does it behind the clock, as one request of a queue: its cost is
    added after ``max(busy_until, now)`` and no clock moves.  A barrier
    joins the request before it (a forced write is one command).  A
    foreground read on a busy drive waits only for the request in
    flight — or, if a queued request holds a block it wants, for that
    request — and the requests behind it move back
    (:meth:`_read_ahead`), as in a kernel disk queue.  A foreground
    write or barrier, and :func:`drain`, first advances the clock to
    :attr:`busy_until` — the caller waits for the drive to finish all it
    was handed — so the order of writes on the medium never changes.
    """

    clock: SimClock
    geometry: DiskGeometry = RZ58
    stats: DiskStats = field(default_factory=DiskStats)
    #: when the drive finishes its queued requests, on ``clock``; at or
    #: before ``clock.now()`` once it is idle.
    busy_until: float = 0.0
    _head_block: int = field(default=-(10 ** 9), repr=False)
    _queued: bool = field(default=False, repr=False)
    _requests: list[_Request] = field(default_factory=list, repr=False)

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

    def _positioning(self, head: int, block: int) -> float:
        """Seek plus rotation to start at ``block`` with the head on
        ``head``: nothing when ``block`` follows it."""
        if block == head + 1:
            return 0.0
        seek = self._seek_time(self._cylinder(max(head, 0)),
                               self._cylinder(block))
        return seek + self.geometry.avg_rotational_delay_s

    def _count(self, positioning: float, n: int = 1) -> None:
        """Book an access positioned at ``positioning`` as sequential or
        seeking (``n = -1`` takes one back)."""
        if positioning == 0.0:
            self.stats.sequential_ops += n
        elif positioning > self.geometry.avg_rotational_delay_s:
            self.stats.seeks += n

    def _charge(self, block: int, nbytes: int, write: bool) -> float:
        """Compute and charge the cost of touching ``block`` and
        transferring ``nbytes``."""
        last = block + max(1, (nbytes + BLOCK_SIZE - 1) // BLOCK_SIZE) - 1
        transfer = nbytes / self.geometry.transfer_rate_bps
        if self._requests and not (write or self._queued):
            now = self.clock.now()
            queue = [r for r in self._requests if r.end > now]
            if queue:
                return self._read_ahead(queue, block, last, transfer)
        positioning = self._positioning(self._head_block, block)
        self._count(positioning)
        self._head_block = last
        cost = self._spend(positioning + transfer)
        if self._queued:
            self._requests.append(
                _Request(self.busy_until, block, last, positioning))
        return cost

    def _read_ahead(self, queue: list[_Request], block: int, last: int,
                    transfer: float) -> float:
        """A foreground read of ``block``..``last`` on a busy drive.  It
        waits for the request in flight, or for the last queued request
        holding a block it wants (read-after-write), and is costed from
        where that request left the head.  Every request behind it moves
        back by its cost plus the change in the next request's
        positioning, re-costed from the read's last block."""
        at = 0
        for i, request in enumerate(queue):
            if request.first <= last and block <= request.last:
                at = i
        ahead, behind = queue[at], queue[at + 1:]
        positioning = self._positioning(ahead.last, block)
        self._count(positioning)
        cost = positioning + transfer
        self.stats.busy_seconds += cost
        self.clock.advance(ahead.end - self.clock.now())
        self.clock.advance(cost)
        self._requests = behind
        if not behind:
            self._head_block = last
            return cost
        following = behind[0]
        repositioning = self._positioning(last, following.first)
        self._count(following.positioning, -1)
        self._count(repositioning)
        delta = repositioning - following.positioning
        following.positioning = repositioning
        self.stats.busy_seconds += delta
        self.stats.queued_seconds += delta
        shift = cost + delta
        for request in behind:
            request.end += shift
        self.busy_until = behind[-1].end
        self.stats.reads_ahead += 1
        self.stats.deferred_seconds += shift
        return cost

    def _spend(self, cost: float) -> float:
        """Book ``cost`` drive seconds: behind the clock inside a queued
        section, else after waiting for the whole queue to empty (a
        foreground read on a busy drive is :meth:`_read_ahead`'s)."""
        self.stats.busy_seconds += cost
        if self._queued:
            self.busy_until = max(self.busy_until, self.clock.now()) + cost
            self.stats.queued_seconds += cost
        else:
            self._drain()
            self.clock.advance(cost)
        return cost

    def _drain(self) -> None:
        """Advance the clock to :attr:`busy_until`, when every request
        queued behind it is done."""
        if self.busy_until > self.clock.now():
            self.clock.advance(self.busy_until - self.clock.now())
        self._requests.clear()

    def read_block(self, block: int, nbytes: int = BLOCK_SIZE) -> float:
        """Charge for one read of ``nbytes`` starting at ``block``: a
        single positioning (seek + rotation unless the head is already
        there) followed by pure media transfer, however many blocks the
        bytes span.  A run is one read operation."""
        self.stats.reads += 1
        self.stats.bytes_read += nbytes
        return self._charge(block, nbytes, write=False)

    def write_block(self, block: int, nbytes: int = BLOCK_SIZE) -> float:
        """Charge for one write of ``nbytes`` starting at ``block`` —
        the write-side twin of ``read_block``: one positioning, one
        write operation, whatever the run length."""
        self.stats.writes += 1
        self.stats.bytes_written += nbytes
        return self._charge(block, nbytes, write=True)

    def flush(self) -> float:
        """Charge for a synchronous cache flush barrier (controller
        settle time).  Small but non-zero; commits pay it.  Queued, it
        is part of the request before it: the write it forces."""
        cost = self._spend(self.geometry.rotation_s / 4.0)
        if self._queued and self._requests:
            self._requests[-1].end = self.busy_until
        return cost

    def reset_head(self) -> None:
        """Forget head position (e.g. after the OS reuses the drive)."""
        self._head_block = -(10 ** 9)


def drain(drives: Iterable[DiskModel]) -> None:
    """Wait until every one of ``drives`` has done what was queued
    behind the clock: advance the clock to the latest ``busy_until``."""
    for drive in drives:
        drive._drain()


def unfinished(drives: Iterable[DiskModel]) -> list[_Request]:
    """The last queued request of each of ``drives`` not yet done."""
    return [d._requests[-1] for d in drives
            if d._requests and d._requests[-1].end > d.clock.now()]


def settled(drives: Iterable[DiskModel], requests: list[_Request]) -> bool:
    """Are the ends of ``requests`` final: is each in flight, or done?
    A read is served ahead only of the requests behind the one in
    flight."""
    for drive in drives:
        queue = [r for r in drive._requests if r.end > drive.clock.now()]
        if any(r is q for q in queue[1:] for r in requests):
            return False
    return True


@contextmanager
def queued(drives: Iterable[DiskModel]) -> Iterator[None]:
    """A queued section over ``drives``: they are drained first, so at
    most one section's requests are in flight, then every charge to
    them until the section ends is a request the drive does behind the
    clock.  For writes nobody waits for — they are issued where and in
    the order they always were, only the clock does not stop for them,
    and a foreground read may be served between them."""
    drives = list(drives)
    drain(drives)
    for drive in drives:
        drive._queued = True
    try:
        yield
    finally:
        for drive in drives:
            drive._queued = False

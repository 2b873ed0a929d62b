"""The paper's benchmark workload over pluggable file-system adapters.

An adapter exposes create/open/read-at/write-at plus cache flushing;
:class:`Benchmark` runs the nine operations of Table 3 against it and
reports simulated elapsed seconds.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

from repro.sim.clock import SimClock

PAGE_IO = 8192


@dataclass(frozen=True)
class BenchmarkSizes:
    """Workload dimensions; ``scaled`` shrinks them for fast tests.

    ``io_size=None`` defers to the adapter: "the page size was chosen
    to be efficient for the file system under test" — 8192 bytes for
    NFS/FFS, one chunk (8064) for Inversion."""

    file_size: int = 25 * 1000 * 1000
    transfer_size: int = 1 * 1000 * 1000
    io_size: int | None = None
    random_byte_ops: int = 20

    @classmethod
    def scaled(cls, factor: float) -> "BenchmarkSizes":
        return cls(
            file_size=max(4 * PAGE_IO, int(25_000_000 * factor)),
            transfer_size=max(2 * PAGE_IO, int(1_000_000 * factor)),
            io_size=None,
            random_byte_ops=4,
        )


class FsAdapter(ABC):
    """What the benchmark needs from a file system under test."""

    clock: SimClock

    @property
    def preferred_io_size(self) -> int:
        """The 'page-sized unit' efficient for this file system."""
        return PAGE_IO

    @abstractmethod
    def create_file(self, name: str) -> object:
        """Create an empty file; returns an opaque handle."""

    @abstractmethod
    def write_at(self, handle: object, offset: int, data: bytes) -> None: ...

    @abstractmethod
    def read_at(self, handle: object, offset: int, nbytes: int) -> bytes: ...

    @abstractmethod
    def flush_caches(self) -> None:
        """'All caches were flushed before each test.'"""

    def begin(self) -> None:
        """Start a client transaction (no-op where unsupported)."""

    def commit(self) -> None:
        """Commit the client transaction (no-op where unsupported)."""


@dataclass
class Benchmark:
    """Runs the paper's operations and collects elapsed times."""

    adapter: FsAdapter
    sizes: BenchmarkSizes = field(default_factory=BenchmarkSizes)
    seed: int = 20250705
    results: dict[str, float] = field(default_factory=dict)
    _handle: object = None

    FILE_NAME = "/bench25mb"

    @property
    def io_size(self) -> int:
        return self.sizes.io_size or self.adapter.preferred_io_size

    # -- internals -----------------------------------------------------------

    def _timed(self, name: str, op) -> float:
        self.adapter.flush_caches()
        start = self.adapter.clock.now()
        op()
        elapsed = self.adapter.clock.now() - start
        self.results[name] = elapsed
        return elapsed

    def _payload(self, nbytes: int, tag: int) -> bytes:
        # Deterministic, mildly varied contents.
        unit = bytes((tag + i) % 251 for i in range(256))
        reps = nbytes // len(unit) + 1
        return (unit * reps)[:nbytes]

    def _random_offsets(self, count: int, span: int, align: int,
                        salt: str) -> list[int]:
        rng = random.Random(f"{self.seed}:{salt}")
        slots = max(1, span // align)
        return [rng.randrange(slots) * align for _ in range(count)]

    # -- the nine operations -------------------------------------------------------

    def op_create(self) -> float:
        """Create the 25 MB file with sequential page-sized writes.
        No explicit transaction: like an ordinary application copying
        data in, each library call commits by itself."""
        def run() -> None:
            self._handle = self.adapter.create_file(self.FILE_NAME)
            pos = 0
            while pos < self.sizes.file_size:
                n = min(self.io_size, self.sizes.file_size - pos)
                self.adapter.write_at(self._handle, pos, self._payload(n, pos))
                pos += n
        return self._timed("create", run)

    def _read_test(self, name: str, body) -> float:
        """Read tests run inside one client transaction, so the open
        handle persists across the loop (the paper's tests were 'read
        1 MByte', not 'reopen the file 128 times')."""
        def run() -> None:
            self.adapter.begin()
            body()
            self.adapter.commit()
        return self._timed(name, run)

    def op_read_single_byte(self) -> float:
        offsets = self._random_offsets(self.sizes.random_byte_ops,
                                       self.sizes.file_size, 1, "rbyte")

        def run() -> None:
            for off in offsets:
                self.adapter.read_at(self._handle, off, 1)
        total = self._read_test("read_byte_total", run)
        per_op = total / len(offsets)
        self.results["read_byte"] = per_op
        return per_op

    def op_write_single_byte(self) -> float:
        offsets = self._random_offsets(self.sizes.random_byte_ops,
                                       self.sizes.file_size, 1, "wbyte")
        total = self._write_test("write_byte_total",
                                 [(off, 1) for off in offsets])
        per_op = total / len(offsets)
        self.results["write_byte"] = per_op
        return per_op

    def op_read_single(self) -> float:
        """Read 1 MB in a single large transfer (and verify it really
        is the data written at creation — a benchmark that times empty
        reads measures nothing)."""
        def body() -> None:
            data = self.adapter.read_at(self._handle, 0,
                                        self.sizes.transfer_size)
            if len(data) != self.sizes.transfer_size:
                raise AssertionError(
                    f"short read: {len(data)} != {self.sizes.transfer_size}")
            expected = self._payload(self.io_size, 0)
            if data[:64] != expected[:64]:
                raise AssertionError("read returned wrong contents")
        return self._read_test("read_single", body)

    def op_read_seq_pages(self) -> float:
        def body() -> None:
            pos = 0
            while pos < self.sizes.transfer_size:
                n = min(self.io_size, self.sizes.transfer_size - pos)
                data = self.adapter.read_at(self._handle, pos, n)
                if len(data) != n:
                    raise AssertionError(f"short read at {pos}")
                pos += n
        return self._read_test("read_seq_pages", body)

    def op_read_random_pages(self) -> float:
        count = self.sizes.transfer_size // self.io_size
        offsets = self._random_offsets(count, self.sizes.file_size,
                                       self.io_size, "rpages")

        def body() -> None:
            for off in offsets:
                want = min(self.io_size, self.sizes.file_size - off)
                data = self.adapter.read_at(self._handle, off, self.io_size)
                if len(data) < want:
                    raise AssertionError(f"short read at {off}")
        return self._read_test("read_random_pages", body)

    def _write_test(self, name: str, offsets_and_sizes) -> float:
        """Write tests run under the client's transaction: "Inversion …
        can obey the transaction constraints imposed by the client
        program, and commit a large number of writes simultaneously."""
        def run() -> None:
            self.adapter.begin()
            for off, n in offsets_and_sizes:
                self.adapter.write_at(self._handle, off,
                                      self._payload(n, off ^ 0x55))
            self.adapter.commit()
        return self._timed(name, run)

    def op_write_single(self) -> float:
        return self._write_test("write_single",
                                [(0, self.sizes.transfer_size)])

    def op_write_seq_pages(self) -> float:
        pieces = []
        pos = 0
        while pos < self.sizes.transfer_size:
            n = min(self.io_size, self.sizes.transfer_size - pos)
            pieces.append((pos, n))
            pos += n
        return self._write_test("write_seq_pages", pieces)

    def op_write_random_pages(self) -> float:
        count = self.sizes.transfer_size // self.io_size
        offsets = self._random_offsets(count, self.sizes.file_size,
                                       self.io_size, "wpages")
        return self._write_test("write_random_pages",
                                [(off, self.io_size) for off in offsets])

    # -- drivers --------------------------------------------------------------------------

    ALL_OPS = ("create", "read_byte", "write_byte", "read_single",
               "read_seq_pages", "read_random_pages", "write_single",
               "write_seq_pages", "write_random_pages")

    def run_all(self) -> dict[str, float]:
        self.op_create()
        self.op_read_single_byte()
        self.op_write_single_byte()
        self.op_read_single()
        self.op_read_seq_pages()
        self.op_read_random_pages()
        self.op_write_single()
        self.op_write_seq_pages()
        self.op_write_random_pages()
        return {op: self.results[op] for op in self.ALL_OPS}


# ---------------------------------------------------------------------------
# adapters
# ---------------------------------------------------------------------------


class InversionAdapter(FsAdapter):
    """Benchmark adapter over a p_* client (local or remote)."""

    @property
    def preferred_io_size(self) -> int:
        from repro.core.constants import CHUNK_SIZE
        return CHUNK_SIZE

    def __init__(self, client, db) -> None:
        self.client = client
        self.db = db
        self.clock = db.clock
        # Track each descriptor's position so sequential access skips
        # redundant p_lseek round trips, as a real client library would.
        self._pos: dict[object, int] = {}

    def create_file(self, name: str):
        fd = self.client.p_creat(name)
        self._pos[fd] = 0
        return fd

    def _seek_to(self, handle, offset: int) -> None:
        if self._pos.get(handle) != offset:
            self.client.p_lseek(handle, offset >> 32, offset & 0xFFFFFFFF, 0)
            self._pos[handle] = offset

    def write_at(self, handle, offset: int, data: bytes) -> None:
        self._seek_to(handle, offset)
        self.client.p_write(handle, data)
        self._pos[handle] = offset + len(data)

    def read_at(self, handle, offset: int, nbytes: int) -> bytes:
        self._seek_to(handle, offset)
        data = self.client.p_read(handle, nbytes)
        self._pos[handle] = offset + len(data)
        return data

    def begin(self) -> None:
        self.client.p_begin()

    def commit(self) -> None:
        self.client.p_commit()

    def flush_caches(self) -> None:
        self.db.flush_caches()


class NfsAdapter(FsAdapter):
    """Benchmark adapter over the NFS client."""

    def __init__(self, client, ffs, prestoserve=None) -> None:
        self.client = client
        self.ffs = ffs
        self.prestoserve = prestoserve
        self.clock = ffs.clock

    def create_file(self, name: str):
        return self.client.create(name)

    def write_at(self, handle, offset: int, data: bytes) -> None:
        self.client.write(handle, offset, data)

    def read_at(self, handle, offset: int, nbytes: int) -> bytes:
        return self.client.read(handle, offset, nbytes)

    def flush_caches(self) -> None:
        # The client cache is not modelled; flush the server's FFS
        # cache.  The PRESTOserve board is *not* flushed mid-benchmark —
        # the paper's point is that "the whole 1 MByte write fits in the
        # PRESTOserve cache, and is not flushed to disk".
        self.ffs.drop_caches()

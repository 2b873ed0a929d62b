"""``bulk_io`` — the paper's Table 3 sequence, full size, client/server.

Why: the data path does nearly all the work here — ``core.chunks``,
``db.buffer``, the ``db.btree`` chunk index, ``devices.magnetic``,
``sim.disk`` and ``sim.network`` — while naming, locks and the
scheduler do almost none.  The 25 MB file is ten times the 300-page
buffer cache, so this is the larger-than-cache workload, and it reports
reads and writes of the same layers side by side.

Stack: ``RemoteInversionClient`` → ``InversionServer`` over
``ETHERNET_10MBIT`` and the RZ58 drive at paper defaults (no batching,
no client cache, read-ahead window 0), caches flushed before each test.
The file is created once (set-up), then each pass runs the paper's
eight remaining tests at offsets drawn from the seed.  Pass 0 at seed 0
uses ``repro.bench.workload.Benchmark``'s own offsets and must
reproduce its ``inversion_cs`` rows.
"""

from __future__ import annotations

import hashlib
import os
import random

from .common import ModelFS, Recorder, Stack, reopen_databases, sha_payload

from repro.bench.report import PAPER_TABLE3
from repro.bench.workload import Benchmark, BenchmarkSizes, InversionAdapter
from repro.core.client import RemoteInversionClient
from repro.core.filesystem import InversionFS
from repro.core.server import InversionServer
from repro.db.database import Database
from repro.sim.clock import SimClock
from repro.sim.network import ETHERNET_10MBIT, NetworkModel

NAME = "bulk_io"
WHY = ("paper Table 3 over the network on a file 10x the buffer cache: "
       "chunks, buffer, btree index, disk and network do the work; "
       "naming, locks and scheduler almost none")

FILE_NAME = Benchmark.FILE_NAME
PASSES = 8
_BASE_SEED = Benchmark.seed  # pass 0 of seed 0 repeats Benchmark exactly


class _Payloads:
    """SHA-256-derived write payloads: a per-write 32-byte digest header
    (so a stale or misdirected chunk cannot pass for the right one) in
    front of a fixed SHA-256 counter-mode block."""

    def __init__(self, seed: int, largest: int) -> None:
        self.seed = seed
        self.base = sha_payload(seed, "bulk-base", largest)

    def make(self, tag: str, nbytes: int) -> bytes:
        head = hashlib.sha256(f"{self.seed}:{tag}".encode()).digest()
        return (head + self.base[32:nbytes])[:nbytes]


def build(workdir: str, seed: int, smoke: bool, pace) -> Stack:
    sizes = BenchmarkSizes.scaled(0.02) if smoke else BenchmarkSizes()
    clock = SimClock()
    path = os.path.join(workdir, "db")
    db = Database.create(path, clock=clock)
    fs = InversionFS.mkfs(db)
    server = InversionServer(fs)
    network = NetworkModel(clock=clock, params=ETHERNET_10MBIT)
    client = RemoteInversionClient(server, network)
    adapter = InversionAdapter(client, db)
    io = adapter.preferred_io_size
    pay = _Payloads(seed, max(sizes.transfer_size, io))

    # Table 3's first row: create the file with sequential page-sized
    # auto-commit writes.  Done once, outside the measured window.
    content = bytearray()
    adapter.flush_caches()
    t0 = clock.now()
    handle = adapter.create_file(FILE_NAME)
    pos = 0
    while pos < sizes.file_size:
        n = min(io, sizes.file_size - pos)
        data = pay.make(f"create:{pos}", n)
        adapter.write_at(handle, pos, data)
        content += data
        pos += n
        pace.tick()
    create_s = clock.now() - t0

    def close() -> None:
        client.close()
        db.close()

    return Stack(dbs=[db], close=close, model=ModelFS(), fs_groups=[[fs]],
                 reopen=reopen_databases([[path]]),
                 parts={"adapter": adapter, "handle": handle, "sizes": sizes,
                        "io": io, "pay": pay, "content": content,
                        "seed": seed, "passes": 2 if smoke else PASSES,
                        "table3": {"create": create_s}})


def _offsets(seed: int, pass_no: int, count: int, span: int, align: int,
             salt: str) -> list[int]:
    """``Benchmark._random_offsets`` with a per-(seed, pass) stream."""
    rng = random.Random(f"{_BASE_SEED + 1000 * seed + pass_no}:{salt}")
    slots = max(1, span // align)
    return [rng.randrange(slots) * align for _ in range(count)]


def run(stack: Stack, rec: Recorder) -> None:
    p = stack.parts
    adapter, handle, sizes, io = p["adapter"], p["handle"], p["sizes"], p["io"]
    pay, content, seed = p["pay"], p["content"], p["seed"]
    clock = adapter.clock
    fsize, tsize = sizes.file_size, sizes.transfer_size

    def read(off: int, n: int) -> None:
        data = rec.op("read", clock, adapter.read_at, handle, off, n)
        rec.check(data == bytes(content[off:off + n]),
                  f"read {n}@{off} returned wrong bytes")

    def write(off: int, n: int, tag: str) -> None:
        data = pay.make(tag, n)
        rec.op("write", clock, adapter.write_at, handle, off, data)
        content[off:off + n] = data
        rec.user_bytes_written += n

    def test(name: str, body, pass_no: int) -> None:
        """One Table 3 test: flush every cache, then the body inside one
        client transaction, timed the way ``Benchmark._timed`` does."""
        adapter.flush_caches()
        start = clock.now()
        rec.op("commit", clock, adapter.begin)
        body()
        rec.op("commit", clock, adapter.commit)
        if pass_no == 0:
            p["table3"][name] = clock.now() - start

    seq = [(pos, min(io, tsize - pos)) for pos in range(0, tsize, io)]
    npages = tsize // io
    rec.mark(0)
    for k in range(p["passes"]):
        tag = f"p{k}"
        rbyte = _offsets(seed, k, sizes.random_byte_ops, fsize, 1, "rbyte")
        wbyte = _offsets(seed, k, sizes.random_byte_ops, fsize, 1, "wbyte")
        rpages = _offsets(seed, k, npages, fsize, io, "rpages")
        wpages = _offsets(seed, k, npages, fsize, io, "wpages")
        test("read_byte", lambda: [read(o, 1) for o in rbyte], k)
        test("write_byte",
             lambda: [write(o, 1, f"{tag}:wb:{i}")
                      for i, o in enumerate(wbyte)], k)
        test("read_single", lambda: read(0, tsize), k)
        test("read_seq_pages", lambda: [read(o, n) for o, n in seq], k)
        test("read_random_pages",
             lambda: [read(o, min(io, fsize - o)) for o in rpages], k)
        test("write_single", lambda: write(0, tsize, f"{tag}:ws"), k)
        test("write_seq_pages",
             lambda: [write(o, n, f"{tag}:wq:{o}") for o, n in seq], k)
        test("write_random_pages",
             lambda: [write(o, min(io, fsize - o), f"{tag}:wr:{i}")
                      for i, o in enumerate(wpages)], k)
        rec.mark(k + 1)


def finish(stack: Stack, rec: Recorder) -> None:
    p = stack.parts
    stack.model.entries[FILE_NAME] = bytes(p["content"])
    # ours / paper over the nine Table 3 rows (byte tests are per op).
    rows = dict(p["table3"])
    for op in ("read_byte", "write_byte"):
        rows[op] /= p["sizes"].random_byte_ops
    product = 1.0
    for op, paper in PAPER_TABLE3["inversion_cs"].items():
        product *= rows[op] / paper
    rec.extra["bench.table3_geomean_ratio"] = product ** (1 / len(rows))
    rec.extra["table3"] = rows

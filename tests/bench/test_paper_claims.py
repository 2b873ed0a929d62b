"""The paper's claims that need a configuration Table 3 does not run.

Table 3 and Figures 3–6 are judged at full size by
``repro.bench.report.table3_verdict`` (``python -m repro.bench check``,
``tests/bench/test_artifacts.py``).  What is left flips exactly one
mechanism, or measures an access path the table has no column for, and
checks that the effect the paper attributes to it appears in the model:
the design-choice ablations, the [STON93] local comparison, the NFS
bridge, and recovery against an fsck-style scan.  All numbers are
simulated seconds, so every threshold repeats exactly.
"""

import os
import random

from repro.bench.harness import build_inversion_sp, build_nfs
from repro.bench.workload import Benchmark, BenchmarkSizes
from repro.core.chunks import ChunkStore
from repro.core.compression import CompressionService
from repro.core.constants import CHUNK_SIZE
from repro.core.filesystem import InversionFS
from repro.core.library import InversionClient
from repro.core.nfs_bridge import InversionNFSBridge
from repro.db.database import Database
from repro.db.page import PAGE_SIZE
from repro.devices.jukebox import JukeboxParams, SonyJukebox
from repro.nfs.client import NFSClient, UDP_RPC_10MBIT
from repro.nfs.ffs import FastFileSystem
from repro.sim.clock import SimClock
from repro.sim.disk import DiskModel
from repro.sim.network import NetworkModel

SMALL = BenchmarkSizes.scaled(0.05)


def _run(built, ops=(), sizes=SMALL):
    """Create the benchmark file on ``built``, run ``ops``, tear down."""
    try:
        bench = Benchmark(built.adapter, sizes)
        bench.op_create()
        for op in ops:
            getattr(bench, f"op_{op}")()
        return bench.results
    finally:
        built.close()


# -- ablations: one mechanism flipped ---------------------------------------

def test_ablation_btree_index_cost_on_creation():
    """"For every page written to the file, Inversion must create a
    Btree index entry … penalizing Inversion."  Without the chunk
    index, creation gets faster — and seeks get slower."""
    with_idx = _run(build_inversion_sp(chunk_index=True))["create"]
    without_idx = _run(build_inversion_sp(chunk_index=False))["create"]
    assert without_idx < with_idx


def test_ablation_prestoserve():
    """NFS write throughput with and without the NVRAM board — the
    paper: "Inversion should have much better performance than NFS
    without non-volatile RAM"."""
    with_board = _run(build_nfs(prestoserve=True), ("write_seq_pages",))
    without = _run(build_nfs(prestoserve=False), ("write_seq_pages",))
    assert with_board["write_seq_pages"] * 1.5 < without["write_seq_pages"]
    # And Inversion really does beat board-less NFS where the forced
    # writes seek — random page writes (each NFS write is its own
    # synchronous "transaction" with an inode force; Inversion batches
    # one commit).  The effect needs enough file span for the seeks to
    # bite, so this comparison runs at a larger scale.
    wide = BenchmarkSizes.scaled(0.3)
    inv = _run(build_inversion_sp(), ("write_random_pages",), sizes=wide)
    nfs_bare = _run(build_nfs(prestoserve=False),
                    ("write_random_pages",), sizes=wide)
    assert inv["write_random_pages"] < nfs_bare["write_random_pages"]


def test_ablation_buffer_cache_size():
    """64 buffers "as shipped" vs 300 "in use locally": re-reading a
    working set that fits only in the large cache."""
    # Working set sized between the two cache configurations:
    # ~149 chunk pages — too big for 64 buffers, fits in 300.
    reread_sizes = BenchmarkSizes(file_size=2_000_000,
                                  transfer_size=1_200_000)

    def reread_time(buffer_pages):
        built = build_inversion_sp(buffer_pages=buffer_pages)
        try:
            bench = Benchmark(built.adapter, reread_sizes)
            bench.op_create()
            # First read warms the cache, second measures retention.
            adapter = built.adapter
            handle = bench._handle
            adapter.begin()
            adapter.read_at(handle, 0, reread_sizes.transfer_size)
            start = adapter.clock.now()
            adapter.read_at(handle, 0, reread_sizes.transfer_size)
            elapsed = adapter.clock.now() - start
            adapter.commit()
            return elapsed
        finally:
            built.close()

    assert reread_time(300) < reread_time(64)


def test_ablation_write_coalescing():
    """"Multiple small sequential writes during a single transaction
    are coalesced to maximize the size of the chunk stored in each
    database record": small writes in one transaction produce one
    version per chunk, not one per write."""
    built = build_inversion_sp()
    try:
        client, clock = built.adapter.client, built.adapter.clock
        fs = client.fs
        fd = client.p_creat("/coalesce")
        client.p_begin()
        start = clock.now()
        for _ in range(CHUNK_SIZE // 64):
            client.p_write(fd, b"y" * 64)
        client.p_commit()
        coalesced_time = clock.now() - start
        coalesced_versions = ChunkStore(
            fs.db, fs.resolve("/coalesce"), None).version_count()

        fd2 = client.p_creat("/uncoalesced")
        start = clock.now()
        for _ in range(CHUNK_SIZE // 64):
            client.p_write(fd2, b"y" * 64)  # auto-commit each
        uncoalesced_time = clock.now() - start
        uncoalesced_versions = ChunkStore(
            fs.db, fs.resolve("/uncoalesced"), None).version_count()
    finally:
        built.close()
    assert coalesced_versions <= 2
    assert uncoalesced_versions >= 100
    assert coalesced_time < uncoalesced_time


def test_ablation_jukebox_staging_cache():
    """The Sony device manager "caches recently-used blocks on magnetic
    disk" because platter loads cost many seconds: repeated reads of a
    jukebox-resident file must not reload the platter."""
    def run_with(staging_bytes):
        clock = SimClock()
        juke = SonyJukebox("j", clock,
                           JukeboxParams(staging_cache_bytes=staging_bytes))
        juke.create_relation("r")
        for i in range(16):
            p = juke.extend("r")
            juke.write_page("r", p, bytes([i]) * PAGE_SIZE)
        juke.flush()
        juke._loaded.clear()
        start = clock.now()
        for _round in range(4):
            for p in range(16):
                juke.read_page("r", p)
        return clock.now() - start

    assert run_with(10_000_000) * 2 < run_with(2 * PAGE_SIZE)


def test_ablation_compression_tradeoff(tmp_path):
    """Compression: large storage savings, modest random-read cost."""
    clock = SimClock()
    db = Database.create(str(tmp_path / "db"), clock=clock)
    fs = InversionFS.mkfs(db)
    svc = CompressionService(fs)
    data = b"".join(b"record %08d with padding\n" % i for i in range(8000))
    tx = fs.begin()
    svc.create_compressed(tx, "/z", data)
    fs.write_file(tx, "/raw", data)
    fs.commit(tx)
    stored_z = fs.stat("/z").size
    stored_raw = fs.stat("/raw").size
    db.flush_caches()
    start = clock.now()
    svc.read("/z", len(data) // 2, 100)
    z_latency = clock.now() - start
    db.flush_caches()
    start = clock.now()
    with fs.open("/raw") as f:
        f.seek(len(data) // 2)
        f.read(100)
    raw_latency = clock.now() - start
    db.close()
    assert stored_z < stored_raw // 2      # good storage utilization
    assert z_latency < raw_latency * 5     # "reasonable random access times"


# -- the [STON93] local comparison -----------------------------------------

def test_local_comparison_shapes():
    """"[STON93] presents the results of such a benchmark … Those
    results show that Inversion gets better than 90% of the throughput
    of the native file system on large sequential transfers, and
    roughly 70% of the throughput on small, uniformly random
    transfers."  The native file system here is the local FFS simulator
    driven directly (no NFS protocol, no network) against
    single-process Inversion on the same drive model."""
    sizes = BenchmarkSizes.scaled(0.4)
    inv = _run(build_inversion_sp(), ("read_single", "read_random_pages"),
               sizes=sizes)

    clock = SimClock()
    ffs = FastFileSystem(clock, DiskModel(clock=clock))
    inode = ffs.create("/f")
    for pos in range(0, sizes.file_size, 8192):
        ffs.write(inode, pos, bytes(8192), sync=False)
    ffs.flush()
    ffs.drop_caches()
    start = clock.now()
    ffs.read(inode, 0, sizes.transfer_size)
    ffs_seq = clock.now() - start
    rng = random.Random(99)
    offsets = [rng.randrange(sizes.file_size // 8192) * 8192
               for _ in range(sizes.transfer_size // 8192)]
    ffs.drop_caches()
    start = clock.now()
    for off in offsets:
        ffs.read(inode, off, 8192)
    ffs_random = clock.now() - start

    # Paper: >90% sequential, ~70% random (full-size hardware, warm
    # metadata).  Shape at this scale: Inversion within a small factor
    # of native on both patterns, closer on sequential than the
    # network configurations ever get.
    assert ffs_seq / inv["read_single"] > 0.45
    assert ffs_random / inv["read_random_pages"] > 0.3


# -- three access paths to the same Inversion data --------------------------

NBYTES = 400_000
IO = 8064


def _bridge_times(workdir):
    clock = SimClock()
    db = Database.create(os.path.join(workdir, "db"), clock=clock)
    fs = InversionFS.mkfs(db)
    client = NFSClient(InversionNFSBridge(fs),
                       NetworkModel(clock=clock, params=UDP_RPC_10MBIT))
    fh = client.create("/f")
    start = clock.now()
    for pos in range(0, NBYTES, IO):
        client.write(fh, pos, b"b" * min(IO, NBYTES - pos))
    write_time = clock.now() - start
    db.flush_caches()
    start = clock.now()
    for pos in range(0, NBYTES, IO):
        client.read(fh, pos, min(IO, NBYTES - pos))
    read_time = clock.now() - start
    db.close()
    return write_time, read_time


def _native_times():
    built = build_inversion_sp()
    try:
        client, clock = built.adapter.client, built.adapter.clock
        fd = client.p_creat("/f")
        client.p_begin()
        start = clock.now()
        for pos in range(0, NBYTES, IO):
            client.p_write(fd, b"b" * min(IO, NBYTES - pos))
        client.p_commit()
        write_time = clock.now() - start
        built.adapter.db.flush_caches()
        client.p_begin()
        client.p_lseek(fd, 0, 0, 0)
        start = clock.now()
        for pos in range(0, NBYTES, IO):
            client.p_read(fd, min(IO, NBYTES - pos))
        client.p_commit()
        return write_time, clock.now() - start
    finally:
        built.close()


def test_nfs_bridge_vs_native_library(tmp_path):
    """The paper predicts the trade-off of its planned NFS interface:
    clients get protocol compatibility but "no multi-operation
    transaction protection", i.e. every write is its own forced
    transaction — the exact cost profile that makes `create` slow."""
    nat_w, nat_r = _native_times()
    br_w, br_r = _bridge_times(str(tmp_path))
    # Without client-controlled transactions each NFS write commits
    # alone, so bridge writes are much slower than one batched
    # transaction.
    assert br_w > nat_w * 2
    # Reads carry only the RPC overhead — the gap must be far smaller.
    assert br_r < br_w
    assert br_r / nat_r < br_w / nat_w


# -- recovery: the status-file read vs an fsck-style scan -------------------

def _crashed_volume(workdir: str, nbytes: int) -> str:
    path = os.path.join(workdir, f"db{nbytes}")
    db = Database.create(path)
    client = InversionClient(InversionFS.mkfs(db))
    client.p_mkdir("/data")
    per_file = 200_000
    for index, written in enumerate(range(0, nbytes, per_file)):
        fd = client.p_creat(f"/data/f{index}")
        client.p_begin()
        client.p_write(fd, b"r" * min(per_file, nbytes - written))
        client.p_commit()
        client.p_close(fd)
    db.simulate_crash()
    return path


def _recovery_cost(path: str) -> tuple[float, float]:
    """(reopen cost, fsck-style full-scan cost)."""
    clock = SimClock()
    db = Database.open(path, clock=clock)
    # Opening resumes simulated time past recorded history; the genuine
    # recovery I/O is what the clock moved beyond that resume point.
    recovery = clock.now() - db.tm.max_recorded_time()
    # What fsck would do: read every allocated page of every relation.
    scan_start = clock.now()
    for dev in db.switch:
        for relname in dev.list_relations():
            for pageno in range(dev.nblocks(relname)):
                dev.read_page(relname, pageno)
    scan = clock.now() - scan_start
    db.close()
    return recovery, scan


def test_recovery_is_instantaneous_and_scale_free(tmp_path):
    """"No file system consistency checker needs to run on the
    Inversion file system after a crash since recovery is managed by
    the POSTGRES storage manager.  File system recovery is essentially
    instantaneous."  Reopening *is* recovery; a checker in the fsck
    tradition would read every allocated page, and the gap must be
    enormous and grow with the data."""
    rec_s, scan_s = _recovery_cost(_crashed_volume(str(tmp_path), 400_000))
    rec_l, scan_l = _recovery_cost(_crashed_volume(str(tmp_path), 2_000_000))
    # Recovery is orders of magnitude below the scan...
    assert rec_s * 20 < scan_s
    assert rec_l * 50 < scan_l
    # ...and does not grow with the data (the scan does).
    assert scan_l > scan_s * 2
    assert rec_l < rec_s * 3 + 0.05

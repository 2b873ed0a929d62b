"""The sequential-I/O fast-path experiment (BENCH_seqio.json).

Measures the Figure 5 sequential-read configuration — a 1 MB file read
in 8 KB chunks over the client/server protocol — before and after the
multi-chunk read RPC, plus the single-process read with full counter
instrumentation (B-tree descents, device read operations, buffer
prefetching).  The numbers are deterministic: they come from the
simulated clock and operation counters, never from wall time, so
:func:`verdict` asserts on them exactly.

Regenerate with ``python -m repro.bench run seqio``.
"""

from __future__ import annotations

import math

from repro.bench.harness import build_inversion_cs, build_inversion_sp
from repro.core.client import RPC_BATCH_CHUNKS
from repro.core.constants import CHUNK_SIZE
from repro.db.btree import BTree

#: the Figure 5 shape at CI scale: 1 MB of chunks, read sequentially.
SEQIO_CHUNKS = 128
SEQIO_FILE_SIZE = SEQIO_CHUNKS * CHUNK_SIZE

FILE_NAME = "/seqio1mb"


def _payload(nbytes: int, offset: int) -> bytes:
    unit = b"0123456789abcdef"
    reps = nbytes // len(unit) + 2
    return (unit * reps)[offset % len(unit):][:nbytes]


def _populate(adapter) -> object:
    """Create the test file with sequential chunk-sized writes; returns
    the open handle."""
    handle = adapter.create_file(FILE_NAME)
    pos = 0
    while pos < SEQIO_FILE_SIZE:
        n = min(CHUNK_SIZE, SEQIO_FILE_SIZE - pos)
        adapter.write_at(handle, pos, _payload(n, pos))
        pos += n
    return handle


def _sequential_read(adapter, handle) -> None:
    """Read the whole file back in chunk-sized requests, verifying the
    bytes (a benchmark that times empty reads measures nothing)."""
    adapter.begin()
    pos = 0
    while pos < SEQIO_FILE_SIZE:
        n = min(CHUNK_SIZE, SEQIO_FILE_SIZE - pos)
        data = adapter.read_at(handle, pos, n)
        if len(data) != n:
            raise AssertionError(f"short read at {pos}: {len(data)} != {n}")
        if data != _payload(n, pos):
            raise AssertionError(f"wrong bytes at {pos}")
        pos += n
    adapter.commit()


def _disk_stats(db):
    # The harness builds a single-device database rooted at magnetic0.
    return db.switch.get("magnetic0").disk.stats


def run_cs(read_batch_chunks: int) -> dict:
    """One client/server run; returns elapsed time and wire counters for
    the timed sequential read only (cold caches)."""
    built = build_inversion_cs(read_batch_chunks=read_batch_chunks)
    try:
        adapter = built.adapter
        handle = _populate(adapter)
        adapter.flush_caches()
        client = adapter.client
        net0 = client.network.stats.messages
        rt0 = client.network.stats.round_trips
        t0 = adapter.clock.now()
        _sequential_read(adapter, handle)
        return {
            "read_batch_chunks": read_batch_chunks,
            "elapsed_s": adapter.clock.now() - t0,
            "net_messages": client.network.stats.messages - net0,
            "net_round_trips": client.network.stats.round_trips - rt0,
            "batched_reads": client.batched_reads,
            "buffered_reads": client.buffered_reads,
        }
    finally:
        built.close()


def _chunk_index_descents() -> int:
    return sum(n for rel, n in BTree.descents_by_rel.items()
               if rel.endswith("_chunkno_idx"))


def _counted(adapter, fn) -> dict:
    """Run ``fn()`` cold-cache and return the counter deltas."""
    adapter.flush_caches()
    db = adapter.db
    disk = _disk_stats(db)
    buf = db.buffers.stats
    d0 = BTree.total_descents
    c0 = _chunk_index_descents()
    r0 = disk.reads
    p0, ph0 = buf.prefetches, buf.prefetch_hits
    t0 = adapter.clock.now()
    fn()
    return {
        "elapsed_s": adapter.clock.now() - t0,
        "btree_descents": BTree.total_descents - d0,
        "chunk_index_descents": _chunk_index_descents() - c0,
        "device_reads": disk.reads - r0,
        "prefetches": buf.prefetches - p0,
        "prefetch_hits": buf.prefetch_hits - ph0,
        "readahead_window": db.buffers.readahead_window,
    }


def _single_transfer_read(adapter, handle) -> None:
    """The whole file in one call: the range APIs resolve the chunk map
    with a single index descent and batched heap reads."""
    adapter.begin()
    data = adapter.read_at(handle, 0, SEQIO_FILE_SIZE)
    if data != _payload(SEQIO_FILE_SIZE, 0):
        raise AssertionError("wrong bytes in single-transfer read")
    adapter.commit()


def run_sp() -> dict:
    """Single-process run with B-tree/disk/buffer counters around two
    cold-cache sequential reads: chunk-at-a-time (the Figure 5 request
    pattern, where the buffer cache's read-ahead does the batching) and
    a single 1 MB transfer (where one range resolution does)."""
    built = build_inversion_sp()
    try:
        adapter = built.adapter
        handle = _populate(adapter)
        result = _counted(adapter, lambda: _sequential_read(adapter, handle))
        result["single_transfer"] = _counted(
            adapter, lambda: _single_transfer_read(adapter, handle))
        return result
    finally:
        built.close()


def run_seqio() -> dict:
    """The full experiment: Figure 5 sequential read, client/server
    before/after RPC batching, plus the instrumented in-process read."""
    before = run_cs(read_batch_chunks=1)
    after = run_cs(read_batch_chunks=RPC_BATCH_CHUNKS)
    sp = run_sp()
    return {
        "experiment": "sequential 1 MB read, 8 KB chunks, cold caches",
        "chunks": SEQIO_CHUNKS,
        "file_size": SEQIO_FILE_SIZE,
        "cs_before": before,
        "cs_after": after,
        "sp": sp,
        "speedup": before["elapsed_s"] / after["elapsed_s"],
    }



def verdict(doc: dict) -> list[str]:
    """The claims a ``BENCH_seqio`` document must support, each named
    for what regressed if it fails: extra index descents in the
    range-read path, extra device read operations, extra wire
    messages."""
    sp, single = doc["sp"], doc["sp"]["single_transfer"]
    before, after = doc["cs_before"], doc["cs_after"]
    claims = {
        # two would mean an archive index was consulted; per-chunk
        # probing would be 128.
        "a single 1 MB transfer resolves its chunk map in one index "
        "descent": single["chunk_index_descents"] <= 2,
        "its heap reads arrive in read-ahead-window batches":
            single["device_reads"]
            <= math.ceil(SEQIO_CHUNKS / single["readahead_window"]),
        "chunk-at-a-time reads batch their device I/O by read-ahead":
            sp["device_reads"] <= SEQIO_CHUNKS // 2
            and sp["prefetches"] >= SEQIO_CHUNKS // 2,
        "every prefetched page is used":
            sp["prefetch_hits"] == sp["prefetches"],
        "chunk-at-a-time reads pay one descent per 8 KB call":
            sp["chunk_index_descents"] == SEQIO_CHUNKS,
        "the batched read RPC is at least twice as fast":
            doc["speedup"] >= 2.0
            and after["elapsed_s"] < before["elapsed_s"],
        "batching shrinks the message count by about the batch size":
            after["net_messages"] * 4 < before["net_messages"],
        "one read RPC per batch, the rest served from its buffer":
            after["batched_reads"]
            == math.ceil(SEQIO_CHUNKS / RPC_BATCH_CHUNKS)
            and after["buffered_reads"]
            >= SEQIO_CHUNKS - 2 * after["batched_reads"],
    }
    return [claim for claim, holds in claims.items() if not holds]

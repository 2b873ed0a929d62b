"""The commit/write-path fast-path experiment (BENCH_commitio.json).

The write-path twin of :mod:`repro.bench.seqio`: measures (1) group
commit — many small writing transactions with the per-commit status
force amortized across a batch — against the paper's one-force-per-
commit behaviour, (2) coalesced write-back — the 1 MB sequential write
with adjacent dirty pages batched into multi-page device writes — as
an absolute count of device writes, and (3) the client/server
multi-chunk write RPC against the paper's one-RPC-per-``p_write``
protocol.

All numbers come from the simulated clock and operation counters, so
:func:`verdict` asserts on them exactly.

Regenerate with ``python -m repro.bench run commitio``.
"""

from __future__ import annotations

import math

from repro.bench.harness import build_inversion_cs, build_inversion_sp
from repro.core.client import RPC_BATCH_CHUNKS
from repro.core.constants import CHUNK_SIZE
from repro.db.tuples import Column, Schema

#: transactions in the group-commit batch experiment.
GROUP_TXNS = 16

#: an effectively unbounded window: the batch is forced only by the
#: explicit flush that ends the measurement (one append for the lot).
GROUP_WINDOW = 1.0e9

#: the 1 MB sequential-write shape (Figure 6 / Table 3 write columns).
WRITE_CHUNKS = 128
WRITE_FILE_SIZE = WRITE_CHUNKS * CHUNK_SIZE

FILE_NAME = "/commitio"


def _payload(nbytes: int, offset: int) -> bytes:
    unit = b"fedcba9876543210"
    reps = nbytes // len(unit) + 2
    return (unit * reps)[offset % len(unit):][:nbytes]


def _disk_stats(db):
    return db.switch.get("magnetic0").disk.stats


#: the small-transaction shape: one short row inserted per commit, the
#: TP-style workload where the forced status append dominates.
GROUP_SCHEMA = Schema([Column("seq", "int4"), Column("note", "bytea")])


def run_group(window: float) -> dict:
    """GROUP_TXNS small writing transactions, each inserting one short
    row into an unindexed table; the run ends with an explicit flush so
    queued records are durable and both configurations are measured to
    the same durability point."""
    built = build_inversion_sp(group_commit_window=window)
    try:
        adapter = built.adapter
        db = adapter.db
        tx = db.begin()
        table = db.create_table(tx, "bench_commit", GROUP_SCHEMA)
        db.commit(tx)
        adapter.flush_caches()
        disk = _disk_stats(db)
        forces0 = db.tm.stats.status_forces
        hwm0 = db.tm.stats.hwm_forces
        commits0 = db.tm.stats.commits_recorded
        writes0 = disk.writes
        t0 = adapter.clock.now()
        for i in range(GROUP_TXNS):
            tx = db.begin()
            table.insert(tx, (i, _payload(64, i)))
            db.commit(tx)
        db.tm.flush_commits()
        elapsed = adapter.clock.now() - t0
        stats = db.tm.stats
        return {
            "group_commit_window": window,
            "transactions": GROUP_TXNS,
            "elapsed_s": elapsed,
            "commits_per_sec": GROUP_TXNS / elapsed,
            "status_forces": stats.status_forces - forces0,
            "hwm_forces": stats.hwm_forces - hwm0,
            "commits_recorded": stats.commits_recorded - commits0,
            "commits_per_force": ((stats.commits_recorded - commits0)
                                  / (stats.status_forces - forces0)),
            "group_batches": stats.group_batches,
            "max_group": stats.max_group,
            "device_writes": disk.writes - writes0,
        }
    finally:
        built.close()


def _sequential_write(adapter, handle) -> None:
    adapter.begin()
    pos = 0
    while pos < WRITE_FILE_SIZE:
        n = min(CHUNK_SIZE, WRITE_FILE_SIZE - pos)
        adapter.write_at(handle, pos, _payload(n, pos))
        pos += n
    adapter.commit()


def run_writeback() -> dict:
    """One 1 MB sequential write transaction; counts the device write
    operations its commit-time flush pays, adjacent dirty pages going
    out as runs."""
    built = build_inversion_sp()
    try:
        adapter = built.adapter
        handle = adapter.create_file(FILE_NAME)
        adapter.flush_caches()
        db = adapter.db
        disk = _disk_stats(db)
        buf = db.buffers.stats
        writes0 = disk.writes
        fw0, bw0, ch0 = (buf.forced_writes, buf.batched_writes,
                         buf.write_coalesce_hits)
        t0 = adapter.clock.now()
        _sequential_write(adapter, handle)
        return {
            "elapsed_s": adapter.clock.now() - t0,
            "device_writes": disk.writes - writes0,
            "forced_writes": buf.forced_writes - fw0,
            "batched_writes": buf.batched_writes - bw0,
            "write_coalesce_hits": buf.write_coalesce_hits - ch0,
        }
    finally:
        built.close()


def run_cs_write(write_batch_chunks: int) -> dict:
    """The 1 MB sequential write over the client/server protocol; with
    batching, consecutive ``p_write`` calls ship as one RPC per
    ``write_batch_chunks`` chunks."""
    built = build_inversion_cs(write_batch_chunks=write_batch_chunks)
    try:
        adapter = built.adapter
        handle = adapter.create_file(FILE_NAME)
        adapter.flush_caches()
        client = adapter.client
        net0 = client.network.stats.messages
        t0 = adapter.clock.now()
        _sequential_write(adapter, handle)
        return {
            "write_batch_chunks": write_batch_chunks,
            "elapsed_s": adapter.clock.now() - t0,
            "net_messages": client.network.stats.messages - net0,
            "batched_writes": client.batched_writes,
            "buffered_writes": client.buffered_writes,
        }
    finally:
        built.close()


def run_commitio() -> dict:
    """The full experiment: group commit before/after, the coalesced
    write-back, client/server write batching before/after."""
    group_before = run_group(window=0.0)
    group_after = run_group(window=GROUP_WINDOW)
    wb_after = run_writeback()
    cs_before = run_cs_write(write_batch_chunks=1)
    cs_after = run_cs_write(write_batch_chunks=RPC_BATCH_CHUNKS)
    return {
        "experiment": ("group commit + batched write-back, "
                       "16 small commits and 1 MB sequential write"),
        "group_commit": {
            "before": group_before,
            "after": group_after,
            "speedup": (group_after["commits_per_sec"]
                        / group_before["commits_per_sec"]),
        },
        "writeback": {
            "after": wb_after,
        },
        "cs_write": {
            "before": cs_before,
            "after": cs_after,
            "speedup": cs_before["elapsed_s"] / cs_after["elapsed_s"],
        },
    }


def verdict(doc: dict) -> list[str]:
    """The claims a ``BENCH_commitio`` document must support: an extra
    forced status append, a flush that stops coalescing, or an RPC per
    chunk sneaking back in fails here."""
    group, wb, cs = doc["group_commit"], doc["writeback"], doc["cs_write"]
    claims = {
        "a zero window pays exactly one forced status append per "
        "writing commit (the paper's behaviour)":
            group["before"]["status_forces"] == GROUP_TXNS
            and group["before"]["commits_recorded"] == GROUP_TXNS
            and group["before"]["commits_per_force"] == 1.0
            and group["before"]["group_batches"] == 0,
        "an open window lands the whole batch as one forced append":
            group["after"]["status_forces"] == 1
            and group["after"]["commits_recorded"] == GROUP_TXNS
            and group["after"]["commits_per_force"] == GROUP_TXNS
            and group["after"]["max_group"] == GROUP_TXNS,
        "group commit at least doubles commit throughput":
            group["speedup"] >= 2.0,
        "a closed group pays one sweep and one force":
            group["after"]["device_writes"] == 2
            and group["before"]["device_writes"]
            - group["after"]["device_writes"] >= 2 * (GROUP_TXNS - 1),
        "a 1 MB sequential write flushes ≥ 128 pages in ≤ 8 device writes":
            wb["after"]["forced_writes"] >= WRITE_CHUNKS
            and wb["after"]["device_writes"] <= 8,
        "the coalesced flush arrives in contiguous multi-page runs":
            wb["after"]["batched_writes"] >= 1
            and wb["after"]["write_coalesce_hits"] >= WRITE_CHUNKS // 2,
        "the batched write RPC at least halves sequential-write time":
            cs["speedup"] >= 2.0
            and cs["after"]["net_messages"] * 4
            < cs["before"]["net_messages"],
        "one write RPC per batch, every chunk buffered":
            cs["after"]["batched_writes"]
            == math.ceil(WRITE_CHUNKS / RPC_BATCH_CHUNKS)
            and cs["after"]["buffered_writes"] == WRITE_CHUNKS,
        "the unbatched client buffers nothing":
            cs["before"]["batched_writes"] == 0
            and cs["before"]["buffered_writes"] == 0,
    }
    return [claim for claim, holds in claims.items() if not holds]

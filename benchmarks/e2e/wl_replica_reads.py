"""``replica_reads`` — one writer at the primary, eight readers on two
log-shipped replicas.

Why: ``replica.feed`` / ``replica.server`` and the feed-tapped device
path do the work.  It runs the read path beside shipped writes, so a
read gain that costs shipping (or the reverse) shows in one number.

Stack: ``ReplicatedCluster`` with two replicas seeded after the
fixtures exist.  One writer session commits 8 000 B chunk overwrites at
the primary; eight sticky round-robin reader sessions read whole files
from their replica under a bounded-staleness contract; every replica
syncs after every ``SYNC_EVERY`` commits.  The seed fixes who acts
when.  Every member has its own clock; elapsed time is the slowest
member's.
"""

from __future__ import annotations

import hashlib
import os

from .common import (CHUNK_SIZE, ModelFS, Recorder, Stack, reopen_databases,
                     rng_for, sha_payload, zipf_picker)

from repro.core.constants import O_RDONLY, O_RDWR
from repro.core.library import InversionClient
from repro.replica import ReplicaServer, ReplicatedCluster

NAME = "replica_reads"
WHY = ("1 writer at the primary, 8 readers on 2 log-shipped replicas: "
       "replica.feed, replica.server and the tapped device path do the "
       "work; reads run beside shipped writes")

REPLICAS = 2
READERS = 8
FILES = 12
CHUNKS_PER_FILE = 3
FILE_BYTES = CHUNKS_PER_FILE * CHUNK_SIZE
WRITE_BYTES = 8000
COMMITS = 240
READS_PER_COMMIT = 4
SYNC_EVERY = 6
#: a read finding its replica more than this many xids behind the
#: primary's durable horizon syncs first (so some reads pay a sync).
STALENESS_XIDS = 4


def build(workdir: str, seed: int, smoke: bool, pace) -> Stack:
    cluster = ReplicatedCluster.create(os.path.join(workdir, "cluster"), 0)
    paths = [f"/data{i}" for i in range(FILES)]
    files = {p: bytearray(sha_payload(seed, f"repl-init:{p}", FILE_BYTES))
             for p in paths}
    setup = InversionClient(cluster.primary_fs)
    setup.p_begin()
    for p in paths:
        fd = setup.p_creat(p)
        setup.p_write(fd, bytes(files[p]))
        setup.p_close(fd)
        pace.tick()
    setup.p_commit()
    cluster.primary_db.tm.flush_commits()
    cluster.primary_db.flush_caches()
    # Seed replicas only now, so the base backup (not the feed) carries
    # the fixtures.
    for i in range(REPLICAS):
        cluster.replicas.append(ReplicaServer.seed(
            cluster.feed, os.path.join(workdir, f"replica{i}"),
            f"replica{i}", staleness_xids=STALENESS_XIDS))
        pace.tick()
    writer = cluster.writer_client()
    readers = [cluster.reader_client() for _ in range(READERS)]

    def close() -> None:
        writer.close()
        for reader in readers:
            reader.close()
        cluster.close()

    dbs = [cluster.primary_db] + [r.db for r in cluster.replicas]
    return Stack(dbs=dbs, close=close, model=ModelFS(),
                 fs_groups=[[cluster.primary_fs]]
                 + [[r.fs] for r in cluster.replicas],
                 reopen=reopen_databases([[db.path] for db in dbs]),
                 parts={"cluster": cluster, "writer": writer,
                        "readers": readers, "files": files, "paths": paths,
                        "seed": seed,
                        "commits": 12 if smoke else COMMITS})


def _digest(data) -> bytes:
    return hashlib.sha256(bytes(data)).digest()


def run(stack: Stack, rec: Recorder) -> None:
    p = stack.parts
    cluster, writer, readers = p["cluster"], p["writer"], p["readers"]
    files, paths, seed = p["files"], p["paths"], p["seed"]
    rng = rng_for(seed, "replica")
    pick = zipf_picker(rng, len(paths), 1.1)
    primary_clock = cluster.primary_db.clock
    #: per file, the digest of its content after each commit count.
    history = {path: [(0, _digest(files[path]))] for path in paths}
    commits = 0
    #: commit count each replica is known to have reached.
    synced = [0] * len(cluster.replicas)
    lag_xids = lag_sim_s = 0.0

    def write_txn(path: str, chunk: int, data: bytes) -> None:
        writer.p_begin()
        fd = writer.p_open(path, O_RDWR)
        writer.p_lseek(fd, 0, chunk * CHUNK_SIZE, 0)
        writer.p_write(fd, data)
        writer.p_close(fd)
        writer.p_commit()

    def read_file(reader, path: str) -> bytes:
        fd = reader.p_open(path, O_RDONLY)
        pieces = []
        while True:
            piece = reader.p_read(fd, CHUNK_SIZE)
            if not piece:
                break
            pieces.append(piece)
        reader.p_close(fd)
        return b"".join(pieces)

    rec.mark(0)
    for _ in range(p["commits"]):
        path, chunk = paths[pick()], rng.randrange(CHUNKS_PER_FILE)
        data = sha_payload(seed, f"repl-write:{commits}", WRITE_BYTES)
        rec.op("txn_write", primary_clock, write_txn, path, chunk, data)
        commits += 1
        files[path][chunk * CHUNK_SIZE:chunk * CHUNK_SIZE + len(data)] = data
        history[path].append((commits, _digest(files[path])))
        rec.user_bytes_written += len(data)

        # how far behind each replica is when the commit lands
        tm = cluster.primary_db.tm
        horizon = cluster.feed.durable_horizon()
        for replica in cluster.replicas:
            behind = replica.horizon()
            lag_xids = max(lag_xids, horizon - behind)
            ptime, rtime = tm.commit_time(horizon), tm.commit_time(behind)
            if ptime is not None and rtime is not None:
                lag_sim_s = max(lag_sim_s, ptime - rtime)

        for _ in range(READS_PER_COMMIT):
            r = rng.randrange(len(readers))
            reader = readers[r]
            member = r % len(cluster.replicas)
            target = paths[pick()]
            got = rec.op("read", reader.network.clock, read_file, reader,
                         target)
            # The replica shows the primary as of some commit between
            # its last known sync and now.
            floor = synced[member]
            base = max(c for c, _d in history[target] if c <= floor)
            valid = {d for c, d in history[target] if c >= base}
            rec.check(got is not None and _digest(got) in valid,
                      f"replica read of {target} matches no version the "
                      f"staleness bound allows")

        if commits % SYNC_EVERY == 0:
            cluster.primary_db.tm.flush_commits()
            for i, replica in enumerate(cluster.replicas):
                replica.sync()
                synced[i] = commits
        rec.mark(commits)

    cluster.primary_db.tm.flush_commits()
    cluster.sync_all()
    rec.extra["replica.server.lag_xids_max"] = float(lag_xids)
    rec.extra["replica.server.lag_sim_s_max"] = float(lag_sim_s)


def finish(stack: Stack, rec: Recorder) -> None:
    for path, data in stack.parts["files"].items():
        stack.model.entries[path] = bytes(data)

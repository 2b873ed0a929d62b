"""The replication experiment (BENCH_replication.json).

Three questions about the log-shipping subsystem (:mod:`repro.replica`):

- **read scaling** — a fixed fleet of reader sessions, routed
  round-robin across 0/1/2/4 replicas.  Replicas are independent
  machines on independent clocks, so fleet wall-clock is the *slowest
  member's* elapsed simulated time; read throughput should scale with
  the replica count (the HopsFS argument for a database-backed
  namespace: reads scale out, writes stay on one primary).
- **replica lag under write load** — a primary committing a stream of
  transactions while one replica syncs every K commits.  Reported lag
  is sampled *before* each sync round (the worst a bounded-staleness
  read could see): xids behind, simulated seconds behind, and the
  shipping cost (rounds, entries, pages, bytes).
- **promotion time** — with a deliberate backlog outstanding, promote
  the replica: simulated seconds from "primary declared dead" to "new
  primary serving", including the final feed drain, measured on the
  replica's clock.

Everything runs on seeded simulated clocks with SHA-256-derived
payloads, so the JSON is byte-identical across runs; :func:`verdict`
holds the scaling floor and the drain-everything claims.

Regenerate with ``python -m repro.bench run replication``.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import tempfile

from repro.core.library import InversionClient
from repro.replica import ReplicatedCluster

#: replica counts swept by the read-scaling curve (0 = readers hit the
#: primary directly — the no-replication baseline).
REPLICA_COUNTS = (0, 1, 2, 4)

#: reader sessions in the fleet (fixed across the sweep, so the total
#: read work is identical and only the routing changes).
READER_SESSIONS = 8

#: files each reader session reads end-to-end.
FILES = 6

#: chunks per fixture file (8 KB each).
CHUNKS_PER_FILE = 3

#: committing write transactions for the lag experiment.
LAG_WRITE_TXNS = 24

#: the replica syncs every K primary commits.
LAG_SYNC_EVERY = 6

#: write transactions left unshipped when promotion is measured.
PROMO_BACKLOG_TXNS = 8

CHUNK = 8192


def _payload(tag: str, size: int) -> bytes:
    """Deterministic bytes, independent of PYTHONHASHSEED."""
    out = bytearray()
    counter = 0
    while len(out) < size:
        out += hashlib.sha256(f"replication:{tag}:{counter}".encode()).digest()
        counter += 1
    return bytes(out[:size])


def _setup_fixtures(cluster: ReplicatedCluster) -> None:
    """Fixture files committed on the primary before any replica is
    seeded, so the base backup (not the feed) carries them."""
    setup = InversionClient(cluster.primary_fs)
    setup.p_begin()
    for i in range(FILES):
        fd = setup.p_creat(f"/data{i}")
        setup.p_write(fd, _payload(f"file{i}", CHUNKS_PER_FILE * CHUNK))
        setup.p_close(fd)
    setup.p_commit()
    cluster.primary_db.tm.flush_commits()
    cluster.primary_db.flush_caches()


def _drive_readers(cluster: ReplicatedCluster) -> dict:
    """READER_SESSIONS sessions, each reading every fixture file
    end-to-end through its routed server.  Returns throughput numbers
    aggregated across member clocks."""
    clients = [cluster.reader_client() for _ in range(READER_SESSIONS)]
    servers = {id(c.server): c.server for c in clients}
    starts = {key: _clock_of(server).now()
              for key, server in servers.items()}
    reads = 0
    for client in clients:
        for i in range(FILES):
            fd = client.p_open(f"/data{i}", 0)
            while client.p_read(fd, CHUNK):
                reads += 1
            client.p_close(fd)
        client.close()
    elapsed = max(_clock_of(server).now() - starts[key]
                  for key, server in servers.items())
    return {"reads": reads, "wall_s": elapsed,
            "reads_per_sec": reads / elapsed}


def _clock_of(server):
    db = getattr(server, "db", None)
    return db.clock if db is not None else server.fs.db.clock


def run_read_scaling() -> list[dict]:
    results = []
    for nreplicas in REPLICA_COUNTS:
        workdir = tempfile.mkdtemp(prefix="inversion-repl-")
        try:
            cluster = ReplicatedCluster.create(
                os.path.join(workdir, "cluster"), 0)
            _setup_fixtures(cluster)
            # Seed replicas only after the fixtures exist (ReplicaServer
            # .seed checkpoints and clones; late seeding keeps the feed
            # small and the backup the dominant transfer).
            from repro.replica import ReplicaServer
            cluster.replicas = [
                ReplicaServer.seed(cluster.feed,
                                   os.path.join(workdir, f"replica{i}"),
                                   f"replica{i}")
                for i in range(nreplicas)
            ]
            measured = _drive_readers(cluster)
            measured["replicas"] = nreplicas
            measured["replica_reads"] = cluster.feed.stats.replica_reads
            results.append(measured)
            cluster.close()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    return results


def _lag_seconds(cluster, replica) -> float:
    """Commit-time gap between the primary's durable horizon and the
    replica's published horizon, in simulated seconds."""
    tm = cluster.primary_db.tm
    primary_xid = cluster.feed.durable_horizon()
    replica_xid = replica.horizon()
    if primary_xid <= replica_xid:
        return 0.0
    ptime = tm.commit_time(primary_xid)
    rtime = tm.commit_time(replica_xid)
    if ptime is None or rtime is None:
        return 0.0
    return max(0.0, ptime - rtime)


def run_lag() -> dict:
    workdir = tempfile.mkdtemp(prefix="inversion-repl-")
    try:
        cluster = ReplicatedCluster.create(os.path.join(workdir, "cluster"), 0)
        _setup_fixtures(cluster)
        from repro.replica import ReplicaServer
        replica = ReplicaServer.seed(cluster.feed,
                                     os.path.join(workdir, "replica0"),
                                     "replica0")
        cluster.replicas = [replica]
        writer = InversionClient(cluster.primary_fs)
        stats = cluster.feed.stats
        samples = []
        for t in range(LAG_WRITE_TXNS):
            writer.p_begin()
            fd = writer.p_open(f"/data{t % FILES}", 2)  # O_RDWR
            writer.p_write(fd, _payload(f"lag{t}", CHUNK))
            writer.p_close(fd)
            writer.p_commit()
            if (t + 1) % LAG_SYNC_EVERY == 0:
                pre_xids = (cluster.feed.durable_horizon()
                            - replica.horizon())
                pre_secs = _lag_seconds(cluster, replica)
                replica.sync()
                samples.append({
                    "after_txn": t + 1,
                    "lag_xids_before_sync": pre_xids,
                    "lag_seconds_before_sync": pre_secs,
                    "cursor": replica.cursor,
                })
        replica.sync()
        result = {
            "write_txns": LAG_WRITE_TXNS,
            "sync_every": LAG_SYNC_EVERY,
            "samples": samples,
            "max_lag_xids": max(s["lag_xids_before_sync"] for s in samples),
            "final_lag_xids": (cluster.feed.durable_horizon()
                               - replica.horizon()),
            "rounds": stats.rounds,
            "entries_shipped": stats.entries_shipped,
            "pages_shipped": stats.pages_shipped,
            "bytes_shipped": stats.bytes_shipped,
            "cursor_saves": stats.cursor_saves,
        }
        cluster.close()
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_promotion() -> dict:
    workdir = tempfile.mkdtemp(prefix="inversion-repl-")
    try:
        cluster = ReplicatedCluster.create(os.path.join(workdir, "cluster"), 0)
        _setup_fixtures(cluster)
        from repro.replica import ReplicaServer
        replica = ReplicaServer.seed(cluster.feed,
                                     os.path.join(workdir, "replica0"),
                                     "replica0")
        cluster.replicas = [replica]
        writer = InversionClient(cluster.primary_fs)
        for t in range(PROMO_BACKLOG_TXNS):
            writer.p_begin()
            fd = writer.p_open(f"/data{t % FILES}", 2)
            writer.p_write(fd, _payload(f"promo{t}", CHUNK))
            writer.p_close(fd)
            writer.p_commit()
        cluster.primary_db.tm.flush_commits()
        backlog_xids = cluster.feed.durable_horizon() - replica.horizon()
        backlog_entries = cluster.feed.next_seq - replica.cursor
        cluster.primary_db.simulate_crash()
        t0 = replica.db.clock.now()
        before = replica.cursor
        cluster.promote(replica)
        promotion_s = replica.db.clock.now() - t0
        # The new primary serves a write immediately.
        sid = replica.connect()
        fd = replica.dispatch(sid, "p_creat", "/after-failover")
        replica.dispatch(sid, "p_write", fd, b"served by the new primary")
        replica.dispatch(sid, "p_close", fd)
        replica.disconnect(sid)
        result = {
            "backlog_txns": PROMO_BACKLOG_TXNS,
            "backlog_xids": backlog_xids,
            "backlog_entries": backlog_entries,
            "drained_entries": replica.cursor - before,
            "promotion_s": promotion_s,
            "promotions": cluster.feed.stats.promotions,
        }
        cluster.close()
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_replication() -> dict:
    scaling = run_read_scaling()
    by_count = {str(r["replicas"]): r["reads_per_sec"] for r in scaling}
    one = next(r for r in scaling if r["replicas"] == 1)
    four = next(r for r in scaling if r["replicas"] == 4)
    return {
        "experiment": ("log-shipping replication: read throughput vs "
                       "replica count, replica lag under write load, "
                       "promotion time with a backlog"),
        "reader_sessions": READER_SESSIONS,
        "read_scaling": scaling,
        "lag": run_lag(),
        "promotion": run_promotion(),
        "scaling": {
            "reads_per_sec_by_replicas": by_count,
            "speedup_4_over_1": four["reads_per_sec"] / one["reads_per_sec"],
        },
    }



def verdict(doc: dict) -> list[str]:
    """The claims a full-size ``BENCH_replication`` document must
    support: reads scale out, a synced replica has no lag left, and
    promotion drains the whole backlog."""
    rates = [r["reads_per_sec"] for r in doc["read_scaling"]]
    claims = {
        "read throughput never falls as replicas are added":
            rates == sorted(rates),
        "4 replicas serve at least 3x the reads of 1":
            doc["scaling"]["speedup_4_over_1"] >= 3.0,
        "a final sync leaves the replica zero xids behind":
            doc["lag"]["final_lag_xids"] == 0,
        "promotion drains every backlog entry":
            doc["promotion"]["drained_entries"]
            == doc["promotion"]["backlog_entries"] > 0,
    }
    return [claim for claim, holds in claims.items() if not holds]

"""``sharded_mix`` — the ``multiuser_mix`` traffic over four shards.

Why: identical per-session traffic isolates what sharding adds —
``shard.client`` routing and lazy enlistment, ``shard.twophase`` for
the transactions that span two shards, ``shard.sched``'s per-shard
timelines.  The single-shard majority must stay message-free; only the
10 % of write transactions that touch a second shard (2PC) and the
cross-shard renames may pay coordination.

Stack: ``ShardedCluster.create(4, policy="subtree")`` +
``ShardedScheduler``, 32 sessions (8 homed on each shard) working the
32 files under their own ``/s<k>/``.  Elapsed time is the slowest
shard's (``cluster.elapsed_max``).
"""

from __future__ import annotations

import os

from . import mixgen
from .common import (BenchError, CHUNK_SIZE, ModelFS, Recorder, Stack,
                     metric_total, rng_for)
from .wl_multiuser_mix import (BUFFER_PAGES, GROUP_WINDOW, LOCK_TIMEOUT_S,
                               MAX_RETRIES, record_units)

from repro.shard import ShardedCluster, ShardedScheduler

NAME = "sharded_mix"
WHY = ("the multiuser_mix traffic on 4 shards plus 10% two-shard write "
       "txns and cross-shard renames: isolates shard.client, "
       "shard.twophase and per-shard scheduling")

SHARDS = 4
SESSIONS_PER_SHARD = 8
UNITS = 80
#: share of units that are two-shard write Txns (10 % of the 30 %
#: write units) and cross-shard renames per session (2 % of units).
CROSS_SHARE = 0.03
MOVES = 2


def build(workdir: str, seed: int, smoke: bool, pace) -> Stack:
    nshards = 2 if smoke else SHARDS
    per_shard = 2 if smoke else SESSIONS_PER_SHARD
    nunits = 12 if smoke else UNITS
    nmoves = 1 if smoke else MOVES
    path = os.path.join(workdir, "cluster")
    cluster = ShardedCluster.create(
        path, nshards, policy="subtree",
        assignments={f"s{k}": k for k in range(nshards)},
        buffer_pages=BUFFER_PAGES, group_commit_window=GROUP_WINDOW)
    shard_paths = [[f"/s{k}/f{i}" for i in range(mixgen.FILES)]
                   for k in range(nshards)]
    content = mixgen.ContentModel(seed, [p for ps in shard_paths for p in ps])
    moves = {}
    for k in range(nshards):
        for j in range(per_shard):
            sid = k * per_shard + j
            # Moves go down a shard (shard 0's go up): with pairs
            # locking the lower shard first, most cross-shard lock
            # orders agree and cycles stay rare.
            dst = k - 1 if k else 1
            moves[sid] = [(f"/s{k}/mv{sid}_{m}", f"/s{dst}/mv{sid}_{m}")
                          for m in range(nmoves)]
            for src, _dst in moves[sid]:
                content.add_private(
                    src, mixgen.initial_content(seed, src)[:CHUNK_SIZE])
    setup = cluster.client()
    for k in range(nshards):
        setup.p_mkdir(f"/s{k}")
    setup.p_begin()
    for p, data in content.files.items():
        fd = setup.p_creat(p)
        setup.p_write(fd, bytes(data))
        setup.p_close(fd)
        pace.tick()
    setup.p_commit()
    setup.close()
    for db in cluster.dbs:
        db.tm.flush_commits()
    cluster.flush_caches()
    for db in cluster.dbs:
        db.locks.timeout_s = LOCK_TIMEOUT_S

    sched = ShardedScheduler(cluster, seed=seed, max_retries=MAX_RETRIES)
    programs = {}
    for k in range(nshards):
        other = (k + 1) % nshards
        away = shard_paths[other]
        for j in range(per_shard):
            sid = k * per_shard + j
            rng = rng_for(seed, f"shardmix:{sid}")

            def partner(first: int, rng=rng, away=away):
                return away[rng.randrange(len(away))], True

            lower_first = other < k

            units = mixgen.make_units(rng, sid, nunits, shard_paths[k],
                                      CROSS_SHARE, partner, moves[sid])
            if lower_first:
                for unit in units:
                    if unit.kind == "pair":
                        unit.paths = unit.paths[::-1]
            programs[f"c{sid}"] = units
            sched.add_session(mixgen.compile_program(seed, units),
                              name=f"c{sid}", home=k)

    def close() -> None:
        sched.close()
        cluster.close()

    def reopen():
        recovered = ShardedCluster.open(path, buffer_pages=BUFFER_PAGES)
        return [recovered.fss], recovered.close

    return Stack(dbs=list(cluster.dbs), close=close, model=ModelFS(),
                 fs_groups=[cluster.fss], reopen=reopen,
                 parts={"cluster": cluster, "sched": sched,
                        "programs": programs, "content": content,
                        "seed": seed, "nshards": nshards})


def run(stack: Stack, rec: Recorder) -> None:
    p = stack.parts
    cluster, sched, content = p["cluster"], p["sched"], p["content"]
    by_tag = {u.tag: u for units in p["programs"].values() for u in units
              if u.tag is not None}
    rec.mark(len(sched.trace))

    def on_commit(session, tag) -> None:
        rec.user_bytes_written += content.commit(by_tag[tag])
        rec.mark(len(sched.trace))
        rec.pace.tick()

    sched.commit_hook = on_commit
    evictions = sum(metric_total(db, "buffer.evictions")
                    for db in cluster.dbs)
    p["starts"] = [cluster.clock(k).now() for k in range(p["nshards"])]
    p["report"] = sched.run(strict=False)
    rec.mark(len(sched.trace))
    for db in cluster.dbs:
        db.tm.flush_commits()
    if evictions != sum(metric_total(db, "buffer.evictions")
                        for db in cluster.dbs):
        raise BenchError("sharded_mix no longer fits the buffer caches: "
                         "the window evicted pages")


def finish(stack: Stack, rec: Recorder) -> None:
    p = stack.parts
    sched, content = p["sched"], p["content"]
    sessions = {s.name: s for s in sched.sessions}
    events = [(t, kind, name) for t, _home, kind, name, _d in sched.trace]
    starts = {name: p["starts"][sessions[name].home] for name in p["programs"]}
    record_units(rec, events, starts, p["programs"], sessions, content)
    # Renames are lone auto-commit calls (no commit hook): a session
    # that finished has made every one of its moves.
    for name, units in p["programs"].items():
        if sessions[name].state == "done":
            for unit in units:
                if unit.kind == "move":
                    rec.user_bytes_written += len(content.files[unit.paths[0]])
                    content.commit(unit)
    report = p["report"]
    rec.extra["sched.scheduler.max_ready_wait_s"] = report["max_ready_wait_s"]
    rec.extra["sched.scheduler.starved"] = float(report["starved"])
    for k in range(p["nshards"]):
        stack.model.entries[f"/s{k}"] = None
    for path, data in content.files.items():
        stack.model.entries[path] = bytes(data)

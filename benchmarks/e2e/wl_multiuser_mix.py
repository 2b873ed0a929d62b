"""``multiuser_mix`` — 16 sessions sharing one server under the
deterministic scheduler.

Why: ``db.locks``, ``sched.scheduler``, ``db.transactions`` group commit
and the ``cache.*`` leases do the work.  The 32 × 32 KB files (1 MB)
and every version the window adds stay resident in the buffer cache
(asserted: zero evictions in the window), so the disk sees commit
forces and little else, and there is no network at all — sessions
dispatch straight into the server.

Stack: ``MultiUserScheduler(max_inflight=16,
cache_factory=session_cache_factory())`` over an ``InversionServer``
with a 0.05 s group-commit window.  Each session runs ``UNITS`` units:
70 % cache-eligible reads, 28 % single-file write ``Txn``s, 2 % two-file
write ``Txn``s in opposing order (lock-order conflicts).
"""

from __future__ import annotations

import itertools
import os

from . import mixgen
from .common import (BenchError, ModelFS, Recorder, Stack, metric_total,
                     reopen_databases, rng_for)

from repro.cache import session_cache_factory
from repro.core.filesystem import InversionFS
from repro.core.library import InversionClient
from repro.core.server import InversionServer
from repro.db.database import Database
from repro.sched import MultiUserScheduler

NAME = "multiuser_mix"
WHY = ("16 scheduler sessions, 70/30 read/write on cache-resident files: "
       "locks, scheduler, group commit and leases do the work; data path "
       "and network almost none")

SESSIONS = 16
UNITS = 200
PAIR_SHARE = 0.02
GROUP_WINDOW = 0.05
#: the window's new chunk versions (≈ 1 000 pages) must stay resident on
#: top of the 1 MB of files, their indexes and the catalogs.
BUFFER_PAGES = 2048
#: simulated seconds a lock request waits before it gives up, and how
#: often a victim is re-run.  The library default (10 s, against ~20 ms
#: transactions) turns every lock-order conflict into a ten-second
#: stall of one session.
LOCK_TIMEOUT_S = 0.5
MAX_RETRIES = 100


def build(workdir: str, seed: int, smoke: bool, pace) -> Stack:
    path = os.path.join(workdir, "db")
    db = Database.create(path, buffer_pages=BUFFER_PAGES)
    fs = InversionFS.mkfs(db)
    paths = [f"/f{i}" for i in range(mixgen.FILES)]
    content = mixgen.ContentModel(seed, paths)
    setup = InversionClient(fs)
    setup.p_begin()
    for p in paths:
        fd = setup.p_creat(p)
        setup.p_write(fd, bytes(content.files[p]))
        setup.p_close(fd)
        pace.tick()
    setup.p_commit()
    db.tm.flush_commits()
    db.flush_caches()
    db.tm.group_commit_window = GROUP_WINDOW
    db.locks.timeout_s = LOCK_TIMEOUT_S

    server = InversionServer(fs)
    sched = MultiUserScheduler(server, seed=seed, max_inflight=SESSIONS,
                               max_retries=MAX_RETRIES,
                               cache_factory=session_cache_factory())
    nsessions = 4 if smoke else SESSIONS
    nunits = 12 if smoke else UNITS
    programs = {}
    for sid in range(nsessions):
        rng = rng_for(seed, f"mix:{sid}")

        def partner(first: int, rng=rng):
            second = rng.randrange(mixgen.FILES - 1)
            return paths[second + (second >= first)], False

        units = mixgen.make_units(rng, sid, nunits, paths, PAIR_SHARE,
                                  partner)
        programs[f"c{sid}"] = units
        sched.add_session(mixgen.compile_program(seed, units), name=f"c{sid}")

    def close() -> None:
        sched.close()
        db.close()

    return Stack(dbs=[db], close=close, model=ModelFS(), fs_groups=[[fs]],
                 reopen=reopen_databases([[path]]),
                 parts={"fs": fs, "sched": sched, "programs": programs,
                        "content": content, "seed": seed})


def run(stack: Stack, rec: Recorder) -> None:
    p = stack.parts
    db, sched, content = stack.dbs[0], p["sched"], p["content"]
    by_tag = {u.tag: u for units in p["programs"].values() for u in units
              if u.tag is not None}
    rec.mark(len(sched.trace))

    def on_commit(session, tag, xid) -> None:
        rec.user_bytes_written += content.commit(by_tag[tag])
        rec.mark(len(sched.trace))
        rec.pace.tick()

    sched.commit_hook = on_commit
    evictions = metric_total(db, "buffer.evictions")
    p["t0"] = db.clock.now()
    p["report"] = sched.run(strict=False)
    rec.mark(len(sched.trace))
    db.tm.flush_commits()
    if metric_total(db, "buffer.evictions") != evictions:
        raise BenchError("multiuser_mix no longer fits the buffer cache: "
                         "the window evicted pages")


def finish(stack: Stack, rec: Recorder) -> None:
    p = stack.parts
    sched = p["sched"]
    events = [(t, kind, name) for t, kind, name, _detail in sched.trace]
    record_units(rec, events, {n: p["t0"] for n in p["programs"]},
                 p["programs"], {s.name: s for s in sched.sessions},
                 p["content"])
    report = p["report"]
    rec.extra["sched.scheduler.max_ready_wait_s"] = report["max_ready_wait_s"]
    rec.extra["sched.scheduler.starved"] = float(report["starved"])
    for path, data in p["content"].files.items():
        stack.model.entries[path] = bytes(data)


def record_units(rec: Recorder, events, window_start: dict, programs: dict,
                 sessions: dict, content) -> None:
    """Turn a finished scheduler run into op samples: one op per unit
    (latency from the trace), reads checked against committed versions,
    units of failed sessions counted as failed ops.  The growth marks,
    taken as trace lengths, become slices run so far: work, where a
    count of commits would make a stretch of retries look expensive."""
    latencies = mixgen.unit_latencies(events, window_start, programs)
    for name, units in programs.items():
        done = latencies[name]
        session = sessions[name]
        completed = len(done) if session.state == "done" else len(done) - 1
        for k, unit in enumerate(units):
            rec.add(unit.cls, done[k] if k < len(done) else 0.0, 0.0)
            if k >= completed:
                rec.fail(f"{name} unit {k} ({unit.kind}) did not complete: "
                         f"{session.error}")
            elif unit.kind == "read":
                content.check_read(rec, unit,
                                   session.values.get(unit.read_ordinal),
                                   session.values.get(unit.read_ordinal + 2))
    slices = list(itertools.accumulate(
        (kind == "slice" for _t, kind, _name in events), initial=0))
    rec.marks[:] = [(at, slices[length]) for at, length in rec.marks]

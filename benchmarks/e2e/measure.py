"""Metric definitions and the round protocol.

One *round* = build a fresh stack (set-up, outside the window), run the
workload's measured window, derive ops, verify.  End-to-end metrics
come from untraced rounds only: simulated ones pool the run's inputs
and must repeat exactly for a repeated input, host ones are medians
over rounds.  Per-layer metrics come from one traced round.

Host time is **user-mode CPU time of this process** (``ru_utime``),
not wall time, **calibrated by the machine's pace while the work ran**
(``common.Pace``).  Why each choice, measured on the shared 2-core VM
this was written on:

* wall time — the hypervisor steals time slices; between a quiet and a
  busy quarter of an hour the wall-clock throughput of an unchanged
  tree moved by 2x;
* kernel time — the program rewrites small files with ``os.replace``,
  and what ext4 charges for that depends on the state of its journal:
  the system time of identical ``namespace_churn`` windows ran from
  0.48 s to 0.79 s while their user time stayed within 2.04 +- 0.07 s;
* pace — see ``common.Pace``.

The kernel accounts user time by sampling at 250 Hz, which is exact to
about 1 % on a window of a second or more; the marks behind
``host_growth_ratio`` are too fine for that and use
``time.process_time``.
"""

from __future__ import annotations

import gc
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field

from .common import (OP_CLASSES, CHUNK_SIZE, BenchError, Pace, Recorder,
                     device_bytes_allocated, device_bytes_written, fresh_dir,
                     metric_total, percentile, reopen_and_verify,
                     tail_quantile, verify_groups)
from .trace import LAYERS, LEDGER, Tracer

# -- what is reported --------------------------------------------------------

#: (name, unit, better, regression bound as a share of the parent's
#: median).  Units say the currency too: ``sim_ms`` are simulated
#: milliseconds, exact for a seed; ``ms`` and ``s`` are host time.  ``failed_share`` is reported beside these on every run but
#: is not listed: it is 0 on a healthy tree, and any increase fails the
#: run outright through ``correct``/``failed``.
END_TO_END = (
    ("sim_ops_per_s", "1/sim_s", "higher", 0.10),
    ("sim_p50_ms", "sim_ms", "lower", 0.20),
    ("sim_p99_ms", "sim_ms", "lower", 0.25),
    ("write_amp", "ratio", "lower", 0.10),
    ("space_amp", "ratio", "lower", 0.10),
    ("host_ops_per_s", "1/s", "higher", 0.25),
    ("host_cpu_ms_per_op", "ms", "lower", 0.25),
    ("host_growth_ratio", "ratio", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
)
SIM_EXACT = ("sim_ops_per_s", "sim_p50_ms", "sim_p99_ms", "write_amp",
             "space_amp", "failed_share")

_RATIOS = (
    ("db.buffer.hit_rate", "ratio", "higher"),
    ("db.buffer.evictions", "count", "lower"),
    ("db.buffer.coalesce_share", "ratio", "higher"),
    ("db.btree.fastpath_share", "ratio", "higher"),
    ("db.catalog.scans_per_lookup", "ratio", "lower"),
    ("devices.magnetic.allocmap_saves", "count", "lower"),
    ("devices.magnetic.allocmap_bytes", "bytes", "lower"),
    ("sim.disk.seek_share", "ratio", "lower"),
    ("sim.network.round_trips_per_op", "ratio", "lower"),
    ("core.chunks.chunks_written_per_user_chunk", "ratio", "lower"),
    ("db.locks.waits", "count", "lower"),
    ("db.locks.timeouts", "count", "lower"),
    ("db.locks.deadlocks", "count", "lower"),
    ("db.transactions.commits_per_force", "ratio", "higher"),
    ("db.transactions.status_forces", "count", "lower"),
    ("sched.scheduler.retries", "count", "lower"),
    ("sched.scheduler.lock_parks", "count", "lower"),
    ("sched.scheduler.max_ready_wait_s", "sim_s", "lower"),
    ("sched.scheduler.starved", "count", "lower"),
    ("shard.client.cross_msgs_per_txn", "ratio", "lower"),
    ("shard.twophase.prepares", "count", "lower"),
    ("replica.feed.bytes_shipped_per_user_byte", "ratio", "lower"),
    ("replica.server.lag_xids_max", "count", "lower"),
    ("replica.server.lag_sim_s_max", "sim_s", "lower"),
    ("cache.client.hit_rate", "ratio", "higher"),
    ("cache.leases.notices", "count", "lower"),
    ("bench.unattributed_host_s", "s", "lower"),
    ("bench.trace_overhead_ratio", "ratio", "lower"),
    ("bench.host_sys_share", "ratio", "lower"),
    ("bench.table3_geomean_ratio", "ratio", "lower"),
    ("bench.reopen_sim_ms", "sim_ms", "lower"),
    ("bench.reopen_host_ms", "ms", "lower"),
)

PER_LAYER = tuple(
    [(f"{layer}.calls", "count", "lower") for layer in LAYERS]
    + [(f"{layer}.host_self_s", "s", "lower") for layer in LAYERS]
    + [(f"ledger.{col}", "sim_s", "lower") for col in LEDGER]
    + [(f"op.{cls}.{stat}", unit, "lower") for cls in OP_CLASSES
       for stat, unit in (("sim_p50_ms", "sim_ms"), ("sim_p99_ms", "sim_ms"),
                          ("host_p50_us", "us"))]
    + list(_RATIOS))

#: registry families summed over every member database …
_PER_DB = ("buffer.hits", "buffer.misses", "buffer.evictions",
           "buffer.write_coalesce_hits", "buffer.dirty_writebacks",
           "disk.seeks", "disk.reads", "disk.writes", "net.messages",
           "chunks.chunks_written", "lock.waits", "lock.timeouts",
           "lock.deadlocks", "txn.commits_recorded", "txn.status_forces",
           "cache.hits", "cache.misses", "cache.lease_notices")
#: … and families that already aggregate (one stats object mirrored on
#: some or all members, or a process-wide counter): read once.
_SHARED = ("btree.total_descents", "btree.descent_fastpath_hits",
           "sched.retries", "sched.lock_parks",
           "shard.cross_shard_messages", "shard.single_shard_txns",
           "shard.cross_shard_txns", "shard.prepares", "repl.bytes_shipped")


def _counters(dbs) -> dict[str, float]:
    out = {name: sum(metric_total(db, name) for db in dbs)
           for name in _PER_DB}
    out.update({name: max(metric_total(db, name) for db in dbs)
                for name in _SHARED})
    return out


@dataclass
class Round:
    """Everything one round measured."""

    rec: Recorder
    setup_s: float                   # calibrated user CPU seconds of build()
    host_s: float                    # wall seconds of the window
    cpu_s: float                     # calibrated user CPU seconds of it
    sys_share: float                 # kernel share of its CPU time
    sim_s: float
    slowest: int                     # index of the slowest member clock
    device_written: int
    allocated: int
    live: int
    counters: dict = field(default_factory=dict)
    tracer: Tracer | None = None


def _user_s() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_utime


def _timed_build(wl, workdir: str, seed: int, smoke: bool):
    """Build ``wl``'s stack; returns (calibrated user CPU seconds, the
    stack)."""
    pace = Pace()
    pace.sample()
    cpu0 = _user_s()
    stack = wl.build(workdir, seed, smoke, pace)
    user_s = _user_s() - cpu0
    pace.sample()
    return pace.calibrated(user_s), stack


def run_round(wl, seed: int, smoke: bool, tracer: Tracer | None = None,
              verify: bool = True) -> Round:
    """One round of ``wl`` on a freshly built stack."""
    workdir = fresh_dir(wl.NAME)
    try:
        if tracer is not None:
            tracer.install()
        setup_s, stack = _timed_build(wl, workdir, seed, smoke)
        closed = False
        try:
            if tracer is not None:
                for clock in stack.clocks:
                    tracer.watch_clock(clock)
            rec = Recorder(tracer)
            before = _counters(stack.dbs)
            written0 = device_bytes_written(stack.dbs)
            starts = [c.now() for c in stack.clocks]
            if tracer is not None:
                tracer.start()
            rec.pace.sample()
            usage0 = resource.getrusage(resource.RUSAGE_SELF)
            h0 = time.perf_counter()
            wl.run(stack, rec)
            host_s = time.perf_counter() - h0
            usage1 = resource.getrusage(resource.RUSAGE_SELF)
            rec.pace.sample()
            if tracer is not None:
                tracer.stop()
            user_s = usage1.ru_utime - usage0.ru_utime
            sys_s = usage1.ru_stime - usage0.ru_stime
            elapsed = [c.now() - s for c, s in zip(stack.clocks, starts)]
            after = _counters(stack.dbs)
            wl.finish(stack, rec)
            rnd = Round(
                rec=rec, setup_s=setup_s, host_s=host_s,
                cpu_s=rec.pace.calibrated(user_s),
                sys_share=sys_s / (sys_s + user_s),
                sim_s=max(elapsed), slowest=elapsed.index(max(elapsed)),
                device_written=device_bytes_written(stack.dbs) - written0,
                allocated=device_bytes_allocated(stack.dbs),
                live=sum(len(v) for v in stack.model.state().values()
                         if v is not None),
                counters={k: after[k] - before[k] for k in after},
                tracer=tracer)
            if verify:
                verify_groups(rec, "end state", stack.fs_groups, stack.model)
                stack.close()
                closed = True
                gc.collect()     # as below: the peak is in this branch
                reopen_and_verify(rec, stack)
            return rnd
        finally:
            if not closed:
                stack.close()
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
        # Stacks are full of reference cycles.  Without this the dead
        # one (25 MB of content on bulk_io) overlaps the next or not as
        # the collector happens to run, and peak_rss_mb differs from
        # seed to seed.  (It still has two values on bulk_io, 155 and
        # 174 MiB: which one depends on the heap's layout, and any
        # change to the code can flip it.  The bound covers both.)
        gc.collect()


# -- summarising -----------------------------------------------------------------

def _halves(rec: Recorder) -> tuple[float, float]:
    """Calibrated CPU seconds of the first and of the second half of the
    window's growth units."""
    marks = rec.marks
    half = marks[-1][1] / 2
    j = next(i for i, (_at, work) in enumerate(marks[1:]) if work >= half)
    (t0, w0), (t1, w1) = marks[j], marks[j + 1]
    middle = t0 + (t1 - t0) * (half - w0) / (w1 - w0)
    start, end = marks[0][0], marks[-1][0]
    return (rec.pace.calibrated(middle - start, start, middle),
            rec.pace.calibrated(end - middle, middle, end))


def _growth(rounds: list[Round]) -> float:
    """CPU time of the second half of the growth units over the first
    half, all rounds together.  Halves, not the issue's quarters: on
    ten rounds of one tree the quarter ratio moved by ±25 %, the half
    ratio by ±10 %."""
    firsts, seconds = zip(*(_halves(r.rec) for r in rounds))
    return sum(seconds) / sum(firsts)


def sim_metrics(rounds: list[Round]) -> dict[str, float]:
    """Simulated metrics of ``rounds`` taken as one body of work: their
    ops pooled, their bytes and simulated seconds summed."""
    lat = sorted(s for r in rounds for s in r.rec.op_sim)
    attempted = sum(r.rec.attempted for r in rounds)
    return {
        "sim_ops_per_s": attempted / sum(r.sim_s for r in rounds),
        "sim_p50_ms": percentile(lat, 0.50) * 1e3,
        "sim_p99_ms": percentile(lat, tail_quantile(len(lat))) * 1e3,
        "write_amp": (sum(r.device_written for r in rounds)
                      / sum(r.rec.user_bytes_written for r in rounds)),
        "space_amp": (sum(r.allocated for r in rounds)
                      / sum(r.live for r in rounds)),
        "failed_share": min(1.0, sum(r.rec.failed for r in rounds)
                            / attempted),
    }


def time_setup(wl, seed: int, smoke: bool) -> float:
    """Calibrated user CPU seconds of one more set-up (built and thrown
    away)."""
    workdir = fresh_dir(wl.NAME)
    try:
        setup_s, stack = _timed_build(wl, workdir, seed, smoke)
        stack.close()
        return setup_s
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def end_to_end(rounds: list[Round], ninputs: int,
               extra_setups: list[float] = ()) -> tuple[dict, list[str]]:
    """Metrics of a workload's untraced rounds, plus complaints (a
    non-empty list makes the run incorrect).  Round ``i`` ran input
    ``i % ninputs``: simulated metrics pool the first round of every
    input, and a later round must repeat its input's first exactly."""
    problems = []
    for i, rnd in enumerate(rounds[ninputs:], ninputs):
        first, again = sim_metrics([rounds[i % ninputs]]), sim_metrics([rnd])
        for name in SIM_EXACT:
            if again[name] != first[name]:
                problems.append(
                    f"{name} differs between round {i % ninputs} and round "
                    f"{i} of the same input: {first[name]!r} != "
                    f"{again[name]!r}")
    med = statistics.median
    out = sim_metrics(rounds[:ninputs])
    cpu_per_op = med(r.cpu_s / r.rec.attempted for r in rounds)
    out["host_ops_per_s"] = 1.0 / cpu_per_op
    out["host_cpu_ms_per_op"] = cpu_per_op * 1e3
    out["host_growth_ratio"] = _growth(rounds)
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                          / 1024.0)
    out["setup_s"] = med([r.setup_s for r in rounds] + list(extra_setups))
    return out, problems


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(rnd: Round, untraced: Round) -> tuple[dict, list[str]]:
    """Metrics of the traced round ``rnd``, plus complaints.
    ``untraced`` is a round of the same seed with tracing off: the base
    of the overhead ratio and the source of the kernel-time share,
    which no end-to-end host metric includes."""
    tracer, rec, c = rnd.tracer, rnd.rec, rnd.counters
    out: dict[str, float] = {}
    for i, layer in enumerate(LAYERS):
        out[f"{layer}.calls"] = float(tracer.calls[i])
        out[f"{layer}.host_self_s"] = tracer.self_s[i]
    ledger = tracer.ledgers[rnd.slowest]
    for col in LEDGER:
        out[f"ledger.{col}"] = ledger[col]
    by_class: dict[str, tuple[list, list]] = {}
    for cls, sim, host in zip(rec.op_class, rec.op_sim, rec.op_host):
        sims, hosts = by_class.setdefault(cls, ([], []))
        sims.append(sim)
        hosts.append(host)
    for cls in OP_CLASSES:
        sims, hosts = by_class.get(cls, ([], []))
        sims.sort()
        hosts.sort()
        out[f"op.{cls}.sim_p50_ms"] = percentile(sims, 0.5) * 1e3
        out[f"op.{cls}.sim_p99_ms"] = percentile(
            sims, tail_quantile(len(sims))) * 1e3
        out[f"op.{cls}.host_p50_us"] = percentile(hosts, 0.5) * 1e6
    lookups = tracer.calls_of("Catalog.lookup_table")
    user_chunks = rec.user_bytes_written / CHUNK_SIZE
    out.update({
        "db.buffer.hit_rate": _ratio(c["buffer.hits"],
                                     c["buffer.hits"] + c["buffer.misses"]),
        "db.buffer.evictions": c["buffer.evictions"],
        "db.buffer.coalesce_share": _ratio(c["buffer.write_coalesce_hits"],
                                           c["buffer.dirty_writebacks"]),
        "db.btree.fastpath_share": _ratio(c["btree.descent_fastpath_hits"],
                                          c["btree.total_descents"]),
        "db.catalog.scans_per_lookup": _ratio(tracer.catalog_scans, lookups),
        "devices.magnetic.allocmap_saves": float(tracer.allocmap_saves),
        "devices.magnetic.allocmap_bytes": float(tracer.allocmap_bytes),
        "sim.disk.seek_share": _ratio(c["disk.seeks"],
                                      c["disk.reads"] + c["disk.writes"]),
        "sim.network.round_trips_per_op": _ratio(c["net.messages"] / 2,
                                                 rec.attempted),
        "core.chunks.chunks_written_per_user_chunk": _ratio(
            c["chunks.chunks_written"], user_chunks),
        "db.locks.waits": c["lock.waits"],
        "db.locks.timeouts": c["lock.timeouts"],
        "db.locks.deadlocks": c["lock.deadlocks"],
        "db.transactions.commits_per_force": _ratio(
            c["txn.commits_recorded"], c["txn.status_forces"]),
        "db.transactions.status_forces": c["txn.status_forces"],
        "sched.scheduler.retries": c["sched.retries"],
        "sched.scheduler.lock_parks": c["sched.lock_parks"],
        "shard.client.cross_msgs_per_txn": _ratio(
            c["shard.cross_shard_messages"],
            c["shard.single_shard_txns"] + c["shard.cross_shard_txns"]),
        "shard.twophase.prepares": c["shard.prepares"],
        "replica.feed.bytes_shipped_per_user_byte": _ratio(
            c["repl.bytes_shipped"], rec.user_bytes_written),
        "cache.client.hit_rate": _ratio(
            c["cache.hits"], c["cache.hits"] + c["cache.misses"]),
        "cache.leases.notices": c["cache.lease_notices"],
        "bench.unattributed_host_s": tracer.unattributed_host_s,
        "bench.trace_overhead_ratio": _ratio(rnd.host_s, untraced.host_s),
        "bench.host_sys_share": untraced.sys_share,
    })
    for name, _unit, _better in _RATIOS:
        out.setdefault(name, float(rec.extra.get(name, 0.0)))

    problems = []
    gap = abs(sum(ledger.values()) - rnd.sim_s)
    if gap > 1e-6:
        problems.append(f"ledger does not sum to elapsed: off by {gap!r} s")
    if tracer.stack:
        problems.append(f"{len(tracer.stack)} spans still open at the end "
                        f"of the window")
    return out, problems


def check_declared(kind: str, metrics: dict) -> None:
    """The names printed must be the names declared, exactly."""
    declared = [m[0] for m in (END_TO_END if kind == "end_to_end"
                               else PER_LAYER)]
    got = [n for n in metrics if n != "failed_share"]
    if sorted(declared) != sorted(got):
        raise BenchError(f"{kind} metrics drifted from their declaration: "
                         f"{sorted(set(declared) ^ set(got))}")

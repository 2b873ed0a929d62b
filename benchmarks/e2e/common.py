"""Shared pieces of the end-to-end benchmark: seeded inputs, the
per-round recorder, device accounting and end-state verification.

Two currencies run through everything here.  ``sim`` values are
simulated seconds read off a :class:`repro.sim.clock.SimClock`; they
repeat exactly for a given code + seed.  ``host`` values are what the
Python costs (``time.perf_counter`` / ``time.process_time``).
"""

from __future__ import annotations

import math
import os
import random
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
SRC_DIR = os.path.join(REPO_ROOT, "src")
#: scratch databases live inside the checkout (the benchmark may not
#: write anywhere else) and are removed after every round.
WORK_ROOT = os.path.join(REPO_ROOT, ".bench_e2e_work")


# The program under test is imported from the checkout's own ``src/``
# (run.py refuses to start when it is missing).
if SRC_DIR not in sys.path:
    sys.path.insert(0, SRC_DIR)

from repro.core.checker import ConsistencyChecker  # noqa: E402
from repro.core.constants import CHUNK_SIZE  # noqa: E402
from repro.core.filesystem import InversionFS  # noqa: E402
from repro.db.database import Database  # noqa: E402
from repro.db.page import PAGE_SIZE  # noqa: E402
from repro.testkit.oracle import ModelFS, harvest_state  # noqa: E402
from repro.testkit.workload import payload as sha_payload  # noqa: E402

#: op classes reported per layer (``op.<class>.*``).  ``commit`` covers
#: the explicit p_begin/p_commit calls of the single-client workloads.
OP_CLASSES = ("create", "read", "write", "stat", "readdir", "rename",
              "reflink", "unlink", "commit", "txn_read", "txn_write",
              "txn_cross")


class BenchError(Exception):
    """The benchmark's own preconditions failed (not a program bug)."""


@dataclass
class Stack:
    """One freshly built system under test, as the runner sees it."""

    #: every member Database (device accounting, metric deltas, clocks).
    dbs: list
    #: zero-arg teardown (closes clients, schedulers and databases).
    close: object
    #: expected visible end state, maintained by the workload.
    model: ModelFS
    #: live file systems; the union of each group must equal the model
    #: (one group of N for N shards, N groups of one for N replicas).
    fs_groups: list
    #: zero-arg recovery: reopen everything from disk after ``close``;
    #: returns (fs groups as above, zero-arg close).
    reopen: object
    #: whatever the workload needs between build/run/finish.
    parts: dict = field(default_factory=dict)

    @property
    def clocks(self) -> list:
        """One simulated clock per member; elapsed simulated time of a
        window is the slowest member's."""
        return [db.clock for db in self.dbs]


def reopen_databases(path_groups):
    """The default ``Stack.reopen``: ``Database.open`` every directory
    (recovery is the status-file read) and attach its file system."""
    def reopen():
        groups = [[InversionFS.attach(Database.open(p)) for p in group]
                  for group in path_groups]

        def close() -> None:
            for group in groups:
                for fs in group:
                    fs.db.close()
        return groups, close
    return reopen


def fresh_dir(name: str) -> str:
    path = os.path.join(WORK_ROOT, f"{name}-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def rng_for(seed: int, salt: str) -> random.Random:
    """A sub-generator of the run seed.  String seeds hash through
    SHA-512, so streams do not depend on PYTHONHASHSEED."""
    return random.Random(f"e2e:{seed}:{salt}")


def zipf_picker(rng: random.Random, n: int, s: float):
    """Zipf(s) choice over ``range(n)``; rank 0 is the hottest."""
    cum, total = [], 0.0
    for k in range(n):
        total += 1.0 / (k + 1) ** s
        cum.append(total)
    population = range(n)
    return lambda: rng.choices(population, cum_weights=cum)[0]


def percentile(sorted_vals: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    if not sorted_vals:
        return 0.0
    rank = math.ceil(q * len(sorted_vals) - 1e-9)
    return sorted_vals[min(len(sorted_vals), max(1, rank)) - 1]


def tail_quantile(n: int) -> float:
    """The tail percentile a sample of ``n`` supports: p99 from 1 000
    samples up, otherwise the highest one with ten samples beyond it."""
    if n >= 1000:
        return 0.99
    if n > 20:
        return (n - 10) / n
    return 1.0


#: CPU seconds ``_pace_loop`` takes on the reference machine state (the
#: VM this was written on, undisturbed).  Only ratios to it are used.
PACE_REF_S = 0.00025
#: CPU seconds of work between two samples of the machine's pace: the
#: loop then costs 2.5 % of the time it calibrates.
PACE_EVERY_S = 0.010


def _pace_loop() -> float:
    """CPU seconds a fixed piece of interpreter work (dict and integer
    traffic) takes right now."""
    acc = 0
    table: dict[int, int] = {}
    cpu0 = time.process_time()
    for i in range(2000):
        table[i & 255] = acc
        acc = (acc * 31 + i) & 0xFFFFFFFF
    return time.process_time() - cpu0


class Pace:
    """How fast the machine runs Python *while* the timed work runs.

    On the shared VM this was written on the same instructions take up
    to 1.6x the CPU time when neighbours load the cores, and the factor
    moves within seconds: identical ``namespace_churn`` windows cost
    2.4-3.2 s of user CPU time, and between the two halves of one
    window the speed differed by up to 13 %.  A calibration loop timed
    before and after the window does not see that (dividing by it made
    the spread worse); one timed every 10 ms of work inside it does:
    the same windows, divided by the mean of their own samples, agreed
    within 5-7 %.  So the benchmark's own driving code calls ``tick``
    wherever it regains control — after every op, in every commit hook,
    after every fixture file — and host times are reported as
    ``calibrated``: what the work would have cost on a machine that
    runs the loop in ``PACE_REF_S``."""

    def __init__(self) -> None:
        #: (``time.process_time`` when the sample began, loop seconds)
        self.samples: list[tuple[float, float]] = []
        self._due = 0.0

    def sample(self) -> None:
        now = time.process_time()
        took = _pace_loop()
        self.samples.append((now, took))
        self._due = now + took + PACE_EVERY_S

    def tick(self) -> None:
        """Sample, unless the last sample is less than 10 ms old."""
        if time.process_time() >= self._due:
            self.sample()

    def calibrated(self, cpu_s: float, since: float = float("-inf"),
                   until: float = float("inf")) -> float:
        """``cpu_s`` seconds of CPU time that include the samples begun
        in [since, until): without them, at the reference pace.  A span
        too short to hold a sample is scaled by the mean of all."""
        inside = [took for at, took in self.samples if since <= at < until]
        pace = statistics.fmean(inside or [t for _at, t in self.samples])
        return (cpu_s - sum(inside)) * PACE_REF_S / pace


class Recorder:
    """Collects one measured window: per-op samples in both currencies,
    failures, user bytes, the growth marks and the machine's pace.

    ``clock`` is the simulated clock an op is timed on (per-call
    override for multi-clock stacks)."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.op_class: list[str] = []
        self.op_sim: list[float] = []
        self.op_host: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.user_bytes_written = 0
        self.pace = Pace()
        #: (``time.process_time``, comparable units of work done so
        #: far), from the first unit's start on — ``host_growth_ratio``
        #: is the CPU time of the second half of the work over the first.
        self.marks: list[tuple[float, float]] = []
        self.extra: dict[str, float] = {}

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(why)

    def check(self, ok: bool, why: str) -> None:
        if not ok:
            self.fail(why)

    def mark(self, work_done: float) -> None:
        self.marks.append((time.process_time(), work_done))

    def op(self, cls: str, clock, fn, *args, **kwargs):
        """Run one client call as one op of class ``cls``."""
        tracer = self.tracer
        if tracer is not None:
            tracer.begin_op(len(self.op_class))
        s0 = clock.now()
        h0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # an op that raises is a failed op
            self.fail(f"{cls}: {type(exc).__name__}: {exc}")
            return None
        finally:
            h1 = time.perf_counter()
            self.add(cls, clock.now() - s0, h1 - h0)
            if tracer is not None:
                tracer.end_op()
            self.pace.tick()

    def add(self, cls: str, sim_s: float, host_s: float) -> None:
        self.attempted += 1
        self.op_class.append(cls)
        self.op_sim.append(sim_s)
        self.op_host.append(host_s)


# -- device accounting ------------------------------------------------------

def device_bytes_written(dbs) -> int:
    """Bytes the simulated drives of ``dbs`` have written so far."""
    total = 0
    for db in dbs:
        for dev in db.switch:
            disk = getattr(dev, "disk", None)
            if disk is not None:
                total += disk.stats.bytes_written
    return total


def device_bytes_allocated(dbs) -> int:
    """Bytes of device pages allocated to relations of ``dbs``."""
    pages = 0
    for db in dbs:
        for dev in db.switch:
            for rel in dev.list_relations():
                pages += dev.nblocks(rel)
    return pages * PAGE_SIZE


def metric_total(db, name: str) -> float:
    """Sum over the series of one ``db.obs.metrics`` family (0 when the
    family was never registered in this session)."""
    metrics = db.obs.metrics
    return metrics.get(name).total() if name in metrics else 0.0


# -- end-state verification ---------------------------------------------------

def verify_groups(rec: Recorder, label: str, fs_groups, model: ModelFS) -> None:
    """Compare each group's visible state with the model and run the
    storage checker over every member.  Every mismatch is a failure."""
    want = model.state()
    for g, group in enumerate(fs_groups):
        state: dict = {}
        for fs in group:
            state.update(harvest_state(fs))
            report = ConsistencyChecker(fs).check_all()
            rec.check(report.clean,
                      f"{label}[{g}]: checker found "
                      f"{len(report.corruptions)} corruptions")
        for path in sorted(set(want) | set(state)):
            if want.get(path, "<absent>") != state.get(path, "<absent>"):
                rec.fail(f"{label}[{g}]: {path} differs from the model")


def reopen_and_verify(rec: Recorder, stack: Stack) -> None:
    """Recovery check, run after ``stack.close()``: reopen from disk,
    verify the end state once more, and record what reopening cost in
    both currencies."""
    h0 = time.perf_counter()
    groups, close = stack.reopen()
    try:
        for group in groups:
            for fs in group:
                fs.stat("/")
        rec.extra["bench.reopen_host_ms"] = (time.perf_counter() - h0) * 1e3
        # The clock also jumps past recorded history on open; recovery's
        # own cost is what the drives and CPUs were charged.
        sim = 0.0
        for group in groups:
            for fs in group:
                sim += fs.db.cpu.busy_seconds
                for dev in fs.db.switch:
                    disk = getattr(dev, "disk", None)
                    if disk is not None:
                        sim += disk.stats.busy_seconds
        rec.extra["bench.reopen_sim_ms"] = sim * 1e3
        verify_groups(rec, "reopen", groups, stack.model)
    finally:
        close()


__all__ = [
    "BenchError", "CHUNK_SIZE", "ModelFS", "OP_CLASSES", "PAGE_SIZE", "Pace",
    "Recorder", "REPO_ROOT", "Stack", "WORK_ROOT", "device_bytes_allocated",
    "device_bytes_written", "fresh_dir", "metric_total", "percentile",
    "reopen_and_verify", "reopen_databases", "rng_for", "sha_payload",
    "tail_quantile", "verify_groups", "zipf_picker",
]

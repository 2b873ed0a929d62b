"""Scripted workloads for the crash-schedule explorer.

A workload is data, not code: a list of steps, each either a
transaction (:class:`TxStep` — a tuple of model ops committed or
aborted together), a vacuum pass (:class:`VacuumStep`), a
rule-driven migration (:class:`MigrateStep`), or a request that
everything committed so far be durable (:class:`FlushStep`).  Payload
bytes are derived from SHA-256, so two runs of the same workload issue
an identical sequence of durable writes — which is what makes "crash
at write #k" a meaningful, replayable coordinate.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass


def payload(seed: int, tag: str, size: int) -> bytes:
    """``size`` deterministic bytes, independent of PYTHONHASHSEED."""
    out = bytearray()
    counter = 0
    while len(out) < size:
        out += hashlib.sha256(f"{seed}:{tag}:{counter}".encode()).digest()
        counter += 1
    return bytes(out[:size])


@dataclass(frozen=True)
class TxStep:
    """One transaction: apply ``ops`` then commit (or abort)."""

    ops: tuple
    abort: bool = False


@dataclass(frozen=True)
class VacuumStep:
    """Vacuum one table: a file's chunk table (by path) or a named
    system table."""

    path: str | None = None
    table: str | None = None
    keep_history: bool = True


@dataclass(frozen=True)
class MigrateStep:
    """Declare a migration rule (if new) and run the engine."""

    rule_name: str
    qualification: str
    target: str


@dataclass(frozen=True)
class FlushStep:
    """Close the open commit group now (``flush_commits``)."""


@dataclass
class Workload:
    name: str
    steps: list
    #: extra devices registered before the run is armed, as
    #: (name, kind) pairs understood by ``Database.add_device``.
    devices: tuple = ()
    #: group-commit window (simulated seconds) applied to the database
    #: under test; 0.0 keeps the paper's one-force-per-commit behaviour.
    group_commit_window: float = 0.0
    #: per-client step lists (TxStep only).  Non-empty makes this a
    #: *concurrent* workload: ``steps`` is ignored and the explorer runs
    #: the sessions through the deterministic multi-session scheduler
    #: (:class:`~repro.testkit.concurrent.ConcurrentWorkloadRunner`).
    sessions: tuple = ()
    #: seed for the scheduler's interleaving lottery.
    sched_seed: int = 0
    #: model ops committed once during :meth:`setup`, before the run is
    #: armed for crashes — shared fixtures concurrent sessions contend
    #: on (e.g. a pre-created hot file, so no two sessions race to
    #: create the same path, which 2PL serializes into a clean
    #: FileExistsError for the loser rather than a retryable conflict).
    setup_ops: tuple = ()

    def setup(self, db, fs) -> None:
        for devname, kind in self.devices:
            db.add_device(devname, kind)
        if self.setup_ops:
            from repro.testkit.oracle import apply_fs_op
            tx = fs.begin()
            for op in self.setup_ops:
                apply_fs_op(fs, tx, op)
            fs.commit(tx)
        if self.group_commit_window:
            db.tm.group_commit_window = self.group_commit_window


def commit_workload(seed: int = 0) -> Workload:
    """Naming + data + metadata churn across five transactions,
    including an abort, an overwrite that shrinks, a rename, and a
    directory removal."""
    p = lambda tag, size: payload(seed, tag, size)  # noqa: E731
    return Workload("commit", [
        TxStep((("mkdir", "/docs"),
                ("write", "/docs/a", p("a0", 3000)),
                ("write", "/b", p("b0", 500)))),
        TxStep((("write", "/docs/a", p("a1", 1200)),   # shorter: tail survives
                ("mkdir", "/tmp"),
                ("write", "/tmp/t", p("t0", 100)))),
        TxStep((("write", "/never", p("n0", 9000)),), abort=True),
        TxStep((("unlink", "/b"),
                ("rename", "/tmp/t", "/docs/t"))),
        TxStep((("rmdir", "/tmp"),
                ("write", "/docs/d", p("d0", 17000)))),  # 3 chunks
    ])


def vacuum_workload(seed: int = 0) -> Workload:
    """Builds version history, then vacuums a chunk table (twice, once
    discarding history) and the shared naming table — the compacted
    heap+index rewrite is the riskiest crash window in the system.  On
    the way ``/w`` grows from one heap page to three, so crashes land
    between its chunkno index's birth and the commit that makes it
    visible."""
    p = lambda tag, size: payload(seed, tag, size)  # noqa: E731
    return Workload("vacuum", [
        TxStep((("write", "/v", p("v0", 6000)), ("write", "/w", p("w0", 1000)))),
        TxStep((("write", "/w", p("w1", 9000)),)),
        TxStep((("write", "/v", p("v1", 6500)),)),
        TxStep((("write", "/v", p("v2", 300)),)),
        VacuumStep(path="/v"),
        TxStep((("write", "/v", p("v3", 2000)), ("unlink", "/w"))),
        VacuumStep(table="naming"),
        VacuumStep(path="/v", keep_history=False),
    ])


def migration_workload(seed: int = 0) -> Workload:
    """Files spilling from magnetic disk to NVRAM under a size rule;
    the second engine run must move the newly-written file and skip the
    already-migrated one."""
    p = lambda tag, size: payload(seed, tag, size)  # noqa: E731
    return Workload("migration", [
        TxStep((("write", "/big", p("g0", 6000)),
                ("write", "/small", p("s0", 500)))),
        MigrateStep("spill", 'size(file) > 4000', "nvram0"),
        TxStep((("write", "/big2", p("g1", 9000)),)),
        MigrateStep("spill2", 'size(file) > 4000', "nvram0"),
        TxStep((("unlink", "/small"),
                ("write", "/big", p("g2", 100)))),
    ], devices=(("nvram0", "memdisk"),))


def write_heavy_workload(seed: int = 0) -> Workload:
    """Large multi-chunk writes that leave long dense dirty runs in the
    buffer cache, so every commit exercises the coalesced write-back
    path (sorted runs handed to ``write_pages``) at every crash point."""
    p = lambda tag, size: payload(seed, tag, size)  # noqa: E731
    return Workload("write_heavy", [
        TxStep((("write", "/data0", p("w0", 20000)),
                ("write", "/data1", p("w1", 12000)))),
        TxStep((("write", "/data2", p("w2", 24000)),)),
        TxStep((("write", "/data0", p("w3", 26000)),)),   # grow in place
        TxStep((("write", "/data3", p("w4", 5000)),), abort=True),
        TxStep((("write", "/data1", p("w5", 800)),        # shrink
                ("write", "/data4", p("w6", 16500)))),
    ])


#: Group-commit window of the crash workloads that have one.  Their
#: transactions take a simulated millisecond and a commit pays no sweep:
#: a longer window closes every group in ``close()``, past the last crash.
CRASH_GROUP_WINDOW = 0.002


def group_commit_workload(seed: int = 0) -> Workload:
    """Small committing transactions under a positive group-commit
    window: records queue, and groups close (sweep, then multi-record
    append) at a later begin or commit, at the flush, and at close.  A
    crash can lose the floating suffix (or tear mid-batch) — exactly the
    states the explorer's prefix oracle must accept and bound."""
    p = lambda tag, size: payload(seed, tag, size)  # noqa: E731
    return Workload("group_commit", [
        TxStep((("mkdir", "/g"), ("write", "/g/a", p("a0", 3000)))),
        TxStep((("write", "/g/b", p("b0", 1500)),)),
        TxStep((("write", "/g/c", p("c0", 9000)),)),
        TxStep((("write", "/g/a", p("a1", 500)),)),       # shrink
        TxStep((("unlink", "/g/b"), ("write", "/g/d", p("d0", 12000)))),
        TxStep((("write", "/g/e", p("e0", 2000)),)),
        FlushStep(),
        TxStep((("write", "/g/a", p("a2", 4000)),)),      # over a flushed one
        TxStep((("write", "/g/a", p("a3", 700)),)),       # and again, same group
        TxStep((("write", "/g/x", p("x0", 800)),), abort=True),
        TxStep((("rename", "/g/c", "/g/f"),)),
        TxStep((("unlink", "/g/e"), ("write", "/g/h", p("h0", 10000)))),
    ], group_commit_window=CRASH_GROUP_WINDOW)


def concurrent_workload(seed: int = 0) -> Workload:
    """Three interleaved client sessions under a group-commit window:
    each owns a private subtree (disjoint chunk-table locks) and all
    three overwrite one pre-created hot file (serialized by its
    exclusive lock, superseding each other in commit order, often on
    a version whose record is still queued).  Every interleaving is
    semantically valid, so the differential oracle — fed at commit
    order by the scheduler's commit hook — must match at every crash
    point."""
    p = lambda tag, size: payload(seed, tag, size)  # noqa: E731
    return Workload("concurrent", [], sessions=(
        (TxStep((("mkdir", "/c0"),
                 ("write", "/c0/a", p("0a", 3000)))),
         TxStep((("write", "/hot", p("0h", 1800)),)),
         TxStep((("write", "/c0/b", p("0b", 9000)),)),
         TxStep((("write", "/hot", p("0i", 900)),))),
        (TxStep((("mkdir", "/c1"),
                 ("write", "/c1/a", p("1a", 500)))),
         TxStep((("write", "/hot", p("1h", 2600)),)),
         TxStep((("write", "/c1/a", p("1b", 4000)),), abort=True),
         TxStep((("write", "/c1/b", p("1c", 1200)),)),
         TxStep((("write", "/c1/c", p("1d", 7000)),))),
        (TxStep((("write", "/hot", p("2h", 700)),)),
         TxStep((("mkdir", "/c2"),
                 ("write", "/c2/a", p("2a", 14000)))),
         TxStep((("write", "/hot", p("2i", 2100)),)),
         TxStep((("unlink", "/c2/a"),
                 ("write", "/c2/b", p("2b", 6000))))),
    ), setup_ops=(("write", "/hot", p("seed", 1000)),),
        group_commit_window=CRASH_GROUP_WINDOW, sched_seed=seed)


def cross_shard_workload(seed: int = 0) -> Workload:
    """The ``sharded`` stack's two subtrees, ``/a`` on shard 0 and
    ``/b`` on shard 1 (placed explicitly, so the cross-shard steps are
    cross-shard by construction, not by hash luck), driven through the
    sharded client: multi-shard atomic groups (2PC), a cross-shard file
    rename, a cross-shard *directory* rename, an abort, and plain
    single-shard transactions in between.  Every durable write — data
    forces, prepare records, the coordinator's decision force, phase-two
    commit records — is a crash boundary; at each one the recovered
    cluster must equal the oracle with the in-flight group either fully
    committed or fully absent.  A boundary where half a rename survives
    (source gone, target missing — or both present) is the violation
    this workload exists to catch."""
    p = lambda tag, size: payload(seed, tag, size)  # noqa: E731
    return Workload("cross_shard", [
        TxStep((("write", "/a/x", p("x0", 3000)),
                ("write", "/b/y", p("y0", 1500)))),        # 2 writers: 2PC
        TxStep((("rename", "/a/x", "/b/x"),)),             # cross-shard mv
        TxStep((("mkdir", "/a/d"),
                ("write", "/a/d/f", p("f0", 2500)),
                ("write", "/a/d/g", p("g0", 800)))),       # single-shard
        TxStep((("write", "/b/n", p("n0", 9000)),), abort=True),
        TxStep((("rename", "/a/d", "/b/d"),
                ("write", "/a/w", p("w0", 1200)))),        # dir mv + write
        TxStep((("unlink", "/b/x"),
                ("write", "/b/y", p("y1", 400)))),         # single-shard
    ])


ALL_WORKLOADS = {
    "commit": commit_workload,
    "vacuum": vacuum_workload,
    "migration": migration_workload,
    "write_heavy": write_heavy_workload,
    "group_commit": group_commit_workload,
    "concurrent": concurrent_workload,
}

#: sharded workloads are explored on the ``sharded`` stacks; they are
#: kept out of ALL_WORKLOADS so single-server tooling never sees them.
SHARDED_WORKLOADS = {
    "cross_shard": cross_shard_workload,
}

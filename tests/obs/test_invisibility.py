"""Observability is semantically invisible.

The contract the tentpole hangs on: registry mirrors, per-transaction
accounting, and even *enabled* tracing never advance the simulated
clock, never touch a device, and never shift a crash boundary.  These
tests pin it with the crash-schedule explorer (identical schedules,
zero violations, tracing on) and with byte-level comparison of a
workload's simulated costs with tracing on vs off.
"""

import pytest

from repro.core.filesystem import InversionFS
from repro.db.database import Database
from repro.sim.clock import SimClock
from repro.testkit import CrashExplorer, OneServer
from repro.testkit.workload import (Workload, group_commit_workload,
                                    payload, write_heavy_workload)


class TracedWorkload(Workload):
    """The same workload, with tracing switched on for every run the
    explorer builds (profiling pass and each crash point)."""

    def setup(self, db, fs) -> None:
        super().setup(db, fs)
        db.obs.tracer.enable()


def traced(workload: Workload) -> TracedWorkload:
    return TracedWorkload(**vars(workload))


@pytest.mark.parametrize("factory", [write_heavy_workload,
                                     group_commit_workload],
                         ids=["write_heavy", "group_commit"])
def test_explorer_schedule_identical_with_tracing(tmp_path, factory):
    plain = CrashExplorer(str(tmp_path / "plain"), factory(),
                          OneServer).explore(max_points=15)
    assert plain.violations == [], "\n".join(
        f"point {v.point}: {v.detail}" for v in plain.violations)

    with_tracing = CrashExplorer(str(tmp_path / "traced"), traced(factory()),
                                 OneServer).explore(max_points=15)
    assert with_tracing.violations == [], "\n".join(
        f"point {v.point}: {v.detail}" for v in with_tracing.violations)

    # Same durable-write trace → same crash points, point for point.
    assert with_tracing.total_writes == plain.total_writes
    assert with_tracing.points_tested == plain.points_tested


def _run_workload(workdir, trace: bool):
    """A small mixed workload; returns every simulated-cost observable:
    final sim time and the root device's full disk-stat vector."""
    clock = SimClock()
    db = Database.create(str(workdir), clock=clock)
    fs = InversionFS.mkfs(db)
    if trace:
        db.obs.tracer.enable()
    tx = fs.begin()
    fs.mkdir(tx, "/d")
    fs.write_file(tx, "/d/a", payload(0, "a", 60_000))
    fs.commit(tx)
    tx = fs.begin()
    fs.write_file(tx, "/d/b", payload(0, "b", 9_000))
    fs.commit(tx)
    db.buffers.invalidate_all()
    fs.read_file("/d/a")
    # Exercise the registry while the run is live — collection must
    # not perturb anything either.
    snapshot = db.obs.metrics.collect()
    assert snapshot["buffer.hits"] != {}
    root = db.switch.get(db.catalog.root_device)
    stats = vars(root.disk.stats).copy()
    spans = db.obs.tracer.spans_emitted
    now = clock.now()
    db.close()
    return now, stats, spans


def test_costs_byte_identical_with_tracing_enabled(tmp_path):
    plain_now, plain_stats, plain_spans = _run_workload(
        tmp_path / "plain", trace=False)
    traced_now, traced_stats, traced_spans = _run_workload(
        tmp_path / "traced", trace=True)
    assert plain_spans == 0
    assert traced_spans > 0                 # tracing actually ran
    assert traced_now == plain_now          # == , not approx: bit-identical
    assert traced_stats == plain_stats


def test_registry_reset_does_not_disturb_mirrors(tmp_path):
    """An explicit registry reset mid-run zeroes pushed series only;
    the mirrored simulation counters and costs are untouched."""
    clock = SimClock()
    db = Database.create(str(tmp_path / "d"), clock=clock)
    fs = InversionFS.mkfs(db)
    tx = fs.begin()
    fs.write_file(tx, "/f", payload(0, "f", 30_000))
    fs.commit(tx)
    before = db.obs.metrics.value("txn.commits_recorded")
    db.obs.metrics.reset()
    assert db.obs.metrics.value("txn.commits_recorded") == before
    assert db.obs.metrics.get("device.writes").total() == 0  # pushed: cleared
    db.close()


# -- tracing under the cluster scheduler --------------------------------------

def _shard_programs(twophase: bool):
    """Four sessions, two per shard, two overwrite transactions each;
    with ``twophase`` every transaction also writes a file on the other
    shard, so it commits through 2PC."""
    from repro.core.constants import O_RDWR
    from repro.sched.scheduler import Call, Ref, Txn
    programs = []
    for c in range(4):
        program, base = [], 0
        for t in range(2):
            paths = [f"/{'ab'[c % 2]}/f{c}"]
            if twophase:
                paths.append(f"/{'ab'[(c + 1) % 2]}/g{c}")
            items = []
            for path in paths:
                items += [Call("p_open", path, O_RDWR),
                          Call("p_write", Ref(base), payload(c, f"{path}{t}",
                                                             3000)),
                          Call("p_close", Ref(base))]
                base += 3
            program.append(Txn(items))
        programs.append(program)
    return programs


def _run_cluster(workdir, twophase: bool, trace: bool):
    from repro.shard import ShardedCluster, ShardedScheduler
    cluster = ShardedCluster.create(str(workdir), 2, policy="subtree",
                                    assignments={"a": 0, "b": 1})
    boot = cluster.client()
    boot.p_mkdir("/a")
    boot.p_mkdir("/b")
    for c in range(4):
        for path in (f"/{'ab'[c % 2]}/f{c}", f"/{'ab'[(c + 1) % 2]}/g{c}"):
            fd = boot.p_creat(path)
            boot.p_write(fd, payload(c, path, 3000))
            boot.p_close(fd)
    boot.close()
    if trace:
        for db in cluster.dbs:
            db.obs.tracer.enable()
    with ShardedScheduler(cluster, seed=3) as sched:
        for c, program in enumerate(_shard_programs(twophase)):
            sched.add_session(program, name=f"c{c}", home=c % 2)
        sched.run()
        trace_hash = sched.trace_hash()
    clocks = [db.clock.now() for db in cluster.dbs]
    spans = [db.obs.tracer.spans_emitted for db in cluster.dbs]
    slice_spans = [sum(e["name"] == "sched.slice"
                       for e in db.obs.tracer.events()) for db in cluster.dbs]
    cluster.close()
    return trace_hash, clocks, spans, slice_spans


@pytest.mark.parametrize("twophase", [False, True],
                         ids=["disjoint", "twophase"])
def test_sharded_scheduler_identical_with_tracing(tmp_path, twophase):
    """The cluster scheduler swaps span stacks once per shard, so
    tracing every shard changes neither the interleaving nor any
    shard's clock — and each shard's tracer sees every slice."""
    plain_hash, plain_clocks, plain_spans, _ = _run_cluster(
        tmp_path / "plain", twophase, trace=False)
    traced_hash, traced_clocks, traced_spans, slice_spans = _run_cluster(
        tmp_path / "traced", twophase, trace=True)
    assert plain_spans == [0, 0]
    assert all(n > 0 for n in traced_spans)     # tracing actually ran
    assert slice_spans[0] == slice_spans[1] > 0
    assert traced_hash == plain_hash
    assert traced_clocks == plain_clocks        # == , not approx

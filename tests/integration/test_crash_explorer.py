"""Crash-schedule exploration: crash at every durable-write boundary,
recover, and hold the result to the differential oracle plus the
storage-invariant checker.

The default (CI) runs are bounded but still cover well over 100
distinct crash points across the commit, vacuum, and migration
workloads.  ``-m torture`` opts into full enumeration of every
boundary in both clean and torn-append modes.
"""

from functools import partial

import pytest

from repro.core.constants import CHUNK_SIZE
from repro.core.filesystem import InversionFS
from repro.db.transactions import TransactionManager
from repro.testkit import CrashExplorer, OneServer
from repro.testkit.explorer import ShardedServers, select_points
from repro.testkit.failover import PrimaryWithReplicas
from repro.testkit.workload import (ALL_WORKLOADS, TxStep, Workload,
                                    commit_workload, cross_shard_workload,
                                    group_commit_workload, payload,
                                    vacuum_workload)

#: per-workload bound for the CI run: 3 workloads × 40 + the torn run
#: below ≈ 150 crash points, each a full build/crash/recover/verify cycle.
CI_POINTS = 40


def test_select_points_sampling():
    assert select_points(10, None) == list(range(10))
    assert select_points(3, 10) == [0, 1, 2]
    assert select_points(0, 5) == []
    assert select_points(5, 1) == [0]
    pts = select_points(100, 5)
    assert len(pts) == 5
    assert pts[0] == 0 and pts[-1] == 99  # endpoints always included
    assert pts == sorted(pts)


@pytest.mark.parametrize("name", sorted(ALL_WORKLOADS))
def test_bounded_exploration_finds_no_violations(tmp_path, name):
    explorer = CrashExplorer(str(tmp_path), ALL_WORKLOADS[name](), OneServer)
    report = explorer.explore(max_points=CI_POINTS)
    assert report.total_writes >= CI_POINTS, (
        f"workload {name!r} got shorter; not enough crash points to sample")
    assert len(report.points_tested) == CI_POINTS
    assert report.violations == [], "\n".join(
        f"point {v.point}: {v.detail}" for v in report.violations)


def test_recovery_reports_are_collected(tmp_path):
    report = CrashExplorer(str(tmp_path), commit_workload(),
                           OneServer).explore(max_points=10)
    assert report.violations == []
    crashed = [r for r in report.results if not r.completed]
    assert crashed, "no crash point actually fired"
    for result in crashed:
        assert result.recovery["presumed_aborted"] >= 0
        assert result.recovery["torn_tail"] == 0  # clean mode never tears


def test_torn_append_exploration_allows_both_outcomes(tmp_path):
    """With torn status appends the in-flight transaction may land on
    either side of the crash; anything else is still a violation."""
    explorer = CrashExplorer(str(tmp_path), commit_workload(), OneServer,
                             torn_append=True)
    report = explorer.explore(max_points=CI_POINTS)
    assert report.violations == [], "\n".join(
        f"point {v.point}: {v.detail}" for v in report.violations)


def test_explorer_detects_unsafe_vacuum_swap(tmp_path, monkeypatch):
    """Teeth check: disable rename-journal replay and the explorer must
    catch the stale-index corruption a crash inside vacuum's heap+index
    swap window leaves behind.  Guards against the explorer silently
    going blind (e.g. relation renames no longer counted as crash
    boundaries)."""
    import repro.db.vacuum as vacuum_mod
    monkeypatch.setattr(vacuum_mod, "replay_rename_journal",
                        lambda switch, root: 0)
    report = CrashExplorer(str(tmp_path), vacuum_workload(),
                           OneServer).explore()
    assert report.violations, (
        "sabotaged recovery went undetected — the explorer has no teeth")


@pytest.mark.parametrize("topology, workload", [
    (OneServer, group_commit_workload),
    (ShardedServers, cross_shard_workload),
    (partial(PrimaryWithReplicas, nreplicas=1), commit_workload),
], ids=["one_server", "sharded", "failover"])
def test_explorer_detects_a_status_line_ahead_of_its_sweep(
        tmp_path, monkeypatch, topology, workload):
    """Teeth check for the group close: append the group's status line
    first and sweep afterwards, and every crash in between recovers
    commits whose pages never reached the medium.  On all three
    topologies, with a window (groups close at deadlines and flushes)
    and without (each commit closes its own)."""
    close_group = TransactionManager._close_group

    def force_then_sweep(self, last=None, after_force=None):
        sweep, self.sweep = self.sweep, None
        try:
            forced = close_group(self, last, after_force)
        finally:
            self.sweep = sweep
        if forced:
            sweep()
        return forced

    monkeypatch.setattr(TransactionManager, "_close_group", force_then_sweep)
    report = CrashExplorer(str(tmp_path), workload(), topology).explore()
    assert report.violations, (
        "a force ahead of the sweep went undetected — the explorer "
        "does not cross the group close")


@pytest.mark.torture
@pytest.mark.parametrize("torn", [False, True], ids=["clean", "torn"])
@pytest.mark.parametrize("name", sorted(ALL_WORKLOADS))
def test_full_enumeration(tmp_path, name, torn):
    """Every single write boundary of every workload, both append modes."""
    explorer = CrashExplorer(str(tmp_path), ALL_WORKLOADS[name](), OneServer,
                             torn_append=torn)
    report = explorer.explore()
    assert len(report.points_tested) == report.total_writes
    assert report.violations == [], "\n".join(
        f"point {v.point}: {v.detail}" for v in report.violations)


def _aligned_reflinks() -> Workload:
    """Chunk-aligned reflinks and no vacuum: every cloned chunk is a
    pointer row, the second clone copies the first one's pointers, and
    nothing ever tests whether the pinned versions are protected."""
    two = payload(0, "al", 2 * CHUNK_SIZE)
    return Workload("aligned_reflinks", [
        TxStep((("write", "/al", two),)),
        TxStep((("reflink", "/al", "/c1"),)),
        TxStep((("write", "/al", payload(0, "al2", 900)),)),
        TxStep((("reflink", "/c1", "/c2"),)),
    ])


def test_explorer_detects_an_unregistered_clone(tmp_path, monkeypatch):
    """Teeth check for reference integrity: a reflink that skips the
    ``vfsref`` registration reads back the right bytes at every crash
    point — only the checker knows vacuum would not protect it."""
    report = CrashExplorer(str(tmp_path / "intact"), _aligned_reflinks(),
                           OneServer).explore()
    assert report.violations == [], "\n".join(
        f"point {v.point}: {v.detail}" for v in report.violations)
    monkeypatch.setattr(InversionFS, "_register_clone",
                        lambda self, tx, *claim: None)
    report = CrashExplorer(str(tmp_path / "sabotaged"), _aligned_reflinks(),
                           OneServer).explore()
    assert any("unregistered-reference" in v.detail
               for v in report.violations), (
        "an unregistered clone went undetected — the judge does not "
        "resolve references")

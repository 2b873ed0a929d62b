"""Crash-schedule exploration: crash at every durable-write boundary,
recover, and hold the result to the differential oracle plus the
storage-invariant checker.

The default (CI) runs are bounded but still cover well over 100
distinct crash points across the commit, vacuum, and migration
workloads.  ``-m torture`` opts into full enumeration of every
boundary in both clean and torn-append modes.
"""

import pytest

from repro.testkit import CrashExplorer, OneServer
from repro.testkit.explorer import select_points
from repro.testkit.workload import ALL_WORKLOADS, commit_workload, vacuum_workload

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

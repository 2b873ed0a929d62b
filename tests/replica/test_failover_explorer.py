"""Failover crash exploration: kill the primary at sampled write
boundaries, promote the most caught-up replica, and require (a) the
promoted state to be an oracle-allowed state, (b) zero lost committed
transactions (promoted state == local recovery of the dead primary's
media), (c) surviving followers to converge from their cursors, and
(d) clean storage invariants.  ``-m torture`` opts into the full sweep
of every boundary."""

from functools import partial

import pytest

from repro.db.vacuum import RENAME_JOURNAL_TAG
from repro.testkit.explorer import (CrashExplorer, CrashPointResult,
                                    ExplorationReport)
from repro.testkit.workload import commit_workload, vacuum_workload

#: sampled boundaries per CI run — each is a full build/seed/crash/
#: promote/verify cycle with two replicas.
CI_POINTS = 6


def _assert_clean(report):
    assert report.violations == [], "\n".join(
        f"point {v.point}: {v.detail}" for v in report.violations)


def test_commit_failover_no_lost_transactions(tmp_path):
    explorer = CrashExplorer(str(tmp_path), commit_workload(),
                             "replica", replicas=2)
    report = explorer.explore(max_points=CI_POINTS)
    assert report.total_writes >= CI_POINTS
    _assert_clean(report)
    crashed = [r for r in report.results if not r.completed]
    assert crashed, "no crash point actually fired"
    for result in crashed:
        assert result.extra["matches_local_recovery"]
        assert result.extra["followers_converged"]


def test_torn_append_failover(tmp_path):
    """Torn status tails ship too (the feed is exactly the media), so
    the in-flight transaction may land on either side — and the replica
    must agree with local recovery about which side it landed on."""
    explorer = CrashExplorer(str(tmp_path), commit_workload(),
                             "replica", replicas=2,
                             torn_append=True)
    _assert_clean(explorer.explore(max_points=4))


def test_vacuum_failover_replays_rename_journal(tmp_path):
    """Crashes inside vacuum's heap+index swap window: promotion must
    finish the shipped rename journal exactly like local recovery."""
    explorer = CrashExplorer(str(tmp_path), vacuum_workload(),
                             "replica", replicas=1)
    _assert_clean(explorer.explore(max_points=4))


def test_swap_window_failover_leaves_promotable_followers(tmp_path):
    """Every boundary of every heap+index swap, from the write that
    arms the rename journal to the one that clears it: the half of the
    swap that promotion completes must reach the followers through the
    new feed — the same relations, the same (cleared) journal — or a
    later promotion of a follower replays a stale swap over newer
    data.  The windows are found by what the workload writes there."""
    explorer = CrashExplorer(str(tmp_path), vacuum_workload(),
                             "replica", replicas=2)
    explorer.count_write_boundaries()
    journal = [i for i, (_kind, _dev, detail) in enumerate(explorer.write_log)
               if detail == f"meta:{RENAME_JOURNAL_TAG}"]
    assert len(journal) >= 2 and len(journal) % 2 == 0
    points = [point for arm, clear in zip(journal[::2], journal[1::2])
              for point in range(arm, clear + 1)]
    assert any(explorer.write_log[p][0] == "rename" for p in points)
    for point in points:
        result = explorer.run_crash_point(point)
        assert not result.completed
        assert result.ok, f"point {point}: {result.detail}"


def test_a_false_topology_verdict_fails_the_point():
    verdict = partial(CrashPointResult, 0, completed=False, state_ok=True,
                      checker_clean=True, ambiguous=False)
    assert verdict(extra={"followers_converged": True,
                          "drained_entries": 0}).ok
    assert not verdict(extra={"followers_converged": False}).ok


def test_summary_line_carries_the_topology_labels():
    assert ExplorationReport("commit", 63, {"replicas": 2}).summary() == (
        "workload=commit replicas=2 boundaries=63 tested=0 violations=0")
    assert ExplorationReport("commit", 63).summary() == (
        "workload=commit boundaries=63 tested=0 violations=0")


@pytest.mark.torture
@pytest.mark.parametrize("torn", [False, True], ids=["clean", "torn"])
def test_exhaustive_commit_failover(tmp_path, torn):
    explorer = CrashExplorer(str(tmp_path), commit_workload(),
                             "replica", replicas=2,
                             torn_append=torn)
    _assert_clean(explorer.explore())


@pytest.mark.torture
def test_exhaustive_vacuum_failover(tmp_path):
    explorer = CrashExplorer(str(tmp_path), vacuum_workload(),
                             "replica", replicas=2)
    _assert_clean(explorer.explore())

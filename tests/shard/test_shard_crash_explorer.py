"""Crash-exploring the 2PC protocol end to end (satellite 1).

The bounded sweep runs in the default suite; the full enumeration of
every write boundary — every data force, prepare record, decision
force and phase-two commit record on both shards, with torn tails —
is ``-m torture``."""

import pytest

from repro.testkit.explorer import ClientWorkloadRunner, CrashExplorer
from repro.testkit.stacks import open_stack
from repro.testkit.workload import SHARDED_WORKLOADS, cross_shard_workload


def test_cross_shard_workload_registered():
    assert "cross_shard" in SHARDED_WORKLOADS
    wl = SHARDED_WORKLOADS["cross_shard"]()
    # every path lies in the sharded stack's two placed subtrees.
    paths = {path for step in wl.steps for op in step.ops
             for path in op[1:] if isinstance(path, str)}
    assert {path.split("/")[1] for path in paths} == {"a", "b"}


def test_profile_pass_matches_oracle(tmp_path):
    explorer = CrashExplorer(str(tmp_path), cross_shard_workload(),
                             "sharded")
    total = explorer.count_write_boundaries()
    # data forces + 4 prepares + 2 decisions + phase-2 records + ...
    assert total > 40


def test_bounded_cross_shard_sweep_no_violations(tmp_path):
    explorer = CrashExplorer(str(tmp_path), cross_shard_workload(),
                             "sharded", torn_append=True, seed=3)
    report = explorer.explore(max_points=14)
    assert report.total_writes > 0
    assert len(report.points_tested) > 0
    assert report.violations == [], \
        "; ".join(f"@{r.point}: {r.detail}" for r in report.violations)


@pytest.mark.torture
def test_full_cross_shard_sweep_every_boundary(tmp_path):
    """Every durable write of the cross-shard workload is a crash
    point; zero violations, and recovery must have exercised *both*
    in-doubt verdicts (some crashes land between prepare and decision,
    some between decision and phase two)."""
    explorer = CrashExplorer(str(tmp_path), cross_shard_workload(),
                             "sharded", torn_append=True, seed=3)
    report = explorer.explore()
    assert report.total_writes > 80
    assert len(report.points_tested) == report.total_writes
    assert report.violations == [], \
        "; ".join(f"@{r.point}: {r.detail}" for r in report.violations)
    in_doubt_commits = sum(r.recovery.get("in_doubt_commits", 0)
                           for r in report.results if r.recovery)
    in_doubt_aborts = sum(r.recovery.get("in_doubt_aborts", 0)
                          for r in report.results if r.recovery)
    assert in_doubt_commits > 0, "no crash landed after a decision force"
    assert in_doubt_aborts > 0, "no crash landed inside the prepare window"
    ambiguous = sum(1 for r in report.results if r.ambiguous)
    assert ambiguous > 0, "no crash point recovered to the committed side"


@pytest.mark.torture
def test_full_cross_shard_sweep_clean_appends(tmp_path):
    """The same enumeration without torn appends (whole-write crashes
    only) — the protocol must hold in both failure models."""
    explorer = CrashExplorer(str(tmp_path), cross_shard_workload(),
                             "sharded", torn_append=False, seed=0)
    report = explorer.explore()
    assert report.violations == [], \
        "; ".join(f"@{r.point}: {r.detail}" for r in report.violations)


def test_runner_without_crash_matches_model(tmp_path):
    """The sharded runner's oracle bookkeeping is itself correct: an
    unarmed full run ends in exactly the modelled state."""
    stack = open_stack("sharded", str(tmp_path / "c"))
    runner = ClientWorkloadRunner(stack, cross_shard_workload())
    runner.run()
    assert stack.ground_truth() == runner.completed().state()
    stack.close()

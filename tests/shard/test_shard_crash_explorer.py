"""Crash-exploring the 2PC protocol end to end (satellite 1).

The bounded sweep runs in the default suite; the full enumeration of
every write boundary — every data force, prepare record, decision
force and phase-two commit record on both shards, with torn tails —
is ``-m torture``."""

import pytest

from repro.testkit.explorer import (CrashExplorer, ShardedServers,
                                    ShardedWorkloadRunner, harvest_cluster)
from repro.testkit.workload import SHARDED_WORKLOADS, cross_shard_workload


def test_sharded_explorer_rejects_unsharded_workloads(tmp_path):
    from repro.testkit.workload import commit_workload
    explorer = CrashExplorer(str(tmp_path), commit_workload(), ShardedServers)
    with pytest.raises(ValueError, match="not sharded"):
        explorer.count_write_boundaries()


def test_cross_shard_workload_registered():
    assert "cross_shard" in SHARDED_WORKLOADS
    wl = SHARDED_WORKLOADS["cross_shard"]()
    assert wl.shards == 2


def test_profile_pass_matches_oracle(tmp_path):
    explorer = CrashExplorer(str(tmp_path), cross_shard_workload(),
                             ShardedServers)
    total = explorer.count_write_boundaries()
    # data forces + 4 prepares + 2 decisions + phase-2 records + ...
    assert total > 40


def test_bounded_cross_shard_sweep_no_violations(tmp_path):
    explorer = CrashExplorer(str(tmp_path), cross_shard_workload(),
                             ShardedServers, torn_append=True, seed=3)
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
                             ShardedServers, torn_append=True, seed=3)
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
                             ShardedServers, torn_append=False, seed=0)
    report = explorer.explore()
    assert report.violations == [], \
        "; ".join(f"@{r.point}: {r.detail}" for r in report.violations)


def test_runner_without_crash_matches_model(tmp_path):
    """The sharded runner's oracle bookkeeping is itself correct: an
    unarmed full run ends in exactly the modelled state."""
    from repro.shard import ShardedCluster
    wl = cross_shard_workload()
    cluster = ShardedCluster.create(str(tmp_path / "c"), wl.shards,
                                    policy="subtree",
                                    assignments=dict(wl.assignments))
    client = cluster.client()
    from repro.testkit.oracle import apply_client_op
    for op in wl.setup_ops:
        apply_client_op(client, op)
    client.close()
    runner = ShardedWorkloadRunner(cluster, wl)
    runner.run()
    assert harvest_cluster(cluster) == runner.completed_state()
    cluster.close()

"""Crash exploration with client caches enabled.

Lease bookkeeping is pure in-memory dict work — no device I/O, no
simulated-clock advance — so enabling the cache must leave the durable
write sequence untouched: the same number of write boundaries, and
zero oracle violations at every crash point.  The full enumerations
ride under ``-m torture`` like their uncached counterparts.
"""

from __future__ import annotations

import pytest

from repro.testkit.explorer import CrashExplorer
from repro.testkit.workload import concurrent_workload, cross_shard_workload


def test_cached_run_has_identical_write_boundaries(tmp_path):
    plain = CrashExplorer(str(tmp_path / "plain"), concurrent_workload(),
                          "local")
    cached = CrashExplorer(str(tmp_path / "cached"), concurrent_workload(),
                           "scheduled")
    assert plain.count_write_boundaries() == cached.count_write_boundaries()


def test_cached_crash_points_zero_violations(tmp_path):
    explorer = CrashExplorer(str(tmp_path), concurrent_workload(),
                             "scheduled")
    report = explorer.explore(max_points=5)
    assert not report.violations, report.summary()
    assert len(report.points_tested) > 0


def test_sharded_cached_run_has_identical_write_boundaries(tmp_path):
    plain = CrashExplorer(str(tmp_path / "plain"), cross_shard_workload(),
                          "sharded")
    cached = CrashExplorer(str(tmp_path / "cached"), cross_shard_workload(),
                           "sharded_cached")
    assert plain.count_write_boundaries() == cached.count_write_boundaries()


def test_sharded_cached_sweep_no_violations(tmp_path):
    explorer = CrashExplorer(str(tmp_path), cross_shard_workload(),
                             "sharded_cached", torn_append=True, seed=3)
    report = explorer.explore(max_points=10)
    assert report.violations == [], \
        "; ".join(f"@{r.point}: {r.detail}" for r in report.violations)
    assert len(report.points_tested) > 0


@pytest.mark.torture
def test_full_cached_concurrent_sweep(tmp_path):
    explorer = CrashExplorer(str(tmp_path), concurrent_workload(),
                             "scheduled", torn_append=True)
    report = explorer.explore()
    assert not report.violations, report.summary()
    assert len(report.points_tested) == report.total_writes


@pytest.mark.torture
def test_full_cached_cross_shard_sweep(tmp_path):
    explorer = CrashExplorer(str(tmp_path), cross_shard_workload(),
                             "sharded_cached", torn_append=True, seed=3)
    report = explorer.explore()
    assert report.violations == [], \
        "; ".join(f"@{r.point}: {r.detail}" for r in report.violations)
    assert len(report.points_tested) == report.total_writes

"""Crash consistency under concurrency.

The concurrent workload drives three interleaved sessions through the
deterministic scheduler while the fault layer crashes the device at
sampled write boundaries.  Because 2PL makes the committed transactions
serializable in commit order, the differential oracle — fed by the
scheduler's commit hook — must hold at every crash point, exactly as it
does for the single-session workloads.
"""

from __future__ import annotations

import pytest

from repro.testkit.explorer import CrashExplorer, OneServer
from repro.testkit.workload import concurrent_workload


def test_profiling_pass_matches_oracle(tmp_path):
    """A crash-free concurrent run ends in exactly the state the
    commit-order oracle predicts."""
    explorer = CrashExplorer(str(tmp_path), concurrent_workload(), OneServer)
    boundaries = explorer.count_write_boundaries()
    assert boundaries > 20


@pytest.mark.parametrize("torn", [False, True])
def test_concurrent_crash_points_zero_violations(tmp_path, torn):
    explorer = CrashExplorer(str(tmp_path), concurrent_workload(), OneServer,
                             torn_append=torn)
    report = explorer.explore(max_points=5)
    assert not report.violations, report.summary()
    assert len(report.points_tested) > 0


def test_same_sched_seed_same_boundaries(tmp_path):
    """Determinism end-to-end: the same workload seed produces the
    same number of durable write boundaries (the crash coordinates are
    replayable)."""
    first = CrashExplorer(str(tmp_path / "a"), concurrent_workload(),
                          OneServer)
    second = CrashExplorer(str(tmp_path / "b"), concurrent_workload(),
                           OneServer)
    assert first.count_write_boundaries() == second.count_write_boundaries()

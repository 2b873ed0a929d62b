"""The VFS scenario workloads under the crash-schedule explorer: every
sampled crash point recovers to a state the differential oracle
accepts, the build tree is never half-published, and the structural
ops never strand a shared extent (the explorer's checker resolves
every committed reference at every point).  ``-m torture`` opts into
the full boundary enumeration in clean and torn-append modes."""

from __future__ import annotations

import pytest

from repro.core.checker import ConsistencyChecker
from repro.core.filesystem import InversionFS
from repro.core.library import InversionClient
from repro.db.database import Database
from repro.testkit.explorer import CrashExplorer
from repro.vfs import VFS
from repro.vfs.scenarios import (VFS_WORKLOADS, build_and_publish,
                                 populate_flat_dir, scan_flat_dir)

#: bounded per-workload sample for CI; torture enumerates everything.
CI_POINTS = 8


@pytest.mark.parametrize("name", sorted(VFS_WORKLOADS))
def test_bounded_exploration_zero_violations(tmp_path, name):
    explorer = CrashExplorer(str(tmp_path), VFS_WORKLOADS[name](), "local")
    report = explorer.explore(max_points=CI_POINTS)
    assert report.total_writes >= CI_POINTS, (
        f"workload {name!r} too short to sample {CI_POINTS} crash points")
    assert report.violations == [], "\n".join(
        f"point {v.point}: {v.detail}" for v in report.violations)


def test_reflink_churn_torn_append_bounded(tmp_path):
    """The structural-op workload with torn status appends — the
    in-flight group may land on either side of the crash, nothing
    in between."""
    explorer = CrashExplorer(str(tmp_path),
                             VFS_WORKLOADS["vfs_reflink_churn"](), "local",
                             torn_append=True)
    report = explorer.explore(max_points=CI_POINTS)
    assert report.violations == [], "\n".join(
        f"point {v.point}: {v.detail}" for v in report.violations)


def test_drivers_roundtrip(tmp_path):
    """The application-shaped drivers: the paged flat-dir scan sees
    exactly the files populated, and the build publishes atomically
    with the staging directory gone."""
    db = Database.create(str(tmp_path / "db"))
    try:
        fs = InversionFS.mkfs(db)
        vfs = VFS(InversionClient(fs))
        populate_flat_dir(vfs, 37, per_tx=10, size=50)
        assert scan_flat_dir(vfs, page_size=8) == 37
        build_and_publish(vfs, modules=2, files_per=2)
        assert not vfs.exists("/build.tmp")
        assert vfs.readdir("/build") == ["m0", "m1", "prog"]
        assert vfs.readdir("/build/m1") == ["o0.o", "o1.o"]
        ConsistencyChecker(fs).raise_if_corrupt()
    finally:
        db.close()


@pytest.mark.torture
@pytest.mark.parametrize("torn", [False, True], ids=["clean", "torn"])
@pytest.mark.parametrize("name", sorted(VFS_WORKLOADS))
def test_full_enumeration(tmp_path, name, torn):
    explorer = CrashExplorer(str(tmp_path), VFS_WORKLOADS[name](), "local",
                             torn_append=torn)
    report = explorer.explore()
    assert report.violations == [], "\n".join(
        f"point {v.point}: {v.detail}" for v in report.violations)

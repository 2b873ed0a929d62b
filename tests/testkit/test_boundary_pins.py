"""Crash-boundary counts, pinned.

A workload's durable-write count is the coordinate system of every
crash sweep: "crash at write #k" means the same thing from one commit
to the next only while the count holds.  These pins call nothing but
``count_write_boundaries()`` (the profiling pass, which also checks the
crash-free run against the oracle), so a refactor of the explorer, the
runners or anything beneath them that moves a boundary fails here, in
tier-1, rather than in a ``-m torture`` sweep nobody ran.
"""

from __future__ import annotations

import pytest

from repro.db.transactions import STATUS_TAG
from repro.testkit.explorer import CrashExplorer
from repro.testkit.workload import (commit_workload, concurrent_workload,
                                    cross_shard_workload,
                                    group_commit_workload, migration_workload,
                                    vacuum_workload, write_heavy_workload)

#: Since a file that fits a page has no chunkno index (PR 27), a commit
#: that writes one forces no index pages: commit 63 → 51, vacuum 94 → 90
#: (100 with the step that grows ``/w`` past a page), migration 65 → 57,
#: write_heavy 71 → 68, group_commit 72 → 53, concurrent 87 → 68,
#: cross-shard 113 → 83.
SINGLE_SERVER = {
    "commit": (commit_workload, 51),
    "vacuum": (vacuum_workload, 100),
    "migration": (migration_workload, 57),
    "write_heavy": (write_heavy_workload, 68),
    # The two counts that depend on simulated time: which commits share
    # a group — one sweep and one force — is decided by a 2 ms window's
    # deadline.  PR 22 moved the sweep from the commit to the group
    # close; both workloads were lengthened so the sweeps inside the
    # armed run stay at least as many boundaries as before (67, 71).
    # Since PR 27 a small file's commit is also shorter, so more of
    # them share a group.  Since an expired group waits for the drive
    # to write the last one, more commits share a group again:
    # group_commit 53 → 52, concurrent 68 → 42, lengthened by an abort
    # and a commit in two of its sessions to 76.  The runners now end
    # with the final group's flush, which ``close()`` used to write
    # outside the armed run: its sweep and force are crash points too,
    # group_commit 52 → 64, concurrent 76 → 88.
    "group_commit": (group_commit_workload, 64),
    "concurrent": (concurrent_workload, 88),
}
#: Status appends inside the armed run, the final group's included
#: (group_commit 4 → 5, concurrent 7 → 8 when the runners took over
#: that flush from ``close()``): a change that pushes commits into
#: fewer groups lowers these counts even where the boundary count
#: holds.
ARMED_STATUS_APPENDS = {"group_commit": 5, "concurrent": 8}
#: ``commit`` through each single-server client stack: the client
#: changes how the requests travel, not what the server's committed
#: transactions write, so ``remote`` and ``cached`` force ``local``'s
#: pages.  A batching client's writes to the file a transaction just
#: created ride that file's close; in the aborted step the abort drops
#: them with it, so the server never writes ``/never``'s chunk pages
#: or builds its chunkno index: 6 writes fewer.
CLIENT_STACKS = {"remote": 51, "cached": 51, "batched": 45,
                 "cached_batched": 45}


@pytest.mark.parametrize("torn", [False, True], ids=["clean", "torn"])
@pytest.mark.parametrize("name", SINGLE_SERVER)
def test_single_server_boundaries(tmp_path, name, torn):
    factory, expected = SINGLE_SERVER[name]
    explorer = CrashExplorer(str(tmp_path), factory(), "local",
                             torn_append=torn)
    assert explorer.count_write_boundaries() == expected


@pytest.mark.parametrize("name", ARMED_STATUS_APPENDS)
def test_status_appends_inside_the_armed_run(tmp_path, name):
    factory, _ = SINGLE_SERVER[name]
    explorer = CrashExplorer(str(tmp_path), factory(), "local")
    explorer.count_write_boundaries()
    appends = [entry for entry in explorer.write_log
               if entry[0] == "append" and entry[2] == STATUS_TAG]
    assert len(appends) == ARMED_STATUS_APPENDS[name]


@pytest.mark.parametrize("kind", CLIENT_STACKS)
def test_client_stack_boundaries(tmp_path, kind):
    explorer = CrashExplorer(str(tmp_path), commit_workload(), kind)
    assert explorer.count_write_boundaries() == CLIENT_STACKS[kind]


def test_cross_shard_boundaries(tmp_path):
    explorer = CrashExplorer(str(tmp_path), cross_shard_workload(),
                             "sharded")
    assert explorer.count_write_boundaries() == 83


@pytest.mark.parametrize("nreplicas", [1, 2])
@pytest.mark.parametrize("factory, expected",
                         [(commit_workload, 51), (vacuum_workload, 100)],
                         ids=["commit", "vacuum"])
def test_failover_boundaries(tmp_path, factory, expected, nreplicas):
    """Replicas only read the feed: the primary's write count is the
    single-server count, whatever the replica count."""
    explorer = CrashExplorer(str(tmp_path), factory(), "replica",
                             replicas=nreplicas)
    assert explorer.count_write_boundaries() == expected

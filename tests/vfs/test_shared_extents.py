"""The shared-extents invariant as the structural ops keep it: every
stored reference resolves and is registered after churn and a
history-discarding vacuum, and an aborted clone leaves nothing the
checker minds.  (What the checker *detects* is
``tests/core/test_checker.py::test_planted_reference_detected``.)"""

from __future__ import annotations

from repro.core.checker import ConsistencyChecker
from repro.core.constants import CHUNK_SIZE
from repro.testkit.workload import payload
from repro.vfs import VFS
from repro.vfs.scenarios import reflink_churn


def test_churn_and_vacuum_stay_clean(fs, client):
    """The reflink-churn driver — clones, slices, concats, overwrites,
    unlinks — plus a history-discarding vacuum of the shared base must
    leave every stored reference resolvable and registered."""
    vfs = VFS(client)
    reflink_churn(vfs, rounds=3, chunks=3)
    ConsistencyChecker(fs).raise_if_corrupt()
    stats = fs.db.vacuum(f"inv{fs.resolve('/base')}", keep_history=False)
    assert stats.history_pinned  # the guard archived instead of purging
    ConsistencyChecker(fs).raise_if_corrupt()


def test_aborted_clone_rows_are_not_violations(fs, client):
    """Rows inserted by an aborted transaction are unreachable garbage
    (vacuum expunges them); the checker must not flag them even though
    no vfsref row was committed for them."""
    tx = fs.begin()
    fs.write_file(tx, "/src", payload(5, "ab", 2 * CHUNK_SIZE))
    fs.commit(tx)
    tx = fs.begin()
    fs.reflink(tx, "/src", "/ghost")
    fs.abort(tx)
    ConsistencyChecker(fs).raise_if_corrupt()

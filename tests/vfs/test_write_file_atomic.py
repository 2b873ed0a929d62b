"""``VFS.write_file`` is one transaction: after a crash or an exception
the path is absent or holds every byte, never created-and-empty; inside
a group it is part of the group.  Over every stack of the VFS suite."""

from __future__ import annotations

import pytest

from repro.errors import SimulatedCrashError, TransactionError
from repro.testkit import CrashController, FaultPlan, FaultyDevice
from repro.testkit.stacks import open_stack
from repro.vfs import VFS

from tests.vfs.conftest import STACKS

DATA = bytes(range(256)) * 3


def status_forces(stack) -> int:
    return sum(db.tm.stats.status_forces for db in stack.dbs())


@pytest.mark.parametrize("kind", STACKS)
def test_crash_at_every_write_boundary_leaves_the_path_absent_or_whole(
        tmp_path, kind):
    outcomes = set()
    for boundary in range(1000):
        workdir = str(tmp_path / f"at{boundary}")
        built = open_stack(kind, workdir)
        path = built.prefix + "/new"
        ctrl = CrashController(FaultPlan(crash_after=boundary))
        built.node.wrap_devices(lambda dev: FaultyDevice(dev, ctrl))
        try:
            VFS(built.client).write_file(path, DATA)
        except SimulatedCrashError:
            pass
        finished = not ctrl.crashed
        ctrl.disarm()
        recovered = built.crash()
        state = recovered.ground_truth()
        recovered.close()
        assert state.get(path) in (None, DATA), (
            f"crash in place of write #{boundary}: {path} holds "
            f"{len(state[path])} of {len(DATA)} bytes")
        outcomes.add(path in state)
        if finished:
            assert state[path] == DATA
            break
    # the sweep saw both sides of the commit point, and several writes
    assert outcomes == {False, True} and boundary >= 8


@pytest.mark.parametrize("kind", STACKS)
def test_an_exception_from_the_write_leaves_no_file(tmp_path, kind):
    built = open_stack(kind, str(tmp_path / "stack"))
    try:
        vfs = VFS(built.client)
        path = built.prefix + "/new"

        def refuse(fd, data):
            raise RuntimeError("no")

        vfs.client.p_write = refuse
        with pytest.raises(RuntimeError):
            vfs.write_file(path, DATA)
        del vfs.client.p_write
        assert not vfs.exists(path)
        # ... and the session is where it was: no transaction left open
        assert vfs.write_file(path, DATA) == len(DATA)
        assert vfs.read_file(path) == DATA
    finally:
        built.close()


def test_inside_a_group_it_neither_commits_nor_nests(stack):
    vfs, prefix = stack
    vfs.begin()
    vfs.write_file(prefix + "/a", DATA)         # no "only one transaction"
    vfs.write_file(prefix + "/b", DATA)
    vfs.abort()                                 # ... and nothing committed
    assert not vfs.exists(prefix + "/a") and not vfs.exists(prefix + "/b")
    with vfs.transaction():
        vfs.write_file(prefix + "/a", DATA)
        vfs.write_file(prefix + "/b", DATA)
    assert vfs.read_file(prefix + "/a") == vfs.read_file(prefix + "/b") == DATA
    assert vfs.stats.group_commits == 1


@pytest.mark.parametrize("kind", STACKS)
def test_one_call_is_one_status_force(tmp_path, kind):
    built = open_stack(kind, str(tmp_path / "stack"))
    try:
        vfs = VFS(built.client)
        forces, ops = status_forces(built), vfs.stats.ops
        vfs.write_file(built.prefix + "/new", DATA)
        assert status_forces(built) == forces + 1
        # counted as before: the open, the write and the close it makes,
        # and not as an explicit group
        assert vfs.stats.ops == ops + 3
        assert vfs.stats.group_commits == 0
    finally:
        built.close()


def test_a_transaction_opened_behind_the_vfs_is_refused(stack):
    vfs, prefix = stack
    vfs.client.p_begin()
    with pytest.raises(TransactionError, match="only one transaction"):
        vfs.write_file(prefix + "/new", DATA)
    vfs.client.p_abort()
    assert not vfs.exists(prefix + "/new")

"""Fixtures for the transactional-VFS suite: the same VFS surface
constructed over every kind of client stack — in-process, remote,
remote with the lease-coherent cache, and sharded (built by the shared
:func:`tests.stacks.open_stack`)."""

from __future__ import annotations

import pytest

from repro.vfs import VFS

from tests.stacks import open_stack

STACKS = ("local", "remote", "cached", "sharded")


@pytest.fixture(params=STACKS)
def stack(request, tmp_path):
    """(vfs, prefix) over one client stack.

    ``prefix`` is the directory tests should work under — ``"/a"`` on
    the sharded stack (one subtree, one shard, so the semantics under
    test are identical to the single-server stacks; cross-shard
    behaviour has its own tests) and ``""`` elsewhere."""
    built = open_stack(request.param, str(tmp_path / "stack"))
    yield VFS(built.client), built.prefix
    built.close()

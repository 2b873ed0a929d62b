"""The sharded cluster is differentially equivalent to one model FS.

An application speaking the sharded client must not be able to tell
(by visible state) that the namespace is partitioned: the same op
sequence applied to a cluster and to the single-namespace
:class:`~repro.testkit.oracle.ModelFS` must converge to the same
state — including cross-shard renames, which the client implements as
a copied move under 2PC.

Random op sequences, alone and in multi-op transactions that span
shards, are the ``sharded*`` ids of the executable spec
(``tests/integration/test_spec_machine.py``); what stays here is one
fixed mixed workload at every shard count, and the refusals a copy
across shards must share with a copy on one."""

import pytest

from repro.errors import IsADirectoryError_
from repro.shard import ShardedCluster
from repro.testkit.oracle import ModelFS, apply_client_op, harvest_state
from repro.testkit.workload import payload


@pytest.mark.parametrize("nshards", [1, 2, 4])
def test_mixed_workload_any_shard_count(tmp_path, nshards):
    """One fixed mixed workload — subtrees, cross-top renames, deletes
    — lands in the identical visible state at every shard count."""
    cluster = ShardedCluster.create(str(tmp_path / "c"), nshards)
    client = cluster.client()
    model = ModelFS()
    script = [
        ("mkdir", "/a"), ("mkdir", "/b"), ("mkdir", "/c"),
        ("write", "/a/f", payload(1, "f", 2500)),
        ("write", "/b/g", payload(1, "g", 100)),
        ("mkdir", "/a/sub"),
        ("write", "/a/sub/h", payload(1, "h", 900)),
        ("rename", "/a/f", "/b/f"),          # cross-top file move
        ("rename", "/a/sub", "/c/sub"),      # cross-top dir move
        ("write", "/b/f", payload(1, "f2", 400)),  # shorter: tail kept
        ("unlink", "/b/g"),
        ("rmdir", "/a"),
    ]
    for op in script:
        assert model.why_invalid(op) is None
        apply_client_op(client, op)
        model.apply(op)
    client.close()
    state = {}
    for fs in cluster.fss:
        state.update(harvest_state(fs))
    assert state == model.state()
    cluster.close()


@pytest.mark.parametrize("copy", [
    lambda c: c.p_reflink("/a/d", "/b/copy"),
    lambda c: c.p_concat(["/a/d"], "/b/copy"),
    lambda c: c.p_slice("/a/d", 0, 0, "/b/copy"),
], ids=["reflink", "concat", "slice"])
def test_a_directory_is_no_source_across_shards(cluster2, copy):
    """A copy across shards reads its source whole; a directory used to
    read as an empty file, and the copy created one."""
    client = cluster2.client()
    client.p_mkdir("/a/d")
    with pytest.raises(IsADirectoryError_):
        copy(client)
    assert client.p_readdir("/b") == []
    client.close()

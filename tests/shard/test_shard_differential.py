"""The sharded cluster is differentially equivalent to one model FS.

An application speaking the sharded client must not be able to tell
(by visible state) that the namespace is partitioned: the same op
sequence applied to a cluster and to the single-namespace
:class:`~repro.testkit.oracle.ModelFS` must converge to the same
state — including cross-shard renames, which the client implements as
a copied move under 2PC.

The auto-commit, one-op-per-transaction form of that statement is the
``sharded1``/``sharded3`` rows of the stack-conformance suite
(``tests/integration/test_stack_conformance.py``); what stays here is
what only a cluster has: multi-op transactions that span shards."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.shard import ShardedCluster
from repro.testkit.explorer import harvest_cluster
from repro.testkit.oracle import ModelFS, apply_client_op
from repro.testkit.workload import payload

TOPS = ["a", "b", "c", "d"]
NAMES = st.sampled_from(["x", "y", "z", "sub"])
TOP = st.sampled_from(TOPS)
SIZES = st.integers(min_value=0, max_value=3000)


@st.composite
def paths(draw, max_depth=2):
    parts = [draw(TOP)] + draw(st.lists(NAMES, min_size=0,
                                        max_size=max_depth))
    return "/" + "/".join(parts)


@st.composite
def ops(draw):
    kind = draw(st.sampled_from(
        ["mkdir", "write", "unlink", "rmdir", "rename"]))
    if kind == "write":
        path = draw(paths())
        return ("write", path,
                payload(draw(st.integers(0, 7)), path, draw(SIZES)))
    if kind == "rename":
        return ("rename", draw(paths()), draw(paths()))
    return (kind, draw(paths()))


def _mkcluster(workdir, nshards):
    # hash policy: the four top-level names spread by SHA-256, so the
    # model sees one namespace while ops land on different shards.
    return ShardedCluster.create(str(workdir / "cluster"), nshards)


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(op_list=st.lists(ops(), min_size=2, max_size=14),
       seed=st.integers(0, 3))
def test_cluster_transactional_batches_match_model(tmp_path_factory,
                                                  op_list, seed):
    """Ops grouped into multi-op cluster transactions (committing or
    aborting whole batches) still converge to the model: committed
    batches apply atomically, aborted batches leave no trace on any
    shard — even when a batch spans shards and commits through 2PC."""
    import random
    rng = random.Random(seed)
    workdir = tmp_path_factory.mktemp("shardtxdiff")
    cluster = _mkcluster(workdir, 2)
    try:
        client = cluster.client()
        model = ModelFS()
        idx = 0
        while idx < len(op_list):
            batch_len = rng.randint(1, 3)
            abort = rng.random() < 0.3
            client.p_begin()
            scratch = model.copy()
            applied = []
            for op in op_list[idx:idx + batch_len]:
                if scratch.why_invalid(op) is not None:
                    continue
                apply_client_op(client, op)
                scratch.apply(op)
                applied.append(op)
            idx += batch_len
            if abort:
                client.p_abort()
            else:
                client.p_commit()
                model = scratch
        client.close()
        assert harvest_cluster(cluster) == model.state()
    finally:
        cluster.close()


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
    assert harvest_cluster(cluster) == model.state()
    cluster.close()

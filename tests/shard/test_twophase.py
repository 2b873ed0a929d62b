"""Two-phase commit: protocol behaviour, durability, and recovery.

The scenarios drive the participant half-calls (``p_prepare`` /
``p_resolve``) and the coordinator decision log by hand, so each crash
window of the protocol is pinned down individually; the crash-schedule
explorer then sweeps the same windows mechanically
(``test_shard_crash_explorer``)."""

import pytest

from repro.db.transactions import ABORTED, PREPARED
from repro.errors import FileNotFoundError_, TransactionError
from repro.shard import DECISION_TAG, ShardedCluster
from repro.testkit.workload import payload


def _write(client, path, data):
    fd = client.p_creat(path)
    client.p_write(fd, data)
    client.p_close(fd)


def _exists(client, path):
    try:
        client.p_stat(path)
        return True
    except FileNotFoundError_:
        return False


def _fresh(tmp_path, name="c"):
    cluster = ShardedCluster.create(str(tmp_path / name), 2,
                                    policy="subtree",
                                    assignments={"a": 0, "b": 1})
    boot = cluster.client()
    boot.p_mkdir("/a")
    boot.p_mkdir("/b")
    boot.close()
    return cluster


# -- the happy path ------------------------------------------------------


def test_cross_shard_commit_visible_everywhere(cluster2):
    client = cluster2.client()
    client.p_begin()
    _write(client, "/a/f", b"left")
    _write(client, "/b/g", b"right")
    client.p_commit()
    assert cluster2.stats.cross_shard_txns == 1
    assert cluster2.stats.prepares == 2
    assert cluster2.stats.decisions == 1
    reader = cluster2.client()
    fd = reader.p_open("/a/f")
    assert reader.p_read(fd, 4) == b"left"
    reader.p_close(fd)
    fd = reader.p_open("/b/g")
    assert reader.p_read(fd, 5) == b"right"
    reader.p_close(fd)
    reader.close()
    client.close()


def test_single_shard_txn_sends_no_messages(cluster2):
    client = cluster2.client()
    client.p_begin()
    _write(client, "/a/f1", payload(0, "f1", 2000))
    _write(client, "/a/f2", payload(0, "f2", 100))
    client.p_commit()
    assert cluster2.stats.single_shard_txns == 1
    assert cluster2.stats.cross_shard_txns == 0
    assert cluster2.stats.cross_shard_messages == 0
    assert cluster2.stats.prepares == 0
    client.close()


def test_cross_shard_abort_leaves_no_trace(cluster2):
    client = cluster2.client()
    client.p_begin()
    _write(client, "/a/f", b"x")
    _write(client, "/b/g", b"y")
    client.p_abort()
    assert not _exists(client, "/a/f")
    assert not _exists(client, "/b/g")
    assert cluster2.stats.prepares == 0
    client.close()


def test_read_only_participants_skip_prepare(cluster2):
    seed = cluster2.client()
    _write(seed, "/b/r", b"readme")
    seed.close()
    client = cluster2.client()
    client.p_begin()
    fd = client.p_open("/b/r")       # enlists shard 1, read-only
    client.p_read(fd, 6)
    client.p_close(fd)
    _write(client, "/a/w", b"w")     # the only writer
    client.p_commit()
    # one writer: local commit, no 2PC, even though two shards enlisted
    assert cluster2.stats.prepares == 0
    assert cluster2.stats.single_shard_txns == 1
    client.close()


# -- the prepared window -------------------------------------------------


def test_prepared_is_invisible_until_resolved(cluster2):
    """Between prepare and resolve, no observer sees the new state —
    the window a cross-shard rename's atomicity hangs on."""
    seed = cluster2.client()
    _write(seed, "/a/src", b"moving")
    seed.close()

    mover = cluster2.client()
    mover.p_begin()
    mover.p_rename("/a/src", "/b/dst")
    # drive phase 1 by hand; stop before the decision.
    gid = f"0.{mover.xid_on(0)}"
    for shard in (0, 1):
        cluster2.dispatch(shard, mover._links[shard].conn, "p_prepare", gid)

    observer = cluster2.client()
    assert _exists(observer, "/a/src")      # unlink not committed
    assert not _exists(observer, "/b/dst")  # creat prepared: invisible

    cluster2.log_decision(0, gid)
    for shard in (0, 1):
        cluster2.dispatch(shard, mover._links[shard].conn, "p_resolve", True)
    assert not _exists(observer, "/a/src")
    assert _exists(observer, "/b/dst")
    observer.close()
    mover.close()


def test_prepare_requires_transaction(cluster2):
    client = cluster2.client()
    conn = client._link(0).conn
    with pytest.raises(TransactionError):
        cluster2.dispatch(0, conn, "p_prepare", "0.1")
    client.close()


# -- crash windows, one by one -------------------------------------------


def test_crash_before_decision_presumes_abort(tmp_path):
    cluster = _fresh(tmp_path)
    client = cluster.client()
    client.p_begin()
    _write(client, "/a/f", b"A")
    _write(client, "/b/g", b"B")
    gid = f"0.{client.xid_on(0)}"
    for shard in (0, 1):
        cluster.dispatch(shard, client._links[shard].conn, "p_prepare", gid)
    # prepared on both shards, decision never forced: power fails.
    cluster.simulate_crash()
    recovered = ShardedCluster.open(str(tmp_path / "c"))
    assert recovered.stats.in_doubt_aborts == 2
    assert recovered.stats.in_doubt_commits == 0
    check = recovered.client()
    assert not _exists(check, "/a/f")
    assert not _exists(check, "/b/g")
    check.close()
    recovered.close()


def test_crash_after_decision_commits_in_doubt(tmp_path):
    cluster = _fresh(tmp_path)
    client = cluster.client()
    client.p_begin()
    _write(client, "/a/f", b"A")
    _write(client, "/b/g", b"B")
    gid = f"0.{client.xid_on(0)}"
    for shard in (0, 1):
        cluster.dispatch(shard, client._links[shard].conn, "p_prepare", gid)
    cluster.log_decision(0, gid)
    # decision durable, phase 2 never ran: power fails.
    cluster.simulate_crash()
    recovered = ShardedCluster.open(str(tmp_path / "c"))
    assert recovered.stats.in_doubt_commits == 2
    assert recovered.stats.in_doubt_aborts == 0
    check = recovered.client()
    assert _exists(check, "/a/f")
    assert _exists(check, "/b/g")
    fd = check.p_open("/a/f")
    assert check.p_read(fd, 1) == b"A"
    check.p_close(fd)
    check.close()
    recovered.close()


def test_partial_phase_two_crash_recovers_the_rest(tmp_path):
    """One participant resolved, the other still prepared at the crash:
    recovery must drive the straggler to the same verdict."""
    cluster = _fresh(tmp_path)
    client = cluster.client()
    client.p_begin()
    _write(client, "/a/f", b"A")
    _write(client, "/b/g", b"B")
    gid = f"0.{client.xid_on(0)}"
    for shard in (0, 1):
        cluster.dispatch(shard, client._links[shard].conn, "p_prepare", gid)
    cluster.log_decision(0, gid)
    cluster.dispatch(0, client._links[0].conn, "p_resolve", True)
    cluster.simulate_crash()
    recovered = ShardedCluster.open(str(tmp_path / "c"))
    assert recovered.stats.in_doubt_commits == 1   # only shard 1 in doubt
    check = recovered.client()
    assert _exists(check, "/a/f")
    assert _exists(check, "/b/g")
    check.close()
    recovered.close()


def test_recovery_is_idempotent(tmp_path):
    cluster = _fresh(tmp_path)
    client = cluster.client()
    client.p_begin()
    _write(client, "/a/f", b"A")
    _write(client, "/b/g", b"B")
    gid = f"0.{client.xid_on(0)}"
    for shard in (0, 1):
        cluster.dispatch(shard, client._links[shard].conn, "p_prepare", gid)
    cluster.log_decision(0, gid)
    cluster.simulate_crash()
    once = ShardedCluster.open(str(tmp_path / "c"))
    once.close()
    twice = ShardedCluster.open(str(tmp_path / "c"))
    assert twice.stats.in_doubt_commits == 0
    assert twice.stats.in_doubt_aborts == 0
    check = twice.client()
    assert _exists(check, "/a/f") and _exists(check, "/b/g")
    check.close()
    twice.close()


# -- a failed prepare: presumed abort, live ---------------------------------


class _Refused(Exception):
    """What the wrapped ``cluster.dispatch`` raises for a refused request."""


def _refuse(monkeypatch, cluster, *refused):
    """Wrap ``cluster.dispatch`` so each ``(shard, method)`` in
    ``refused`` raises :class:`_Refused`; returns the list of every
    request sent, ``(shard, method, *args)``, and the errors raised."""
    sent, raised = [], []
    dispatch = cluster.dispatch

    def refusing(shard, conn, method, *args, **kwargs):
        sent.append((shard, method, *args))
        if (shard, method) in refused:
            raised.append(_Refused(f"{method} refused on shard {shard}"))
            raise raised[-1]
        return dispatch(shard, conn, method, *args, **kwargs)
    monkeypatch.setattr(cluster, "dispatch", refusing)
    return sent, raised


def _two_writers(tmp_path):
    cluster = _fresh(tmp_path)
    client = cluster.client()
    client.p_begin()
    _write(client, "/a/f", b"A")
    _write(client, "/b/g", b"B")
    return cluster, client, [client.xid_on(0), client.xid_on(1)]


def _reopened_holds_neither_write(tmp_path):
    reopened = ShardedCluster.open(str(tmp_path / "c"))
    check = reopened.client()
    assert not _exists(check, "/a/f")
    assert not _exists(check, "/b/g")
    check.close()
    return reopened


def test_a_failed_prepare_aborts_every_shard_and_reaches_the_caller(
        tmp_path, monkeypatch):
    """The second writer refuses ``p_prepare``: the first writer's
    ``P`` is resolved to abort and the other shard aborted, no lock
    survives, and the caller gets the prepare's own error."""
    cluster, client, (x0, x1) = _two_writers(tmp_path)
    sent, raised = _refuse(monkeypatch, cluster, (1, "p_prepare"))
    with pytest.raises(_Refused) as failed:
        client.p_commit()
    assert failed.value is raised[0]
    assert [request[:2] for request in sent] == [
        (0, "p_prepare"), (1, "p_prepare"), (0, "p_resolve"), (1, "p_abort")]
    assert sent[2] == (0, "p_resolve", False)
    assert cluster.dbs[0].tm.state(x0) == ABORTED
    assert cluster.dbs[1].tm.state(x1) == ABORTED
    for db in cluster.dbs:
        assert db.locks._locks == {}
        assert db.tm.in_doubt() == {}
    assert not client.in_transaction()
    monkeypatch.undo()
    client.close()
    cluster.close()
    reopened = _reopened_holds_neither_write(tmp_path)
    assert reopened.stats.in_doubt_aborts == 0
    assert reopened.stats.in_doubt_commits == 0
    reopened.close()


def test_a_failed_rollback_leaves_the_prepared_shard_to_presumed_abort(
        tmp_path, monkeypatch):
    """The rollback's own ``p_resolve`` fails too: the rollback goes on
    to abort the other shard, the caller still gets the prepare's
    error, and the shard left prepared is aborted at reopen — no
    decision was logged."""
    cluster, client, (x0, _x1) = _two_writers(tmp_path)
    sent, raised = _refuse(monkeypatch, cluster,
                           (1, "p_prepare"), (0, "p_resolve"))
    with pytest.raises(_Refused) as failed:
        client.p_commit()
    assert failed.value is raised[0]
    assert len(raised) == 2
    assert sent[-1] == (1, "p_abort")
    assert cluster.dbs[1].locks._locks == {}
    assert cluster.dbs[0].tm.state(x0) == PREPARED
    assert cluster.decisions(0) == set()
    monkeypatch.undo()
    client.close()
    cluster.close()
    reopened = _reopened_holds_neither_write(tmp_path)
    assert reopened.stats.in_doubt_aborts == 1
    assert reopened.stats.in_doubt_commits == 0
    assert all(db.tm.in_doubt() == {} for db in reopened.dbs)
    reopened.close()


# -- the decision log ----------------------------------------------------


def test_torn_decision_tail_is_discarded(cluster2):
    dev = cluster2._decision_device(0)
    dev.sync_append_meta(DECISION_TAG, b"D 0.7 C\n")
    dev.sync_append_meta(DECISION_TAG, b"D 0.9 ")   # torn mid-append
    assert cluster2.decisions(0) == {"0.7"}


def test_decision_log_ignores_garbage_lines(cluster2):
    dev = cluster2._decision_device(0)
    dev.sync_append_meta(DECISION_TAG, b"D 0.3 C\nnot a decision\nD\n")
    assert cluster2.decisions(0) == {"0.3"}


def test_prepared_state_constant_round_trips():
    assert PREPARED == "prepared"

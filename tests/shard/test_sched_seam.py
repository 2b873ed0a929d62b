"""One scheduling engine under two deployments.

**A single server is a one-shard cluster.**
:class:`~repro.shard.sched.ShardedScheduler` is
:class:`~repro.sched.scheduler.MultiUserScheduler`'s event loop over a
different deployment seam, so the same lock-contending programs under
the same seed must interleave identically on one server and on a
one-shard cluster: the same sequence of scheduling events, the same
request in every slice, the same bytes read, the same final file
system.  Both deployments are leased (every session has a lease cache
in front of its link), so the comparison covers leased serving too.
Only timestamps may differ (the cluster client begins its shard
transaction lazily, at the first routed request rather than at
``p_begin``).

**The victim abort absorbs nothing.**  The cluster seam aborts a lock
victim's open transaction exactly as the single-server seam does: a
failing abort surfaces from ``run()`` instead of being swallowed and
leaving the shards' locks to chance."""

import pytest

from repro.cache import session_cache_factory
from repro.core.constants import O_RDONLY, O_RDWR, SEEK_SET
from repro.core.filesystem import InversionFS
from repro.core.library import InversionClient
from repro.core.server import InversionServer
from repro.db.database import Database
from repro.errors import SimulatedCrashError
from repro.sched.scheduler import Call, MultiUserScheduler, Ref, Txn
from repro.shard import ShardedCluster, ShardedScheduler
from repro.testkit.oracle import harvest_state
from repro.testkit.workload import payload

SESSIONS = 4
SEED = 7


def _seed_files(client) -> None:
    """``/hot`` (everyone's contention point) and one file each."""
    for path in ["/hot"] + [f"/own{i}" for i in range(SESSIONS)]:
        fd = client.p_creat(path)
        client.p_write(fd, payload(0, path, 900))
        client.p_close(fd)


def _programs() -> list[list]:
    """Each session: two transactions that overwrite its own file and
    then the shared hot file (write locks held to commit, so sessions
    park behind one another), an auto-commit stat after each, and an
    auto-commit read unit of the hot file (its name leased by the
    stats)."""
    programs = []
    for i in range(SESSIONS):
        program, base = [], 0
        for t in range(2):
            program.append(Txn([
                Call("p_open", f"/own{i}", O_RDWR),
                Call("p_write", Ref(base), payload(i, f"own{t}", 900)),
                Call("p_close", Ref(base)),
                Call("p_open", "/hot", O_RDWR),
                Call("p_write", Ref(base + 3), payload(i, f"hot{t}", 900)),
                Call("p_close", Ref(base + 3)),
            ]))
            program.append(Call("p_stat", "/hot"))
            base += 7
        program += [Call("p_open", "/hot", O_RDONLY),
                    Call("p_lseek", Ref(base), 0, 0, SEEK_SET),
                    Call("p_read", Ref(base), 1000),
                    Call("p_close", Ref(base))]
        programs.append(program)
    return programs


def _run(sched) -> tuple[list[tuple], list[bytes]]:
    with sched:
        for i, program in enumerate(_programs()):
            sched.add_session(program, name=f"s{i}")
        report = sched.run()
        reads = [session.values[16] for session in sched.sessions]
    assert all(row["state"] == "done" for row in report["sessions"])
    assert report["lock_parks"] > 0, "the programs never contended"
    # every read unit's open was answered by its session's link, and so
    # were the second transaction's two write-mode opens (names leased
    # by the first's).
    assert sched.cache_factory.stats.hits["open"] == 3 * SESSIONS
    # (kind, session, detail) whatever the deployment's time stamp.
    return [event[-3:] for event in sched.trace], reads


def test_same_interleaving_on_a_server_and_a_one_shard_cluster(tmp_path):
    db = Database.create(str(tmp_path / "server"))
    fs = InversionFS.mkfs(db)
    _seed_files(InversionClient(fs))
    single, single_reads = _run(MultiUserScheduler(
        InversionServer(fs), seed=SEED, cluster_commits=False,
        cache_factory=session_cache_factory()))
    single_state = harvest_state(fs)
    db.close()

    cluster = ShardedCluster.create(str(tmp_path / "cluster"), 1)
    boot = cluster.client()
    _seed_files(boot)
    boot.close()
    sharded, sharded_reads = _run(ShardedScheduler(cluster, seed=SEED))
    sharded_state = harvest_state(cluster.fss[0])
    cluster.close()

    assert [(kind, name) for kind, name, _ in single] \
        == [(kind, name) for kind, name, _ in sharded]
    assert [e for e in single if e[0] == "slice"] \
        == [e for e in sharded if e[0] == "slice"]
    assert single_reads == sharded_reads
    assert all(len(data) == 900 for data in single_reads)
    assert single_state == sharded_state


def test_failing_victim_abort_surfaces(tmp_path, monkeypatch):
    """Two sessions lock two shards in opposite order; the lock timeout
    picks a victim, whose abort dies with the machine.  The crash must
    come out of ``run()``."""
    cluster = ShardedCluster.create(str(tmp_path / "c"), 2, policy="subtree",
                                    assignments={"a": 0, "b": 1})
    boot = cluster.client()
    for top in "ab":
        boot.p_mkdir(f"/{top}")
        fd = boot.p_creat(f"/{top}/h")
        boot.p_write(fd, b"hot")
        boot.p_close(fd)
    boot.close()
    for db in cluster.dbs:
        db.locks.timeout_s = 0.5   # sim seconds; keep the test quick

    def both(first, second):
        return [Txn([Call("p_open", first, O_RDWR),
                     Call("p_write", Ref(0), b"++"),
                     Call("p_close", Ref(0)),
                     Call("p_open", second, O_RDWR),
                     Call("p_write", Ref(3), b"--"),
                     Call("p_close", Ref(3))])]

    def dying_abort(self):
        raise SimulatedCrashError("machine is down")

    with ShardedScheduler(cluster, seed=3, max_retries=20) as sched:
        sched.add_session(both("/a/h", "/b/h"), name="ab", home=0)
        sched.add_session(both("/b/h", "/a/h"), name="ba", home=1)
        monkeypatch.setattr(type(sched.sessions[0].client), "p_abort",
                            dying_abort)
        with pytest.raises(SimulatedCrashError):
            sched.run()
        assert any(event[2] == "victim" for event in sched.trace)
        monkeypatch.undo()      # close() aborts the survivors for real
    cluster.close()

"""The sharded deterministic scheduler: determinism, atomicity under
concurrency, and cross-shard lock contention.

The headline property (satellite 3): sessions racing a cross-shard
``mv`` against readers of both paths must see the old name or the new
name — never both, never neither.  Each probe is a :class:`ClientOp`,
which runs in a single scheduler slice, so it observes the cluster at
one instant of the interleaving."""

import pytest

from repro.core.constants import O_RDWR
from repro.errors import FileNotFoundError_
from repro.sched.scheduler import Call, Ref, Txn
from repro.shard import ClientOp, ShardedCluster, ShardedScheduler
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


def _mkcluster(tmp_path, name="c"):
    cluster = ShardedCluster.create(str(tmp_path / name), 2,
                                    policy="subtree",
                                    assignments={"a": 0, "b": 1})
    boot = cluster.client()
    boot.p_mkdir("/a")
    boot.p_mkdir("/b")
    boot.close()
    return cluster


def _disjoint_programs(nsessions=4, ntxns=2):
    programs = []
    for i in range(nsessions):
        top = "ab"[i % 2]
        prog = []
        for j in range(ntxns):
            path = f"/{top}/s{i}t{j}"
            prog.append(Txn([
                Call("p_creat", path),
                Call("p_write", Ref(j * 3), payload(i, path, 700)),
                Call("p_close", Ref(j * 3)),
            ]))
        programs.append(prog)
    return programs


def test_disjoint_sessions_complete_and_replay_identically(tmp_path):
    hashes = []
    for run in range(2):
        cluster = _mkcluster(tmp_path, f"run{run}")
        with ShardedScheduler(cluster, seed=11) as sched:
            for i, prog in enumerate(_disjoint_programs()):
                sched.add_session(prog, name=f"w{i}")
            report = sched.run()
            assert all(r["state"] == "done" for r in report["sessions"])
            hashes.append(sched.trace_hash())
        # all work landed, all of it single-shard
        check = cluster.client()
        assert len(check.p_readdir("/a")) == 4
        assert len(check.p_readdir("/b")) == 4
        check.close()
        assert cluster.stats.cross_shard_messages == 0
        assert cluster.stats.single_shard_txns == 8
        cluster.close()
    assert hashes[0] == hashes[1], "same seed+programs must replay"


def test_seed_changes_interleaving(tmp_path):
    hashes = []
    for seed in (1, 2):
        cluster = _mkcluster(tmp_path, f"seed{seed}")
        with ShardedScheduler(cluster, seed=seed) as sched:
            for i, prog in enumerate(_disjoint_programs()):
                sched.add_session(prog, name=f"w{i}")
            sched.run()
            hashes.append(sched.trace_hash())
        cluster.close()
    assert hashes[0] != hashes[1]


def test_cross_shard_mv_is_atomic_to_racing_readers(tmp_path):
    """Readers probing both names in one slice while a cross-shard
    rename runs: every probe sees exactly one of the two names."""
    cluster = _mkcluster(tmp_path)
    seed = cluster.client()
    _write(seed, "/a/src", payload(0, "src", 1800))
    seed.close()

    def probe(client):
        return (_exists(client, "/a/src"), _exists(client, "/b/dst"))

    with ShardedScheduler(cluster, seed=5) as sched:
        sched.add_session([Call("p_rename", "/a/src", "/b/dst")],
                          name="mover", home=0)
        for r in range(3):
            sched.add_session(
                [ClientOp(f"probe{i}", probe) for i in range(4)],
                name=f"reader{r}", home=r % 2)
        sched.run()
        observations = []
        for session in sched.sessions:
            if session.name.startswith("reader"):
                observations.extend(session.values.values())
    for src_seen, dst_seen in observations:
        assert (src_seen, dst_seen) in {(True, False), (False, True)}, \
            f"reader saw a torn rename: src={src_seen} dst={dst_seen}"
    # the probes must actually straddle the move: someone saw the old
    # world and someone the new one, else the race never happened.
    assert {(True, False), (False, True)} <= set(observations)
    check = cluster.client()
    assert not _exists(check, "/a/src")
    assert _exists(check, "/b/dst")
    check.close()
    cluster.close()


def test_cross_shard_lock_cycle_resolves_by_timeout(tmp_path):
    """Two sessions take X locks on opposite shards in opposite order —
    a deadlock no single shard's waits-for graph can see.  The lock
    timeout (on the parked shard's clock) must break the cycle, the
    victim must retry, and both sessions must complete."""
    cluster = _mkcluster(tmp_path)
    seed = cluster.client()
    _write(seed, "/a/h", b"hot-a")
    _write(seed, "/b/h", b"hot-b")
    seed.close()
    for db in cluster.dbs:
        db.locks.timeout_s = 0.5   # sim seconds; keep the test quick

    def xlock(path):
        # open-write-close inside the open cluster transaction: the
        # write takes the file's exclusive lock until commit.
        return [Call("p_open", path, O_RDWR),
                Call("p_write", Ref(0), b"++"),
                Call("p_close", Ref(0))]

    def both(first, second):
        items = xlock(first)
        tail = [Call("p_open", second, O_RDWR),
                Call("p_write", Ref(3), b"--"),
                Call("p_close", Ref(3))]
        return [Txn(items + tail)]

    with ShardedScheduler(cluster, seed=3, max_retries=20) as sched:
        sched.add_session(both("/a/h", "/b/h"), name="ab", home=0)
        sched.add_session(both("/b/h", "/a/h"), name="ba", home=1)
        report = sched.run()
    assert all(r["state"] == "done" for r in report["sessions"])
    assert report["retries"] >= 1, "the cycle never formed"
    assert report["lock_parks"] >= 1
    cluster.close()


def test_the_commit_hook_sees_each_committed_transaction_once(tmp_path):
    """The cluster's ``commit_hook`` is ``fn(session, tag)`` — a
    cluster transaction has one xid per enlisted shard, not one — and
    runs once per committed Txn, never for an aborted one."""
    cluster = _mkcluster(tmp_path)
    programs = [
        [Txn([Call("p_mkdir", "/a/s0")], tag="a0"),
         Txn([Call("p_mkdir", "/a/gone")], abort=True, tag="dropped"),
         Txn([Call("p_mkdir", "/a/s1")], tag="a1")],
        [Txn([Call("p_mkdir", "/b/t0"), Call("p_mkdir", "/a/t0")],
             tag="ab")],
    ]
    seen = []
    with ShardedScheduler(cluster, seed=5) as sched:
        sched.commit_hook = lambda session, tag: seen.append(
            (session.name, tag))
        for i, prog in enumerate(programs):
            sched.add_session(prog, name=f"s{i}")
        sched.run()
    assert sorted(seen) == [("s0", "a0"), ("s0", "a1"), ("s1", "ab")]
    assert [tag for name, tag in seen if name == "s0"] == ["a0", "a1"]
    cluster.close()


def test_a_shard_clock_is_its_database_clock(cluster2):
    """``cluster.clock(k)``, which the sharded e2e workload times its
    shards on, is shard ``k``'s own simulated clock."""
    assert all(cluster2.clock(k) is db.clock
               for k, db in enumerate(cluster2.dbs))


def test_victim_retry_preserves_effects_exactly_once(tmp_path):
    """After timeout-driven retries, each session's transaction must
    have applied exactly once (no doubled appends, no lost writes)."""
    cluster = _mkcluster(tmp_path)
    seed_client = cluster.client()
    _write(seed_client, "/a/h", b"")
    _write(seed_client, "/b/h", b"")
    seed_client.close()
    for db in cluster.dbs:
        db.locks.timeout_s = 0.5

    def writer(mark, first, second):
        def fn(client):
            for path in (first, second):
                fd = client.p_open(path, O_RDWR)
                client.p_write(fd, mark)
                client.p_close(fd)
        # one ClientOp per txn: the retry re-runs the whole function,
        # whose writes are at offset 0 — idempotent by construction.
        return [Txn([ClientOp(f"w{mark!r}", fn)])]

    with ShardedScheduler(cluster, seed=9, max_retries=20) as sched:
        sched.add_session(writer(b"A", "/a/h", "/b/h"), name="ab", home=0)
        sched.add_session(writer(b"B", "/b/h", "/a/h"), name="ba", home=1)
        report = sched.run()
    assert all(r["state"] == "done" for r in report["sessions"])
    check = cluster.client()
    for path in ("/a/h", "/b/h"):
        fd = check.p_open(path)
        assert check.p_read(fd, 1) in (b"A", b"B")
        check.p_close(fd)
    check.close()
    cluster.close()


def _scale_run(workdir, nshards, twophase=False):
    """64 sessions of four overwrite transactions, session ``c`` homed
    on shard ``c % nshards``: each rewrites a file in its home subtree
    and, if ``twophase``, then one on the next shard.  Throughput is
    over the slowest shard's clock."""
    cluster = ShardedCluster.create(
        workdir, nshards, policy="subtree",
        assignments={f"s{k}": k for k in range(nshards)})
    setup = cluster.client()
    for k in range(nshards):
        setup.p_mkdir(f"/s{k}")
    paths = [[f"/s{c % nshards}/f{c}"]
             + ([f"/s{(c + 1) % nshards}/g{c}"] if twophase else [])
             for c in range(64)]
    for path in sum(paths, []):
        _write(setup, path, payload(0, path, 6000))
    setup.close()
    cluster.flush_caches()
    with ShardedScheduler(cluster, seed=0) as sched:
        for c, mine in enumerate(paths):
            program, calls = [], 0      # a Ref counts the session's calls
            for t in range(4):
                items = []
                for path in mine:
                    items += [Call("p_open", path, O_RDWR),
                              Call("p_write", Ref(calls),
                                   payload(t, path, 6000)),
                              Call("p_close", Ref(calls))]
                    calls += 3
                program.append(Txn(items, tag=f"c{c}t{t}"))
            sched.add_session(program, name=f"c{c}", home=c % nshards)
        starts = [db.clock.now() for db in cluster.dbs]
        report = sched.run()
        elapsed = cluster.elapsed_max(starts)
        retries = sched.stats.retries
    stats = cluster.stats
    cluster.close()
    assert report["starved"] is False and retries == 0
    return 64 * 4 / elapsed, stats


def test_disjoint_work_scales_with_the_shard_count(tmp_path):
    one, _ = _scale_run(str(tmp_path / "one"), 1)
    for nshards, floor in ((2, 1.8), (4, 3.5), (8, 6.5)):
        rate, stats = _scale_run(str(tmp_path / f"n{nshards}"), nshards)
        assert rate / one >= floor, nshards
        # partitioning costs nothing when the work respects it
        assert stats.cross_shard_messages == stats.cross_shard_txns == 0


def test_a_two_shard_transaction_costs_two_prepares_a_decision_and_nine_messages(
        tmp_path):
    _rate, stats = _scale_run(str(tmp_path / "c"), 2, twophase=True)
    txns = 64 * 4
    assert stats.cross_shard_txns == txns
    assert (stats.prepares, stats.decisions) == (2 * txns, txns)
    # Nine messages while the session's second-shard name is cold (its
    # p_begin, p_open, p_write and p_close, two prepares, the decision
    # and two resolves); seven once the name is leased, from each
    # session's second transaction on: the open and the close are the
    # link's, and the write is one p_pwrite.
    assert stats.cross_shard_messages == 64 * 9 + (txns - 64) * 7

"""The deterministic multi-session scheduler.

Covers the sched subsystem's contracts: seeded determinism (same seed ⇒
identical event trace), admission control and backpressure, deadlock-
victim retry with capped backoff, commit clustering, the fairness
report, and simulated lock waits landing in the per-xid accounting.
"""

from __future__ import annotations

import pytest

from repro.core.filesystem import InversionFS
from repro.core.library import InversionClient
from repro.core.server import InversionServer
from repro.db.database import Database
from repro.db.locks import EXCLUSIVE
from repro.errors import SchedAdmissionError, SessionFailedError
from repro.sched import Apply, Call, MultiUserScheduler, Ref, Txn
from repro.sched.scheduler import DONE, FAILED
from repro.shard import ShardedCluster, ShardedScheduler
from repro.testkit.workload import payload


def _write(path: str, data: bytes) -> Apply:
    return Apply(f"write {path}",
                 lambda fs, tx, path=path, data=data:
                 fs.write_file(tx, path, data))


def _hold(seconds: float) -> Apply:
    """One slice that keeps the session's locks while ``seconds`` of
    simulated time pass."""
    return Apply(f"hold {seconds}",
                 lambda fs, tx: fs.db.clock.advance(seconds))


def _disjoint_programs(nclients: int, ntxns: int = 3) -> list[list[Txn]]:
    return [[Txn([_write(f"/f{c}", b"%d:%d" % (c, t) * 50)],
                 tag=f"c{c}t{t}") for t in range(ntxns)]
            for c in range(nclients)]


def _seed_files(fs, nclients: int, extra: tuple = ()) -> None:
    tx = fs.begin()
    for c in range(nclients):
        fs.write_file(tx, f"/f{c}", b"seed")
    for path in extra:
        fs.write_file(tx, path, b"seed")
    fs.commit(tx)
    fs.db.tm.flush_commits()


def _run(fs, programs, **kw):
    server = InversionServer(fs)
    sched = MultiUserScheduler(server, **kw)
    try:
        for i, program in enumerate(programs):
            sched.add_session(program, name=f"s{i}")
        report = sched.run()
    finally:
        sched.close()
    return sched, report


def test_program_items_name_themselves(fs):
    """What a program's items print as, and how a misplaced ``Apply``
    is refused: by its own name."""
    assert repr(Ref(2)) == "Ref(2)"
    assert repr(Call("p_open", "/f", 0)) == "Call('p_open')"
    assert repr(_hold(1.0)) == "Apply('hold 1.0')"
    sched = MultiUserScheduler(InversionServer(fs))
    try:
        with pytest.raises(TypeError,
                           match=r"^Apply\('hold 1\.0'\) outside a Txn"):
            sched.add_session([_hold(1.0)])
    finally:
        sched.close()


class TestDeterminism:
    def test_same_seed_same_trace(self, tmp_path):
        hashes = []
        for run in range(2):
            from repro.db.database import Database
            from repro.core.filesystem import InversionFS
            db = Database.create(str(tmp_path / f"d{run}"))
            fs = InversionFS.mkfs(db)
            _seed_files(fs, 3)
            sched, _ = _run(fs, _disjoint_programs(3), seed=7)
            hashes.append(sched.trace_hash())
            db.close()
        assert hashes[0] == hashes[1]

    def test_different_seed_different_trace(self, tmp_path):
        hashes = []
        for run, seed in enumerate((0, 1)):
            from repro.db.database import Database
            from repro.core.filesystem import InversionFS
            db = Database.create(str(tmp_path / f"d{run}"))
            fs = InversionFS.mkfs(db)
            _seed_files(fs, 3)
            sched, _ = _run(fs, _disjoint_programs(3), seed=seed)
            hashes.append(sched.trace_hash())
            db.close()
        assert hashes[0] != hashes[1]

    def test_results_correct_under_interleaving(self, fs):
        _seed_files(fs, 4)
        _run(fs, _disjoint_programs(4, ntxns=2), seed=3)
        for c in range(4):
            assert fs.read_file(f"/f{c}") == b"%d:1" % c * 50


class TestAdmission:
    def test_queue_then_backpressure(self, fs):
        _seed_files(fs, 4)
        programs = _disjoint_programs(4, ntxns=1)
        server = InversionServer(fs)
        sched = MultiUserScheduler(server, max_inflight=2, admission_queue=1)
        try:
            a = sched.add_session(programs[0], name="a")
            b = sched.add_session(programs[1], name="b")
            queued = sched.add_session(programs[2], name="q")
            assert a.link is not None and b.link is not None
            assert queued.link is None          # waiting in the queue
            assert sched.stats.admission_waits == 1
            with pytest.raises(SchedAdmissionError):
                sched.add_session(programs[3], name="refused")
            assert sched.stats.rejected == 1
            sched.run()
        finally:
            sched.close()
        # the queued session was admitted when a slot freed, and ran.
        assert queued.state == DONE
        assert queued.admission_wait >= 0.0
        assert fs.read_file("/f2") == b"2:0" * 50

    def test_admission_queue_preserves_fifo(self, fs):
        _seed_files(fs, 5)
        programs = _disjoint_programs(5, ntxns=1)
        server = InversionServer(fs)
        sched = MultiUserScheduler(server, max_inflight=1, admission_queue=4)
        try:
            order = []
            for i, program in enumerate(programs):
                session = sched.add_session(program, name=f"s{i}")
                session._order_probe = order  # noqa: SLF001 (test hook)
            sched.run()
        finally:
            sched.close()
        admits = [s for (_, kind, s, _) in sched.trace if kind == "admit"]
        assert admits == [f"s{i}" for i in range(5)]


class TestVictimRetry:
    def test_deadlock_victim_retries_and_completes(self, fs):
        """Opposite lock orders deadlock; the victim backs off, retries
        the whole transaction, and both sessions finish."""
        _seed_files(fs, 0, extra=("/x", "/y"))
        programs = [
            [Txn([_write("/x", b"a" * 64), _write("/y", b"a" * 64)],
                 tag="xy")],
            [Txn([_write("/y", b"b" * 64), _write("/x", b"b" * 64)],
                 tag="yx")],
        ]
        # seed 3 interleaves the first writes before either second
        # write, producing the cycle (deterministically — same seed,
        # same interleaving).
        sched, report = _run(fs, programs, seed=3)
        assert all(s.state == DONE for s in sched.sessions)
        assert sched.stats.retries >= 1
        assert sched.stats.backoff_seconds.count == sched.stats.retries
        assert sched.stats.backoff_seconds.max <= sched.backoff_cap
        assert report["retries"] == sched.stats.retries
        # 2PL serializability: both files carry the same writer's bytes.
        assert fs.read_file("/x")[:1] == fs.read_file("/y")[:1]

    def test_retry_budget_exhaustion_fails_strictly(self, fs):
        """With no retries allowed, the deadlock victim fails and
        strict mode surfaces it."""
        _seed_files(fs, 0, extra=("/x", "/y"))
        programs = [
            [Txn([_write("/x", b"a" * 64), _write("/y", b"a" * 64)])],
            [Txn([_write("/y", b"b" * 64), _write("/x", b"b" * 64)])],
        ]
        server = InversionServer(fs)
        sched = MultiUserScheduler(server, seed=3, max_retries=0)
        try:
            for i, program in enumerate(programs):
                sched.add_session(program, name=f"s{i}")
            with pytest.raises(SessionFailedError, match="retry budget"):
                sched.run()
            # non-strict reruns report instead of raising
        finally:
            sched.close()
        failed = [s for s in sched.sessions if s.state == FAILED]
        done = [s for s in sched.sessions if s.state == DONE]
        assert len(failed) == 1 and len(done) == 1


    def test_when_every_unfinished_session_sleeps_the_clock_jumps_to_the_first_wake(
            self, fs):
        """Opposite lock orders with no I/O: the survivor commits and
        is done before the victim's backoff ends, so the only unfinished
        session is asleep — the loop moves the clock to its wake time,
        not past it, and the retry runs there."""
        def lock(name):
            return Apply(f"lock {name}", lambda fs, tx: fs.db.locks.acquire(
                tx, ("probe", name), EXCLUSIVE))

        programs = [[Txn([lock("x"), lock("y")], tag="xy")],
                    [Txn([lock("y"), lock("x")], tag="yx")]]
        sched, _ = _run(fs, programs, seed=3)
        assert all(s.state == DONE for s in sched.sessions)
        (retry,) = [e for e in sched.trace if e[1] == "retry"]
        victim, backoff = retry[2], sched.backoff_base
        done = [e[0] for e in sched.trace if e[1] == "done"
                and e[2] != victim]
        after = [e for e in sched.trace if e[2] == victim
                 and e[1] == "slice" and e[0] > retry[0]]
        assert done[0] < retry[0] + backoff
        assert after[0][0] == round(retry[0] + backoff, 9)


class TestLockWaits:
    def test_hot_file_waits_park_and_land_in_accounting(self, fs):
        """Contending sessions park on the scheduler (no threads), the
        waits advance the simulated clock, and the wait time lands in
        the per-xid accounting and lock metrics."""
        _seed_files(fs, 0, extra=("/hot",))
        programs = [
            [Txn([_write("/hot", bytes([65 + c]) * 512)], tag=f"h{c}")
             for _ in range(2)]
            for c in range(3)
        ]
        sched, report = _run(fs, programs, seed=2)
        db = fs.db
        assert sched.stats.lock_parks > 0
        assert report["lock_parks"] == sched.stats.lock_parks
        assert db.locks.stats.waits > 0
        hist = db.obs.metrics.value("lock.wait_seconds")
        assert hist.count == db.locks.stats.waits
        assert hist.sum > 0.0
        waited_xids = [xid for xid, row in db.obs.tx.breakdown().items()
                       if row.get("lock_wait_seconds")]
        assert waited_xids, "no per-xid lock wait recorded"

    def test_a_waiter_keeps_its_place_while_the_queue_moves(self, fs):
        """Three writers share one file and each holds it 0.4 s.  Seed 3
        queues s0 behind s2, and s1 (parked above s0 on the stack) goes
        between them: s0 is granted third, after 0.9 s — longer than the
        0.5 s timeout, but the holder ahead of it changed every 0.4 s,
        so nobody times out or retries."""
        _seed_files(fs, 0, extra=("/hot",))
        fs.db.locks.timeout_s = 0.5
        programs = [[Txn([_write("/hot", bytes([65 + c]) * 64), _hold(0.4)])]
                    for c in range(3)]
        sched, report = _run(fs, programs, seed=3)
        assert report["max_park_s"] > fs.db.locks.timeout_s + 0.3
        assert fs.db.locks.stats.timeouts == 0
        assert report["retries"] == 0

    def test_a_waiter_whose_blocker_never_changes_times_out(self, fs):
        """Seed 1 parks s1 behind s0, which keeps running — 64 slices of
        1/64 s each — but never releases: the queue ahead of s1 never
        moves, so its wait ends at exactly ``timeout_s`` however busy
        the holder is.  The retry gets the file once s0 commits."""
        _seed_files(fs, 0, extra=("/hot",))
        fs.db.locks.timeout_s = 0.5
        holder = [Txn([_write("/hot", b"h" * 64)]
                      + [_hold(1 / 64) for _ in range(64)])]
        waiter = [Txn([_write("/hot", b"w" * 64)])]
        sched, report = _run(fs, [holder, waiter], seed=1)
        assert fs.db.locks.stats.timeouts == 1
        assert report["retries"] == 1
        unparks = [float(detail) for _t, kind, name, detail in sched.trace
                   if kind == "unpark" and name == "s1"]
        assert unparks[0] == pytest.approx(fs.db.locks.timeout_s, abs=1e-9)
        assert fs.read_file("/hot") == b"w" * 64

    def test_fairness_report_shape(self, fs):
        _seed_files(fs, 3)
        sched, report = _run(fs, _disjoint_programs(3), seed=0)
        assert report["starved"] is False
        assert report["max_ready_wait_s"] >= 0.0
        assert len(report["sessions"]) == 3
        for row in report["sessions"]:
            assert row["state"] == DONE
            assert row["slices"] > 0


class TestStarvationVerdict:
    """``starved`` is read from how often an overdue session was passed
    over — counted beside the choice, not by it.  A zero bound makes
    every ready session overdue at every pick."""

    @staticmethod
    def _report(fs, sched_class) -> dict:
        _seed_files(fs, 4)
        sched = sched_class(InversionServer(fs), seed=0, fairness_bound=0.0)
        try:
            for i, program in enumerate(_disjoint_programs(4)):
                sched.add_session(program, name=f"s{i}")
            return sched.run()
        finally:
            sched.close()

    def test_oldest_first_never_passes_a_session_over_n_times(self, fs):
        report = self._report(fs, MultiUserScheduler)
        assert 0 < report["max_passed_over"] < 4
        assert report["starved"] is False

    def test_a_pick_that_ignores_the_overdue_list_starves(self, fs):
        class Lottery(MultiUserScheduler):
            def _choose(self, ready, overdue):
                return super()._choose(ready, [])

        report = self._report(fs, Lottery)
        assert report["max_passed_over"] >= 4
        assert report["starved"] is True


def _longest_commit_burst(sched) -> int:
    """Most ``p_commit`` slices the trace shows back-to-back."""
    best = run = 0
    for _t, _kind, _name, detail in sched.trace:
        run = run + 1 if detail == "p_commit" else 0
        best = max(best, run)
    return best


class TestCommitClustering:
    def test_commits_batch_under_group_window(self, fs):
        """With clustering on and a group-commit window open, each
        round's commits drain back-to-back into the open group: a force
        carries at least one commit per client, and there is at most
        one force per round."""
        _seed_files(fs, 4)
        fs.db.tm.group_commit_window = 0.05
        forces0 = fs.db.tm.stats.status_forces
        sched, _ = _run(fs, _disjoint_programs(4, ntxns=3), seed=0)
        fs.db.tm.flush_commits()
        fs.db.tm.group_commit_window = 0.0
        forces = fs.db.tm.stats.status_forces - forces0
        assert 1 <= forces <= 3         # 12 commits, 3 rounds
        assert fs.db.tm.stats.max_group >= 4
        assert _longest_commit_burst(sched) == 4

    def test_clustering_can_be_disabled(self, fs):
        """Without the commit gate the commits trickle out between
        other sessions' slices.  (How many share a force no longer
        tells the two apart: a commit is an enqueue, so a round fits
        the window either way.)"""
        _seed_files(fs, 4)
        fs.db.tm.group_commit_window = 0.05
        sched, _ = _run(fs, _disjoint_programs(4, ntxns=3), seed=0,
                        cluster_commits=False)
        fs.db.tm.flush_commits()
        fs.db.tm.group_commit_window = 0.0
        assert _longest_commit_burst(sched) < 4


#: disjoint-file txn/s by client count when every commit still paid its
#: own sweep with its locks held: the floors commit groups must hold.
DISJOINT_FLOORS = {1: 15.54, 2: 21.85, 4: 27.29, 8: 30.59}


def _scale_run(workdir: str, nclients: int, hot: bool) -> dict:
    """``nclients`` sessions of eight overwrite transactions each under
    a 0.02 s group-commit window: each rewrites the client's own file
    and, if ``hot``, then one shared file (one lock order, so the hot
    lock queues and never deadlocks)."""
    db = Database.create(workdir)
    fs = InversionFS.mkfs(db)
    setup = InversionClient(fs)
    setup.p_begin()
    for path, size in [(f"/f{c}", 8000) for c in range(nclients)] \
            + [("/hot", 2000)]:
        fd = setup.p_creat(path)
        setup.p_write(fd, payload(0, f"seed{path}", size))
        setup.p_close(fd)
    setup.p_commit()
    db.tm.flush_commits()
    db.flush_caches()
    db.tm.group_commit_window = 0.02
    sched = MultiUserScheduler(InversionServer(fs), seed=0)
    for c in range(nclients):
        sched.add_session(
            [Txn([_write(f"/f{c}", payload(0, f"c{c}t{t}", 8000))]
                 + ([_write("/hot", payload(0, f"h{c}t{t}", 2000))]
                    if hot else []), tag=f"c{c}t{t}") for t in range(8)],
            name=f"c{c}")
    stats, locks = db.tm.stats, db.locks.stats
    t0, forces0, commits0 = db.clock.now(), stats.status_forces, \
        stats.commits_recorded
    try:
        report = sched.run()
    finally:
        sched.close()
    db.tm.flush_commits()
    forces = stats.status_forces - forces0
    row = {"txns_per_sec": 8 * nclients / (db.clock.now() - t0),
           "commits": stats.commits_recorded - commits0, "forces": forces,
           "waits": locks.waits, "deadlocks": locks.deadlocks,
           "timeouts": locks.timeouts, "starved": report["starved"],
           "max_park_s": report["max_park_s"]}
    db.close()
    return row


def test_clients_scale_on_disjoint_files_and_queue_on_a_hot_one(tmp_path):
    disjoint = {n: _scale_run(str(tmp_path / f"d{n}"), n, hot=False)
                for n in DISJOINT_FLOORS}
    hot = {n: _scale_run(str(tmp_path / f"h{n}"), n, hot=True)
           for n in DISJOINT_FLOORS}
    for n, row in disjoint.items():
        assert row["txns_per_sec"] >= DISJOINT_FLOORS[n], n
        # a force carries a commit per client, at most one per round
        assert row["commits"] >= n * row["forces"] and row["forces"] <= 8
        assert row["waits"] == row["deadlocks"] == row["timeouts"] == 0
    for n, row in hot.items():
        assert row["txns_per_sec"] >= 0.5 * disjoint[n]["txns_per_sec"], n
        # the hot file serializes every run past one client
        assert (row["waits"] > 0) == (n > 1), n
        assert row["deadlocks"] == row["timeouts"] == 0
        assert row["starved"] is False and row["max_park_s"] <= 1.0
    for n in DISJOINT_FLOORS:
        assert disjoint[n]["commits"] == hot[n]["commits"] == 8 * n


class TestPrograms:
    def test_call_and_ref_plumb_results(self, fs):
        """Call units auto-commit one RPC each; Ref feeds an earlier
        result (the fd) into later calls."""
        program = [
            Call("p_begin"),
            Call("p_creat", "/ref"),
            Call("p_write", Ref(1), b"via ref"),
            Call("p_close", Ref(1)),
            Call("p_commit"),
        ]
        sched, _ = _run(fs, [program], seed=0)
        assert fs.read_file("/ref") == b"via ref"

    def test_abort_txn_leaves_no_trace(self, fs):
        _seed_files(fs, 1)
        programs = [[
            Txn([_write("/f0", b"kept")], tag="keep"),
            Txn([_write("/f0", b"discarded")], abort=True, tag="drop"),
        ]]
        _run(fs, programs, seed=0)
        assert fs.read_file("/f0") == b"kept"

    def test_commit_hook_sees_commit_order(self, fs):
        _seed_files(fs, 3)
        server = InversionServer(fs)
        sched = MultiUserScheduler(server, seed=4)
        committed = []
        sched.commit_hook = lambda session, tag, xid: committed.append(
            (tag, xid))
        try:
            for i, program in enumerate(_disjoint_programs(3, ntxns=2)):
                sched.add_session(program, name=f"s{i}")
            sched.run()
        finally:
            sched.close()
        assert len(committed) == 6
        xids = [xid for _, xid in committed]
        assert xids == sorted(xids, key=lambda x: fs.db.tm.commit_time(x))


class TestMetrics:
    def test_sched_metrics_mirrored_and_unbound_on_close(self, fs):
        _seed_files(fs, 2)
        server = InversionServer(fs)
        sched = MultiUserScheduler(server, seed=0)
        try:
            for i, program in enumerate(_disjoint_programs(2)):
                sched.add_session(program, name=f"s{i}")
            sched.run()
            registry = fs.db.obs.metrics
            assert registry.value("sched.slices") == sched.stats.slices
            assert registry.value("sched.context_switches") == \
                sched.stats.context_switches
        finally:
            sched.close()
        # the wait strategy is uninstalled on close
        assert fs.db.locks.wait_strategy is None


# -- several databases: the one that can work first runs first ----------------


def _first_home_to_run(tmp_path, drive_busy: bool) -> int:
    """Shard 1's clock is a second ahead of shard 0's; with
    ``drive_busy`` shard 0's drive is writing a queued flush for a
    second past that.  Which shard's session gets the first slice?"""
    cluster = ShardedCluster.create(str(tmp_path / "c"), 2, policy="subtree",
                                    assignments={"a": 0, "b": 1})
    try:
        boot = cluster.client()
        boot.p_mkdir("/a")
        boot.p_mkdir("/b")
        boot.close()
        db0, db1 = cluster.dbs
        db1.clock.advance(db0.clock.now() + 1.0 - db1.clock.now())
        if drive_busy:
            db0.drives()[0].busy_until = db1.clock.now() + 1.0
        assert db0.clock.now() < db1.clock.now()
        with ShardedScheduler(cluster, seed=0) as sched:
            sched.add_session([Call("p_stat", "/a")], name="on0")
            sched.add_session([Call("p_stat", "/b")], name="on1")
            sched.run()
        return next(home for _t, home, kind, *_ in sched.trace
                    if kind == "slice")
    finally:
        cluster.close()


def test_the_pick_follows_when_a_database_can_work_not_its_clock(tmp_path):
    assert _first_home_to_run(tmp_path / "idle", drive_busy=False) == 0
    assert _first_home_to_run(tmp_path / "busy", drive_busy=True) == 1

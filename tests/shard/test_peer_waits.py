"""A 2PC commit waits for its peer shards instead of moving their clocks.

The participants of a cross-shard commit must meet in simulated time
twice: before the decision (the prepare acks) and after phase two (the
resolve acks).  Outside a scheduler the client meets them with
``sync_clocks``: each lagging clock jumps to the latest.  Under
:class:`~repro.shard.ShardedScheduler` the committing session waits
instead, and the lagging shard's own sessions run until its clock gets
there.  A 2PC unit's commit hook fires at its decision, so a later
commit of the same file on the peer, made while the unit still waits,
reaches the hook second — in the order of the status file."""

from repro.core.constants import O_RDWR
from repro.db.transactions import STATUS_TAG
from repro.sched.scheduler import DONE, SLEEPING, Call, Ref, Txn
from repro.shard import ClientOp, ShardedScheduler

#: a write big enough that shard 0's prepare runs well past shard 1's.
BIG = bytes(range(256)) * 800


def _write(client, path, data):
    fd = client.p_open(path, O_RDWR)
    client.p_write(fd, data)
    client.p_close(fd)


def _count_syncs(cluster) -> list:
    """Wrap ``cluster.sync_clocks``; returns the list each call's
    shards are appended to."""
    calls = []
    plain = cluster.sync_clocks

    def sync_clocks(shards):
        calls.append(list(shards))
        plain(shards)
    cluster.sync_clocks = sync_clocks
    return calls


def _two_phase_unit(peer_path: str) -> list:
    """One Txn of the session homed on shard 0: a big write on its own
    shard, a small one to ``peer_path`` on shard 1, then its shard-1
    xid (kept as the session's last value)."""
    return [Txn([Call("p_open", "/a/big", O_RDWR),
                 Call("p_write", Ref(0), BIG),
                 Call("p_close", Ref(0)),
                 Call("p_open", peer_path, O_RDWR),
                 Call("p_write", Ref(3), b"S"),
                 Call("p_close", Ref(3)),
                 ClientOp("xid", lambda client: client.xid_on(1))],
                tag="2pc")]


def _events(sched, name: str, kind: str) -> list[int]:
    return [i for i, event in enumerate(sched.trace)
            if event[2] == kind and event[3] == name]


def _setup(cluster2):
    boot = cluster2.client()
    for path in ("/a/big", "/b/f", "/b/g"):
        boot.p_close(boot.p_creat(path))
    boot.close()


def test_a_2pc_unit_waits_while_its_peer_shards_sessions_run(cluster2):
    _setup(cluster2)
    syncs = _count_syncs(cluster2)
    peer = [Call("p_stat", "/b/g") for _ in range(4)]
    with ShardedScheduler(cluster2, seed=0) as sched:
        sched.add_session(_two_phase_unit("/b/f"), name="unit", home=0)
        sched.add_session(peer, name="peer", home=1)
        sched.run()
        waits = _events(sched, "unit", "wait")
        resumes = _events(sched, "unit", "resume")
        peer_slices = _events(sched, "peer", "slice")
        slices = sum(event[2] == "slice" for event in sched.trace)
        assert sched.stats.slices == slices, "a resume is not a slice"
        assert sched.stats.peer_waits == len(waits)
    assert syncs == [], "no clock is moved for a peer under the scheduler"
    assert cluster2.stats.cross_shard_txns == 1
    assert waits and len(resumes) == len(waits)
    assert any(waits[0] < i < resumes[0] for i in peer_slices), \
        "the peer shard's session runs while the 2PC unit waits for it"


def test_outside_a_scheduler_a_2pc_commit_meets_by_sync_clocks(cluster2):
    _setup(cluster2)
    syncs = _count_syncs(cluster2)
    client = cluster2.client()
    client.p_begin()
    _write(client, "/a/big", BIG)
    _write(client, "/b/f", b"S")
    client.p_commit()
    client.close()
    assert syncs == [[0, 1], [0, 1]]
    assert cluster2.clock(0).now() == cluster2.clock(1).now()


def test_the_commit_hook_fires_at_the_decision(cluster2):
    """The peer's write of the same file waits for the 2PC unit's lock,
    gets it at phase two and commits during the unit's trailing wait:
    its hook must come second, as its ``C`` record does."""
    _setup(cluster2)
    peer = [Call("p_stat", "/b/g") for _ in range(3)] + [
        Txn([Call("p_open", "/b/f", O_RDWR),
             Call("p_write", Ref(3), b"Q"),
             Call("p_close", Ref(3)),
             ClientOp("xid", lambda client: client.xid_on(1))],
            tag="peer")]
    hooked = []
    with ShardedScheduler(cluster2, seed=0) as sched:
        sched.commit_hook = lambda session, tag: hooked.append(tag)
        sched.add_session(_two_phase_unit("/b/f"), name="unit", home=0)
        sched.add_session(peer, name="peer", home=1)
        sched.run()
        trailing_wait = _events(sched, "unit", "wait")[-1]
        last_resume = _events(sched, "unit", "resume")[-1]
        peer_commit = [i for i in _events(sched, "peer", "slice")
                       if sched.trace[i][4] == "p_commit"][-1]
        xids = {s.name: s.values[max(s.values)] for s in sched.sessions}
    assert trailing_wait < peer_commit < last_resume, \
        "the peer's commit must land inside the unit's trailing wait"
    db = cluster2.dbs[1]
    db.tm.flush_commits()
    records = db.switch.get(db.switch.default_name).read_meta(
        STATUS_TAG).decode("ascii").split()
    c_order = [int(records[i + 1]) for i, token in enumerate(records)
               if token == "C" and int(records[i + 1]) in xids.values()]
    by_xid = {xid: name for name, xid in xids.items()}
    assert [by_xid[xid] for xid in c_order] == ["unit", "peer"]
    assert hooked == ["2pc", "peer"]


def test_a_lagging_shard_idles_only_up_to_its_next_wake(cluster2):
    """A lagging shard runs its own READY sessions before it idles, and
    with none it idles to the target or to its next sleeper's wake-up,
    whichever comes first."""
    clock = cluster2.clock(1)
    with ShardedScheduler(cluster2, seed=0) as sched:
        homed = sched.add_session([Call("p_stat", "/b/g")], home=1)
        now = clock.now()
        target = now + 0.05
        assert not sched._idle_toward(1, target)    # READY: it runs first
        assert clock.now() == now
        homed.state, homed.wake_time = SLEEPING, now + 0.01
        assert not sched._idle_toward(1, target)
        assert clock.now() == now + 0.01
        homed.state = DONE
        assert sched._idle_toward(1, target)
        assert clock.now() == target

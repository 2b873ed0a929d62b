"""Feed-cursor restartability: a replica that dies mid-round resumes
from its durable cursor, re-applies the interrupted round idempotently,
and never rescans from zero or double-applies history."""

import pytest

from repro.core.checker import ConsistencyChecker
from repro.errors import ReplicaError
from repro.replica import REPL_CURSOR_TAG, ReplicaServer
from repro.testkit.oracle import harvest_state

from tests.replica.conftest import make_replica, write_file


def _backlog(db, writer, n=5, prefix="/f"):
    for i in range(n):
        write_file(writer, f"{prefix}{i}", f"payload {i}".encode() * 100)
    db.tm.flush_commits()


def test_cursor_is_durable_and_round_granular(tmp_path, primary, writer):
    db, _, feed = primary
    write_file(writer, "/seeded", b"base")
    replica = make_replica(tmp_path, feed)
    seeded = replica.cursor
    _backlog(db, writer)
    # Applying a round advances the durable cursor; pulling alone must not.
    feed.pull(replica.cursor, 4)
    root = replica.db.switch.get(replica.db.switch.default_name)
    assert int(root.read_meta(REPL_CURSOR_TAG)) == seeded
    applied, _more = replica.sync_round()
    assert applied > 0
    assert int(root.read_meta(REPL_CURSOR_TAG)) == replica.cursor > seeded
    replica.close()


def test_crash_mid_round_resumes_without_rescan_or_double_apply(
        tmp_path, primary, writer):
    db, fs, feed = primary
    write_file(writer, "/seeded", b"base")
    replica = make_replica(tmp_path, feed)
    seeded_cursor = replica.cursor
    assert seeded_cursor > 0  # a resume from zero would be a rescan
    _backlog(db, writer)

    # Simulate a replica dying mid-round: half the pulled batch applied
    # to its devices, cursor NOT yet saved.
    entries, _next, _more = feed.pull(replica.cursor, 10_000)
    assert len(entries) >= 4
    replica._apply_round(entries[: len(entries) // 2])
    path = replica.path
    replica.db.simulate_crash()

    # Restart: the durable cursor is still the seeded one — the round
    # never completed — so the replica re-pulls the same round.
    reopened = ReplicaServer.reopen(feed, path, "replica0")
    assert reopened.cursor == seeded_cursor
    applied = reopened.sync()
    assert applied == len(entries)  # the interrupted round, once, whole

    # Idempotent re-apply converged: replica state equals the primary's,
    # storage invariants hold, and no commit was applied twice (the
    # duplicate status appends collapse by xid on refresh).
    assert harvest_state(reopened.fs) == harvest_state(fs)
    assert ConsistencyChecker(reopened.fs).check_all().clean
    assert reopened.horizon() == feed.durable_horizon()
    reopened.close()


def test_full_round_replayed_twice_converges(tmp_path, primary, writer):
    """The worst restart: the whole round applied, crash before the
    cursor save — every entry replays a second time."""
    db, fs, feed = primary
    write_file(writer, "/seeded", b"base")
    replica = make_replica(tmp_path, feed)
    seeded_cursor = replica.cursor
    _backlog(db, writer)
    entries, _next, _more = feed.pull(replica.cursor, 10_000)
    replica._apply_round(entries)  # full round, no cursor save
    path = replica.path
    replica.db.simulate_crash()

    reopened = ReplicaServer.reopen(feed, path, "replica0")
    assert reopened.cursor == seeded_cursor
    assert reopened.sync() == len(entries)
    assert harvest_state(reopened.fs) == harvest_state(fs)
    assert ConsistencyChecker(reopened.fs).check_all().clean
    reopened.close()


def test_reopen_refuses_a_non_replica_directory(tmp_path, primary):
    _, _, feed = primary
    from repro.core.filesystem import InversionFS
    from repro.db.database import Database
    plain = Database.create(str(tmp_path / "plain"))
    InversionFS.mkfs(plain)  # a real file system, but never a replica
    plain.close()
    with pytest.raises(ReplicaError):
        ReplicaServer.reopen(feed, str(tmp_path / "plain"), "impostor")


def test_cursor_below_trimmed_base_demands_reseed(tmp_path, primary, writer):
    from repro.errors import FeedGapError
    db, _, feed = primary
    write_file(writer, "/a", b"x")
    stale = make_replica(tmp_path, feed, "stale")
    fast = make_replica(tmp_path, feed, "fast")
    _backlog(db, writer)
    fast.sync()
    feed.acked.pop("stale")  # the primary forgets a long-dead replica
    feed.trim()
    with pytest.raises(FeedGapError):
        stale.sync()
    stale.close()
    fast.close()


# -- bounded retention ---------------------------------------------------


def test_live_followers_keep_the_log_within_one_sync_interval(
        tmp_path, primary, writer):
    """Every ack trims the primary's log to the slowest cursor and each
    replica drops what it retained below the feed's base: with every
    follower syncing, neither grows past one interval's entries."""
    db, fs, feed = primary
    write_file(writer, "/seeded", b"base")
    replicas = [make_replica(tmp_path, feed, f"r{i}") for i in range(2)]
    for interval in range(4):
        before = feed.next_seq
        _backlog(db, writer, n=2, prefix=f"/i{interval}_")
        assert len(feed.log) == feed.next_seq - before
        for replica in replicas:
            replica.sync()
        assert feed.base_seq == feed.next_seq and feed.log == []
        # A replica trims at its own ack, so the first to sync still
        # holds the interval the others had not yet acked.
        for replica in replicas:
            assert replica._retain_base >= before
            assert len(replica._retained) == replica.cursor - replica._retain_base
    assert replicas[-1]._retained == []
    for replica in replicas:
        assert harvest_state(replica.fs) == harvest_state(fs)
        replica.close()


def test_a_stalled_follower_pins_its_lag_and_resumes(tmp_path, primary,
                                                     writer):
    db, fs, feed = primary
    write_file(writer, "/seeded", b"base")
    stalled = make_replica(tmp_path, feed, "stalled")
    live = make_replica(tmp_path, feed, "live")
    for interval in range(3):
        _backlog(db, writer, n=2, prefix=f"/i{interval}_")
        live.sync()
        assert feed.base_seq == stalled.cursor
        assert len(feed.log) == feed.next_seq - stalled.cursor
    assert stalled.sync() > 0                   # no FeedGapError: no re-seed
    assert feed.base_seq == stalled.cursor == live.cursor
    assert harvest_state(stalled.fs) == harvest_state(fs)
    stalled.close()
    live.close()


def test_promotion_after_trims_lets_followers_resume(tmp_path, primary,
                                                     writer):
    """The promoted replica retains only from the old feed's trimmed
    base, which is every follower's cursor or below, and its new feed
    starts out knowing those cursors."""
    db, fs, feed = primary
    write_file(writer, "/seeded", b"base")
    r0, r1, r2 = (make_replica(tmp_path, feed, f"r{i}") for i in range(3))
    for interval in range(3):
        _backlog(db, writer, n=2, prefix=f"/i{interval}_")
        for replica in (r0, r1, r2):
            replica.sync()
    trimmed = feed.base_seq
    assert 0 < r0._retain_base <= trimmed
    _backlog(db, writer, n=2, prefix="/last")
    r1.sync()                                   # r2 lags, r0 is behind r1
    expected = harvest_state(fs)
    db.simulate_crash()
    new_feed = r0.promote()
    assert new_feed.base_seq == r0._retain_base
    assert new_feed.acked == {"r1": r1.cursor, "r2": trimmed}
    for follower in (r1, r2):
        follower.rebind_feed(new_feed)
        follower.sync()
        assert harvest_state(follower.fs) == expected
    assert new_feed.base_seq == new_feed.next_seq
    for replica in (r0, r1, r2):
        replica.close()

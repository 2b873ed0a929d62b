"""Replica behaviour: seed, sync, read-only RPC, staleness, promotion."""

import json
import os
import re

import pytest

from repro.core.checker import ConsistencyChecker
from repro.core.constants import CHUNK_SIZE, O_RDWR
from repro.core.library import InversionClient
from repro.core.protocol import VERBS, WRITE
from repro.db.database import INDEX_KEY_FORMAT
from repro.errors import (InversionError, ReplicaError, ReplicaReadOnlyError,
                          ReproError)
from repro.testkit.oracle import harvest_state
from repro.testkit.workload import payload

from tests.replica.conftest import make_replica, write_file


def _read(server, path):
    sid = server.connect()
    try:
        fd = server.dispatch(sid, "p_open", path, 0)
        out = b""
        while True:
            chunk = server.dispatch(sid, "p_read", fd, 4096)
            if not chunk:
                break
            out += chunk
        server.dispatch(sid, "p_close", fd)
        return out
    finally:
        server.disconnect(sid)


def test_seed_serves_the_backup_snapshot(tmp_path, primary, writer):
    db, fs, feed = primary
    write_file(writer, "/a", b"seeded content")
    replica = make_replica(tmp_path, feed)
    assert replica.cursor == feed.next_seq
    assert _read(replica, "/a") == b"seeded content"
    assert harvest_state(replica.fs) == harvest_state(fs)
    replica.close()


def test_a_base_backup_carries_the_index_key_format(tmp_path, primary,
                                                    writer):
    write_file(writer, "/a", b"stamped")
    replica = make_replica(tmp_path, primary[2])
    with open(os.path.join(replica.db.path, "devices.json"),
              encoding="utf-8") as f:
        assert json.load(f)["index_key_format"] == INDEX_KEY_FORMAT
    assert _read(replica, "/a") == b"stamped"
    replica.close()


def test_replica_rejects_mutations(tmp_path, primary, writer):
    _, _, feed = primary
    write_file(writer, "/a", b"x")
    replica = make_replica(tmp_path, feed)
    sid = replica.connect()
    with pytest.raises(ReplicaReadOnlyError):
        replica.dispatch(sid, "p_creat", "/nope")
    with pytest.raises(ReplicaReadOnlyError):
        replica.dispatch(sid, "p_unlink", "/a")
    with pytest.raises(ReplicaReadOnlyError):
        replica.dispatch(sid, "p_query", "retrieve (f.all)")
    # The guard is the verb table's ``kind`` column, nothing kept by
    # hand: exactly the write verbs are refused (the guard runs before
    # arity validation, so no arguments are needed to ask).
    refused = set()
    for name in VERBS:
        try:
            replica.dispatch(sid, name)
        except ReplicaReadOnlyError:
            refused.add(name)
        except ReproError:
            pass
    assert refused == {v.name for v in VERBS.values() if v.kind == WRITE}
    assert {"p_query", "p_prepare", "p_resolve"} <= refused
    with pytest.raises(InversionError, match="unknown RPC method"):
        replica.dispatch(sid, "p_format")
    replica.disconnect(sid)
    replica.close()


def test_sync_applies_later_commits(tmp_path, primary, writer):
    db, fs, feed = primary
    write_file(writer, "/a", b"v1")
    replica = make_replica(tmp_path, feed)
    before = replica.horizon()
    write_file(writer, "/b", b"second file")
    db.tm.flush_commits()
    applied = replica.sync()
    assert applied > 0
    assert replica.horizon() > before
    assert _read(replica, "/b") == b"second file"
    assert harvest_state(replica.fs) == harvest_state(fs)
    assert replica.stats.rounds >= 1
    assert replica.stats.bytes_shipped > 0
    replica.close()


def test_uncommitted_writes_stay_invisible(tmp_path, primary, writer):
    """The feed ships raw device writes; visibility is decided by the
    shipped status file, so an in-flight transaction's pages never show
    up in a replica read."""
    db, fs, feed = primary
    write_file(writer, "/a", b"committed")
    replica = make_replica(tmp_path, feed)
    writer.p_begin()
    fd = writer.p_creat("/inflight")
    writer.p_write(fd, b"not yet committed")
    writer.p_close(fd)
    db.buffers.flush_all()  # push the uncommitted pages into the feed
    replica.sync()
    assert _read(replica, "/a") == b"committed"
    sid = replica.connect()
    assert "inflight" not in replica.dispatch(sid, "p_readdir", "/")
    replica.disconnect(sid)
    writer.p_commit()
    db.tm.flush_commits()
    replica.sync()
    assert _read(replica, "/inflight") == b"not yet committed"
    replica.close()


def test_local_read_txn_survives_sync(tmp_path, primary, writer):
    """A replica-local read transaction spans a catch-up sync: refresh
    preserves in-progress records, so commit still succeeds, and the
    shipped status file is untouched (read-only txns append nothing)."""
    db, fs, feed = primary
    write_file(writer, "/a", b"v1")
    replica = make_replica(tmp_path, feed)
    sid = replica.connect()
    replica.dispatch(sid, "p_begin")
    fd = replica.dispatch(sid, "p_open", "/a", 0)
    assert replica.dispatch(sid, "p_read", fd, 100) == b"v1"
    write_file(writer, "/b", b"concurrent")
    db.tm.flush_commits()
    replica.sync()
    replica.dispatch(sid, "p_close", fd)
    replica.dispatch(sid, "p_commit")
    replica.disconnect(sid)
    assert harvest_state(replica.fs) == harvest_state(fs)
    assert ConsistencyChecker(replica.fs).check_all().clean
    replica.close()


def test_bounded_staleness_forces_catch_up(tmp_path, primary, writer):
    db, _, feed = primary
    write_file(writer, "/a", b"v1")
    replica = make_replica(tmp_path, feed, staleness_xids=0)
    write_file(writer, "/b", b"fresh")
    db.tm.flush_commits()
    assert feed.durable_horizon() > replica.horizon()
    assert _read(replica, "/b") == b"fresh"  # the read itself syncs
    assert replica.stats.staleness_syncs >= 1
    assert replica.horizon() == feed.durable_horizon()
    replica.close()


def test_promotion_lifts_read_only_and_followers_rebind(tmp_path, primary,
                                                        writer):
    db, fs, feed = primary
    write_file(writer, "/a", b"before failover")
    r0 = make_replica(tmp_path, feed, "replica0")
    r1 = make_replica(tmp_path, feed, "replica1")
    write_file(writer, "/b", b"backlog")
    db.tm.flush_commits()
    r0.sync()  # r0 is ahead; r1 is stale at failover time
    expected = harvest_state(fs)
    db.simulate_crash()

    new_feed = r0.promote()
    assert not r0.read_only
    assert r0.stats.promotions == 1
    with pytest.raises(ReplicaError):
        r0.promote()  # already primary
    assert harvest_state(r0.fs) == expected

    # The stale follower resumes from its cursor on the new feed.
    r1.rebind_feed(new_feed)
    r1.sync()
    assert harvest_state(r1.fs) == expected

    # The new primary takes writes; the follower ships them.
    sid = r0.connect()
    fd = r0.dispatch(sid, "p_creat", "/after")
    r0.dispatch(sid, "p_write", fd, b"new history")
    r0.dispatch(sid, "p_close", fd)
    r0.disconnect(sid)
    r0.db.tm.flush_commits()
    r1.sync()
    assert _read(r1, "/after") == b"new history"
    assert harvest_state(r1.fs) == harvest_state(r0.fs)
    r0.close()
    r1.close()


def test_a_promoted_replica_allocates_past_the_shipped_oids(tmp_path,
                                                            primary):
    """The oid high-water mark reaches a replica as a shipped meta
    write, and a promoted replica must allocate past it as a reopen of
    the media would.  A replica seeded from a promoted one, then
    promoted in turn, used to reissue the oid of the first file written
    in between — which then read back as the new directory."""
    db, _, feed = primary
    r0 = make_replica(tmp_path, feed, "replica0")
    db.simulate_crash()
    r1 = make_replica(tmp_path, r0.promote(), "replica1")
    write_file(InversionClient(r0.fs), "/f", b"shipped")
    r1.sync()
    r0.db.simulate_crash()
    r1.promote()
    InversionClient(r1.fs).p_mkdir("/d")
    assert harvest_state(r1.fs) == {"/f": b"shipped", "/d": None}
    r1.close()


def test_repl_metrics_are_registered_on_every_member(tmp_path, primary,
                                                     writer):
    db, _, feed = primary
    write_file(writer, "/a", b"x")
    replica = make_replica(tmp_path, feed)
    write_file(writer, "/b", b"y")
    db.tm.flush_commits()
    replica.sync()
    registry = replica.db.obs.metrics
    assert registry.value("repl.rounds") == replica.stats.rounds
    assert registry.value("repl.bytes_shipped") == replica.stats.bytes_shipped
    assert registry.value("repl.cursor_saves") >= 1
    replica.close()


def test_a_table_created_at_the_primary_appears_with_the_next_round(
        tmp_path, primary, writer):
    """Shipped pages change pg_class behind the follower's catalog: a
    syscache and relcache warmed before the round must not outlive it,
    nor show the relation any sooner."""
    db, fs, feed = primary
    write_file(writer, "/a", b"old")
    replica = make_replica(tmp_path, feed)
    rdb = replica.db
    assert _read(replica, "/a") == b"old"          # warms both caches
    assert rdb.catalog.stats.rebuilds == 1
    write_file(writer, "/b", b"new file, new chunk table")
    db.tm.flush_commits()
    table = fs.chunk_table_of("/b")
    assert db.table_exists(table) and not rdb.table_exists(table)
    reader = rdb.begin()
    assert not rdb.table_exists(table, reader)
    assert replica.sync() > 0
    assert rdb.table_exists(table, reader) and rdb.table_exists(table)
    assert rdb.table(table).info == db.table(table).info
    assert _read(replica, "/b") == b"new file, new chunk table"
    assert rdb.catalog.stats.rebuilds == 2
    replica.close()


def test_seed_from_a_fault_wrapped_primary(tmp_path, primary, writer):
    """The failover topology's stacking order — the fault proxy outside
    the feed tap: a base backup reads relations *and* metadata tags
    through both."""
    from repro.testkit import CrashController, FaultyDevice
    db, fs, feed = primary
    write_file(writer, "/a", b"seeded through two proxies")
    ctrl = CrashController()
    db.wrap_devices(lambda dev: FaultyDevice(dev, ctrl))
    replica = make_replica(tmp_path, feed)
    assert _read(replica, "/a") == b"seeded through two proxies"
    assert harvest_state(replica.fs) == harvest_state(fs)
    assert ctrl.reads > 0                    # the copy went through the gates
    replica.close()


# -- the buffer cache across sync rounds ---------------------------------


def _overwrite(writer, path, data, offset=0):
    writer.p_begin()
    fd = writer.p_open(path, O_RDWR)
    writer.p_lseek(fd, 0, offset)
    writer.p_write(fd, data)
    writer.p_close(fd)
    writer.p_commit()


def test_a_round_keeps_the_frames_it_did_not_touch(tmp_path, primary, writer):
    """A round that writes a different file leaves the pages of the one
    just read resident: reading it again costs no buffer miss."""
    db, fs, feed = primary
    write_file(writer, "/a", b"stays warm" * 300)
    replica = make_replica(tmp_path, feed)
    stats = replica.db.buffers.stats
    assert _read(replica, "/a") == b"stays warm" * 300
    write_file(writer, "/b", b"another file")
    db.tm.flush_commits()
    assert replica.sync() > 0
    misses = stats.misses
    assert _read(replica, "/a") == b"stays warm" * 300
    assert stats.misses == misses
    replica.close()


def test_a_rewritten_resident_page_serves_the_shipped_bytes(tmp_path, primary,
                                                            writer):
    """A page the round rewrote takes the shipped image in place: the
    next read sees the new bytes without reading the device."""
    db, fs, feed = primary
    write_file(writer, "/a", b"old bytes")
    replica = make_replica(tmp_path, feed)
    stats = replica.db.buffers.stats
    assert _read(replica, "/a") == b"old bytes"
    _overwrite(writer, "/a", b"NEW")
    db.tm.flush_commits()
    assert replica.sync() > 0
    misses = stats.misses
    assert _read(replica, "/a") == b"NEW bytes"
    assert stats.misses == misses
    replica.close()


def test_vacuum_swap_and_recreate_reach_a_warm_replica(tmp_path, primary,
                                                       writer):
    """Vacuum renames rebuilt relations over the live names, and an
    unlinked file's relation is dropped: frames cached under those
    names before the round must not serve reads after it.  The
    compacted heap puts other chunks on the pages the replica holds,
    and only the pages written after the swap ship under the live
    name, so a stale frame would serve the wrong chunk."""
    db, fs, feed = primary
    model = {"/v": b"v0" * CHUNK_SIZE, "/w": b"w0" * 500}   # /v: 2 chunks
    for path, data in model.items():
        write_file(writer, path, data)
    _overwrite(writer, "/v", b"v1" * 150)         # a new chunk 0 version
    model["/v"] = b"v1" * 150 + model["/v"][300:]
    replica = make_replica(tmp_path, feed)
    for path, data in model.items():           # warm every frame
        assert _read(replica, path) == data
    db.vacuum(fs.chunk_table_of("/v"), keep_history=False)
    writer.p_unlink("/w")
    model["/w"] = b"w1, a new file under the old name"
    write_file(writer, "/w", model["/w"])
    db.vacuum("naming")
    _overwrite(writer, "/v", b"v2" * 1000, offset=2 * CHUNK_SIZE)
    model["/v"] += b"v2" * 1000
    db.tm.flush_commits()
    assert replica.sync() > 0
    for path, data in model.items():
        assert _read(replica, path) == data
    assert harvest_state(replica.fs) == harvest_state(fs)
    assert ConsistencyChecker(replica.fs).check_all().clean
    replica.close()


def test_a_dirty_frame_on_a_replica_is_refused(tmp_path, primary, writer):
    """A read-only replica never dirties a frame; one that is dirty
    anyway would later be written back over a shipped page, so the
    round refuses it by name rather than discard it."""
    db, fs, feed = primary
    write_file(writer, "/a", b"x")
    replica = make_replica(tmp_path, feed)
    assert _read(replica, "/a") == b"x"
    buffers = replica.db.buffers
    dev, rel, pageno = key = next(iter(buffers._frames))
    buffers.mark_dirty(dev, rel, pageno)
    write_file(writer, "/b", b"y")
    db.tm.flush_commits()
    with pytest.raises(ReplicaError, match=re.escape(repr(key))):
        replica.sync()
    assert buffers.dirty_pages() == [key]
    replica.close()


def _seeded_after_six_files(tmp_path, primary, writer):
    """Six 24 KB files committed on the primary, then a replica seeded
    from it, so the base backup carries them."""
    db, _fs, feed = primary
    writer.p_begin()
    for i in range(6):
        fd = writer.p_creat(f"/data{i}")
        writer.p_write(fd, payload(0, f"file{i}", 3 * 8192))
        writer.p_close(fd)
    writer.p_commit()
    db.tm.flush_commits()
    db.flush_caches()
    return make_replica(tmp_path, feed)


def _rewrite(writer, t):
    writer.p_begin()
    fd = writer.p_open(f"/data{t % 6}", O_RDWR)
    writer.p_write(fd, payload(t, "rewrite", 8192))
    writer.p_close(fd)
    writer.p_commit()


def test_a_final_sync_leaves_a_replica_zero_xids_behind(tmp_path, primary,
                                                        writer):
    """Twenty-four rewrites, shipped every sixth commit, then once more."""
    _db, _fs, feed = primary
    replica = _seeded_after_six_files(tmp_path, primary, writer)
    for t in range(24):
        _rewrite(writer, t)
        if t % 6 == 5:
            assert feed.durable_horizon() > replica.horizon()
            replica.sync()
    replica.sync()
    assert feed.durable_horizon() - replica.horizon() == 0
    replica.close()


def test_promotion_drains_every_backlog_entry(tmp_path, primary, writer):
    db, fs, feed = primary
    replica = _seeded_after_six_files(tmp_path, primary, writer)
    for t in range(8):
        _rewrite(writer, t)
    db.tm.flush_commits()
    backlog = feed.next_seq - replica.cursor
    expected = harvest_state(fs)
    db.simulate_crash()
    before = replica.cursor
    replica.promote()
    assert replica.cursor - before == backlog > 0
    assert harvest_state(replica.fs) == expected
    replica.close()

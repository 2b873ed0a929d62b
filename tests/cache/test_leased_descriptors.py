"""Link-local descriptors against the server's: a leased session's
read-only open, its ``SEEK_SET`` seeks and its close send nothing, and
a read the chunk tier cannot answer is one ``p_pread``; inside a
transaction that changed no name, so does a write-mode open of a name
the cache resolves, and its first write is one ``p_pwrite``.

Each script runs five ways — a local :class:`InversionClient`
descriptor (the reference), the ``cached`` remote client, the same
client reading ahead on a miss (``cached_read_ahead``), the same client
speaking the whole light protocol (``cached_light``: both batch sizes
above one) and a ``scheduled`` session with a lease cache — each over a
fresh file system holding the same two files, and all five must return
the same values and fail at the same step with the same error.
``other`` steps are another session's, made straight through the
library: their commits reach the leased sessions as lease notices, as
any writer's do.  The ``…_by_this_session`` scripts change ``/a``
through the session itself between two reads with no seek between
them: what the first read fetched ahead must not answer the second.
An ``in_flight`` step arms another session's commit to land while the
session's next read request is on the server, after the read and
before its reply; and every cache is audited against the committed
state when the run ends (:func:`_audit`): what a reply filled must be
true of the file it is filed under.
"""

from __future__ import annotations

import pytest

from repro.cache import session_cache_factory
from repro.core.client import RPC_BATCH_CHUNKS, RemoteInversionClient
from repro.core.constants import (CHUNK_SIZE, O_RDONLY, O_RDWR, SEEK_CUR,
                                  SEEK_END, SEEK_SET)
from repro.core.fileatt import FileAtt
from repro.core.filesystem import InversionFS
from repro.core.library import InversionClient
from repro.core.server import InversionServer
from repro.db.database import Database
from repro.errors import ReproError
from repro.sched import Apply, Call, MultiUserScheduler, Ref, Txn
from repro.sim.clock import SimClock
from repro.sim.network import ETHERNET_10MBIT, NetworkModel

#: what a call may fail with (a negative seek position is a ValueError).
FAILURES = (ReproError, ValueError)

A = bytes(range(256)) * (2 * CHUNK_SIZE // 256) + b"a" * 300
B = b"B" * (2 * CHUNK_SIZE + 700)
#: a write the light protocol ships at the call (a whole batch), so
#: that its error is the call's on every way.
BATCH = b"x" * (RPC_BATCH_CHUNKS * CHUNK_SIZE)


class FD:
    """The descriptor script step ``step`` returned."""

    def __init__(self, step: int) -> None:
        self.step = step


class Instant(float):
    """A moment of a run's clock: each way's clock runs its own
    course, so the ways agree only that it is one."""


class InFlight(InversionServer):
    """A server on which a commit lands while a read is in flight:
    ``during()``, once armed, runs after the next read request is
    served and before its reply leaves.  ``audit(conn)``, if set, runs
    as a session disconnects, its lease still held."""

    during = None
    audit = None

    def disconnect(self, session_id: int) -> None:
        if self.audit is not None:
            self.audit(session_id)
        super().disconnect(session_id)

    def dispatch(self, session_id: int, method: str, *args, **kwargs):
        result = super().dispatch(session_id, method, *args, **kwargs)
        if method in ("p_read", "p_pread") and self.during is not None:
            during, self.during = self.during, None
            during()
        return result


def off(offset: int) -> tuple[int, int]:
    """``p_lseek``'s (offset_high, offset_low) for ``offset``."""
    return offset >> 32, offset & 0xFFFFFFFF


def rename_b_onto_a(other) -> None:
    other.p_rename("/a", "/gone")
    other.p_rename("/b", "/a")


def write_over_a(other) -> None:
    other.p_begin()
    fd = other.p_open("/a", O_RDWR)
    other.p_write(fd, b"W" * 100)
    other.p_close(fd)
    other.p_commit()


def write_into_a_second_chunk(other) -> None:
    fd = other.p_open("/a", O_RDWR)
    other.p_lseek(fd, *off(CHUNK_SIZE + 10), SEEK_SET)
    other.p_write(fd, b"V" * 100)
    other.p_close(fd)


def grow_a(other) -> None:
    """Overwrite ``/a``'s first bytes and append a chunk to it."""
    fd = other.p_open("/a", O_RDWR)
    other.p_write(fd, b"G" * 100)
    other.p_lseek(fd, *off(len(A)), SEEK_SET)
    other.p_write(fd, b"G" * CHUNK_SIZE)
    other.p_close(fd)


def now(other) -> Instant:
    return Instant(other.fs.db.clock.now())


#: every read-only script opens ``/a`` at step 1, after a stat that
#: caches its name (so a leased session opens it locally); the
#: write-mode scripts, last, open inside a transaction.
SCRIPTS = {
    "renamed_away_and_replaced": [
        ("p_stat", "/a"), ("p_open", "/a", O_RDONLY),
        ("p_lseek", FD(1), *off(CHUNK_SIZE), SEEK_SET),
        ("p_read", FD(1), 50),
        ("other", rename_b_onto_a),
        ("p_read", FD(1), 50),
        ("p_lseek", FD(1), *off(10), SEEK_SET),
        ("p_read", FD(1), CHUNK_SIZE),
        ("p_close", FD(1))],
    "written_by_another_session": [
        ("p_stat", "/a"), ("p_open", "/a", O_RDONLY),
        ("p_read", FD(1), CHUNK_SIZE),
        ("other", write_over_a),
        ("p_lseek", FD(1), *off(0), SEEK_SET),
        ("p_read", FD(1), CHUNK_SIZE),
        ("p_close", FD(1))],
    "written_inside_what_was_read_ahead": [
        ("p_stat", "/a"), ("p_open", "/a", O_RDONLY),
        ("p_read", FD(1), CHUNK_SIZE),
        ("other", write_into_a_second_chunk),
        ("p_read", FD(1), CHUNK_SIZE),
        ("p_close", FD(1))],
    "unlinked_then_read": [
        ("p_stat", "/a"), ("p_open", "/a", O_RDONLY),
        ("p_read", FD(1), 10),
        ("other", lambda other: other.p_unlink("/a")),
        ("p_read", FD(1), 10)],
    "written_through_a_read_only_descriptor": [
        ("p_stat", "/a"), ("p_open", "/a", O_RDONLY),
        ("p_lseek", FD(1), *off(5), SEEK_SET),
        ("p_write", FD(1), b"x")],
    "seek_end": [
        ("p_stat", "/a"), ("p_open", "/a", O_RDONLY),
        ("p_lseek", FD(1), *off(-10), SEEK_END),
        ("p_read", FD(1), 100),
        ("p_lseek", FD(1), *off(3), SEEK_SET),
        ("p_read", FD(1), 4),
        ("p_close", FD(1))],
    "seek_cur": [
        ("p_stat", "/a"), ("p_open", "/a", O_RDONLY),
        ("p_lseek", FD(1), *off(100), SEEK_SET),
        ("p_lseek", FD(1), *off(7), SEEK_CUR),
        ("p_read", FD(1), 20),
        ("p_close", FD(1))],
    "negative_seek_set": [
        ("p_stat", "/a"), ("p_open", "/a", O_RDONLY),
        ("p_read", FD(1), 10),
        ("p_lseek", FD(1), *off(-5), SEEK_SET),
        ("p_read", FD(1), 1)],
    "opened_outside_read_inside_a_writing_transaction": [
        ("p_stat", "/a"), ("p_open", "/a", O_RDONLY),
        ("p_read", FD(1), 10),
        ("p_begin",),
        ("p_open", "/a", O_RDWR),
        ("p_write", FD(4), b"T" * (CHUNK_SIZE + 40)),
        ("p_close", FD(4)),
        ("p_lseek", FD(1), *off(0), SEEK_SET),
        ("p_read", FD(1), CHUNK_SIZE + 100),
        ("p_commit",),
        ("p_lseek", FD(1), *off(CHUNK_SIZE), SEEK_SET),
        ("p_read", FD(1), 100),
        ("p_close", FD(1))],
    "renamed_by_this_session": [
        ("p_stat", "/a"), ("p_open", "/a", O_RDONLY),
        ("p_read", FD(1), 50),
        ("p_rename", "/a", "/gone"), ("p_rename", "/b", "/a"),
        ("p_read", FD(1), 50),
        ("p_close", FD(1))],
    "written_by_this_session_in_a_transaction": [
        ("p_stat", "/a"), ("p_open", "/a", O_RDONLY),
        ("p_read", FD(1), 50),
        ("p_begin",),
        ("p_open", "/a", O_RDWR),
        ("p_write", FD(4), b"S" * 100),
        ("p_close", FD(4)),
        ("p_commit",),
        ("p_read", FD(1), 50),
        ("p_close", FD(1))],
    "written_by_this_session_auto_commit": [
        ("p_stat", "/a"), ("p_open", "/a", O_RDONLY),
        ("p_read", FD(1), 50),
        ("p_open", "/a", O_RDWR),
        ("p_write", FD(3), b"S" * 100),
        ("p_close", FD(3)),
        ("p_read", FD(1), 50),
        ("p_close", FD(1))],
    "a_missing_name_fails_at_the_open": [
        ("p_stat", "/a"), ("p_open", "/nope", O_RDONLY)],
    "unlinked_in_the_session_transaction_then_opened": [
        ("p_stat", "/a"), ("p_begin",), ("p_unlink", "/a"),
        ("p_open", "/a", O_RDONLY)],
    # A miss's reply brings the att: never one of another file, never
    # one a commit overtook, never a directory's or a past one.
    "renamed_away_and_replaced_before_the_first_read": [
        ("p_stat", "/a"), ("p_open", "/a", O_RDONLY),
        ("other", rename_b_onto_a),
        ("p_read", FD(1), 50),
        ("p_open", "/gone", O_RDONLY),
        ("p_stat", "/gone"),
        ("p_read", FD(4), 50),
        ("p_stat", "/a"),
        ("p_close", FD(1)), ("p_close", FD(4))],
    "grown_while_the_read_is_in_flight": [
        ("p_stat", "/a"), ("p_open", "/a", O_RDONLY),
        ("in_flight", grow_a),
        ("p_read", FD(1), 50),
        ("p_stat", "/a"),
        ("p_lseek", FD(1), *off(0), SEEK_SET),
        ("p_read", FD(1), 150),
        ("p_lseek", FD(1), *off(len(A)), SEEK_SET),
        ("p_read", FD(1), 50),
        ("p_close", FD(1))],
    "read_beside_a_size_this_session_left_pending": [
        ("p_stat", "/a"), ("p_open", "/a", O_RDWR),
        ("p_lseek", FD(1), *off(len(A)), SEEK_SET),
        ("p_write", FD(1), b"P" * 100),
        ("p_open", "/a", O_RDONLY),
        ("p_read", FD(4), 50),
        ("p_stat", "/a"),
        ("p_close", FD(1)), ("p_close", FD(4))],
    "a_directory_read_through_a_local_descriptor": [
        ("other", lambda other: other.p_mkdir("/d")),
        ("p_stat", "/a"),
        ("p_open", "/d", O_RDONLY), ("p_close", FD(2)),
        ("p_open", "/d", O_RDONLY),
        ("p_read", FD(4), 10)],
    "opened_in_the_past": [
        ("other", now),
        ("other", write_over_a),
        ("p_stat", "/a"),
        ("p_open", "/a", O_RDONLY, FD(0)),
        ("p_read", FD(3), 200),
        ("p_open", "/a", O_RDONLY),
        ("p_read", FD(5), 200),
        ("p_stat", "/a"),
        ("p_close", FD(3)), ("p_close", FD(5))],
    # Write-mode opens inside a transaction.
    "written_once_and_closed": [
        ("p_stat", "/a"), ("p_begin",),
        ("p_open", "/a", O_RDWR),
        ("p_lseek", FD(2), *off(CHUNK_SIZE + 10), SEEK_SET),
        ("p_write", FD(2), b"W" * 100),
        ("p_close", FD(2)),
        ("p_commit",),
        ("p_stat", "/a"),
        ("p_open", "/a", O_RDONLY),
        ("p_lseek", FD(8), *off(CHUNK_SIZE), SEEK_SET),
        ("p_read", FD(8), 120),
        ("p_close", FD(8))],
    "written_twice": [
        ("p_stat", "/a"), ("p_begin",),
        ("p_open", "/a", O_RDWR),
        ("p_lseek", FD(2), *off(len(A) - 50), SEEK_SET),
        ("p_write", FD(2), b"1" * 100),
        ("p_write", FD(2), b"2" * 100),
        ("p_lseek", FD(2), *off(len(A) - 60), SEEK_SET),
        ("p_read", FD(2), 300),
        ("p_close", FD(2)),
        ("p_commit",),
        ("p_stat", "/a"),
        ("p_open", "/a", O_RDONLY),
        ("p_lseek", FD(11), *off(len(A) - 60), SEEK_SET),
        ("p_read", FD(11), 300),
        ("p_close", FD(11))],
    "read_back_before_the_close": [
        ("p_stat", "/a"), ("p_begin",),
        ("p_open", "/a", O_RDWR),
        ("p_lseek", FD(2), *off(len(A)), SEEK_SET),
        ("p_write", FD(2), b"R" * 100),
        ("p_open", "/a", O_RDONLY),
        ("p_lseek", FD(5), *off(len(A) - 10), SEEK_SET),
        ("p_read", FD(5), 50),
        ("p_lseek", FD(2), *off(len(A) - 20), SEEK_SET),
        ("p_read", FD(2), 50),
        ("p_close", FD(2)), ("p_close", FD(5)),
        ("p_commit",),
        ("p_stat", "/a")],
    "stat_before_the_close": [
        ("p_stat", "/a"), ("p_begin",),
        ("p_open", "/a", O_RDWR),
        ("p_lseek", FD(2), *off(len(A)), SEEK_SET),
        ("p_write", FD(2), b"S" * 100),
        ("p_stat", "/a"),
        ("p_close", FD(2)),
        ("p_stat", "/a"),
        ("p_commit",),
        ("p_stat", "/a")],
    "renamed_in_the_transaction_then_opened_for_writing": [
        ("p_stat", "/a"), ("p_begin",),
        ("p_rename", "/a", "/gone"),
        ("p_open", "/a", O_RDWR)],
    "unlinked_in_the_transaction_then_opened_for_writing": [
        ("p_stat", "/a"), ("p_stat", "/b"), ("p_begin",),
        ("p_unlink", "/a"),
        ("p_open", "/b", O_RDWR),
        ("p_write", FD(4), b"U" * 10),
        ("p_close", FD(4)),
        ("p_open", "/a", O_RDWR)],
    "a_missing_name_opened_for_writing": [
        ("p_stat", "/a"), ("p_begin",),
        ("p_open", "/nope", O_RDWR)],
    "unlinked_by_another_session_between_the_open_and_the_write": [
        ("p_stat", "/a"), ("p_begin",),
        ("p_open", "/a", O_RDWR),
        ("other", lambda other: other.p_unlink("/a")),
        ("p_write", FD(2), BATCH)],
    "grown_by_the_session_then_read_through_an_older_descriptor": [
        ("p_stat", "/a"), ("p_begin",),
        ("p_open", "/a", O_RDONLY),
        ("p_read", FD(2), 10),
        ("p_open", "/a", O_RDWR),
        ("p_lseek", FD(4), *off(len(A)), SEEK_SET),
        ("p_write", FD(4), b"g" * 100),
        ("p_lseek", FD(2), *off(len(A) - 10), SEEK_SET),
        ("p_read", FD(2), 50),
        ("p_close", FD(4)),
        ("p_lseek", FD(2), *off(len(A) + 90), SEEK_SET),
        ("p_read", FD(2), 50),
        ("p_close", FD(2)),
        ("p_commit",),
        ("p_stat", "/a")],
    "a_directory_opened_for_writing": [
        ("other", lambda other: other.p_mkdir("/d")),
        ("p_stat", "/d"), ("p_begin",),
        ("p_open", "/d", O_RDWR),
        ("p_write", FD(3), BATCH)],
}


def _mount(workdir: str) -> InversionFS:
    fs = InversionFS.mkfs(Database.create(workdir, clock=SimClock()))
    tx = fs.begin()
    fs.write_file(tx, "/a", A)
    fs.write_file(tx, "/b", B)
    fs.commit(tx)
    return fs


def _shown(result):
    """A result as the three ways can agree on it: a descriptor is a
    number each one chooses, and a stat's times follow its clock."""
    if isinstance(result, FileAtt):
        return ("att", result.size, result.type)
    if isinstance(result, Instant):
        return "instant"
    return result


def _audit(cache, fs) -> list[str]:
    """What ``cache`` holds (its lease channel drained first) that the
    committed state of ``fs`` contradicts: a name resolving elsewhere
    or a known-absent one present, an att other than the file's row,
    a chunk other than the file's bytes."""
    cache.poll()
    snap = fs._snap(None)
    untrue = []
    for path, oid in cache._paths.items():
        if fs.namespace.try_resolve(path, snap) != oid:
            untrue.append(f"name {path} -> {oid}")
    for path in cache._negative:
        if fs.namespace.try_resolve(path, snap) is not None:
            untrue.append(f"absent {path}")
    for oid, att in cache._atts.items():
        try:
            row = fs.fileatt.get(oid, snap)
        except ReproError:
            row = None
        if att.file != oid or row is None or att.to_row() != row.to_row():
            untrue.append(f"att of {oid}: {att}")
    for (oid, chunkno), (payload, _owner) in cache._chunks.items():
        data = fs.read_file_by_id(oid, snap)
        if payload != data[chunkno * CHUNK_SIZE:(chunkno + 1) * CHUNK_SIZE]:
            untrue.append(f"chunk {chunkno} of {oid}")
    return untrue


def _drive(script, send, other, arm) -> tuple[list, object]:
    """Run ``script`` through ``send(verb, *args)``; the values, and the
    error it stopped at (or None).  ``arm(fn)`` makes ``fn`` land
    while the next read is in flight."""
    values: list = []
    for step in script:
        if step[0] == "other":
            values.append(step[1](other))
            continue
        if step[0] == "in_flight":
            values.append(arm(lambda fn=step[1]: fn(other)))
            continue
        args = [values[a.step] if isinstance(a, FD) else a
                for a in step[1:]]
        try:
            values.append(send(step[0], *args))
        except FAILURES as exc:
            return values, exc
    return values, None


def run_local(workdir: str, script):
    """The reference: what lands while a read is in flight lands right
    after it."""
    fs = _mount(workdir)
    me, other = InversionClient(fs), InversionClient(fs)
    armed = []

    def send(verb, *args):
        try:
            return getattr(me, verb)(*args)
        finally:
            if verb == "p_read" and armed:
                armed.pop()()

    try:
        return _drive(script, send, other, armed.append)
    finally:
        fs.db.close()


def run_cached(workdir: str, script, **batching):
    fs = _mount(workdir)
    network = NetworkModel(clock=fs.db.clock, params=ETHERNET_10MBIT)
    server = InFlight(fs)
    client = RemoteInversionClient(
        server, network, cache_factory=session_cache_factory(64, 32),
        **batching)
    try:
        outcome = _drive(
            script, lambda verb, *a: getattr(client, verb)(*a),
            InversionClient(fs), lambda fn: setattr(server, "during", fn))
        assert _audit(client._cache, fs) == []
        return outcome
    finally:
        client.close()
        fs.db.close()


def run_cached_read_ahead(workdir: str, script):
    """The cached client whose misses read ahead, as a replica
    reader's do."""
    return run_cached(workdir, script, read_batch_chunks=RPC_BATCH_CHUNKS)


def run_cached_light(workdir: str, script):
    """The cached client on the whole light protocol, as the replicated
    cluster's clients speak it."""
    return run_cached(workdir, script, read_batch_chunks=RPC_BATCH_CHUNKS,
                      write_batch_chunks=RPC_BATCH_CHUNKS)


def run_scheduled(workdir: str, script):
    """One scheduler session: the script's calls are its program, each
    ``other`` step an Apply (in a transaction of its own outside a
    block; run by the other session, whatever transaction it is
    handed), and ``p_begin`` … ``p_commit`` a Txn."""
    fs = _mount(workdir)
    other = InversionClient(fs)
    server = InFlight(fs)
    program, ordinals, block = [], {}, None
    ordinal = 0
    for i, step in enumerate(script):
        if step[0] == "p_begin":
            block = []
            continue
        if step[0] == "p_commit":
            program.append(Txn(block))
            block = None
            continue
        if step[0] == "other":
            item = Apply("other", lambda fs, tx, fn=step[1]: fn(other))
            if block is None:
                item = Txn([item])
        elif step[0] == "in_flight":
            item = Txn([Apply("in_flight", lambda fs, tx, fn=step[1]: setattr(
                server, "during", lambda: fn(other)))])
        else:
            args = [Ref(ordinals[a.step]) if isinstance(a, FD) else a
                    for a in step[1:]]
            item = Call(step[0], *args)
        ordinals[i] = ordinal
        ordinal += 1
        (block if block is not None else program).append(item)
    if block is not None:
        program.append(Txn(block))
    caches, untrue = {}, []
    factory = session_cache_factory()

    def keep(server, conn):
        caches[conn] = factory(server, conn)
        return caches[conn]

    server.audit = lambda conn: untrue.extend(_audit(caches[conn], fs))
    sched = MultiUserScheduler(server, seed=0, cache_factory=keep)
    error = None
    try:
        session = sched.add_session(program)
        try:
            sched.run(strict=True)
        except FAILURES as exc:
            error = exc
    finally:
        sched.close()
        fs.db.close()
    assert untrue == []
    values = []
    for i, step in enumerate(script):
        if i in ordinals:
            if ordinals[i] not in session.values:
                break
            values.append(session.values[ordinals[i]])
        else:
            values.append(None)         # p_begin / p_commit
    return values, error


def _outcome(values, error) -> tuple:
    shown = [_shown(v) for v in values]
    return shown, None if error is None else (type(error), str(error))


@pytest.mark.parametrize("run", [run_cached, run_cached_read_ahead,
                                 run_cached_light, run_scheduled],
                         ids=["cached", "cached_read_ahead", "cached_light",
                              "scheduled"])
@pytest.mark.parametrize("name", sorted(SCRIPTS))
def test_a_leased_descriptor_answers_as_the_servers_does(tmp_path, run,
                                                         name):
    script = SCRIPTS[name]
    want_values, want_error = run_local(str(tmp_path / "local"), script)
    got_values, got_error = run(str(tmp_path / "leased"), script)
    descriptors = {i for i, step in enumerate(script)
                   if step[0] == "p_open"}
    for i in descriptors:
        if i < len(want_values):
            want_values[i] = "fd"
        if i < len(got_values):
            got_values[i] = "fd"
    assert _outcome(got_values, got_error) == _outcome(want_values,
                                                       want_error)


def test_the_scripts_reach_what_they_are_named_for(tmp_path):
    """The reference run shows each hazard: a reader of a replaced name
    sees the new file's bytes, and the error cases fail where named."""
    values, error = run_local(str(tmp_path / "r"),
                              SCRIPTS["renamed_away_and_replaced"])
    assert error is None
    assert values[3] == A[CHUNK_SIZE:CHUNK_SIZE + 50]
    assert values[5] == B[CHUNK_SIZE + 50:CHUNK_SIZE + 100]
    values, error = run_local(str(tmp_path / "own"),
                              SCRIPTS["renamed_by_this_session"])
    assert error is None and values[5] == B[50:100]
    for name, read in [("written_by_this_session_in_a_transaction", 8),
                       ("written_by_this_session_auto_commit", 6)]:
        values, error = run_local(str(tmp_path / name), SCRIPTS[name])
        assert error is None and values[read] == b"S" * 50, name
    values, error = run_local(
        str(tmp_path / "before"),
        SCRIPTS["renamed_away_and_replaced_before_the_first_read"])
    assert error is None and values[3] == B[:50] and values[6] == A[:50]
    assert [_shown(values[i]) for i in (5, 7)] == [
        ("att", len(A), "plain"), ("att", len(B), "plain")]
    values, error = run_local(str(tmp_path / "grown"),
                              SCRIPTS["grown_while_the_read_is_in_flight"])
    assert error is None and values[3] == A[:50]
    assert _shown(values[4]) == ("att", len(A) + CHUNK_SIZE, "plain")
    assert values[6] == b"G" * 100 + A[100:150]
    values, error = run_local(
        str(tmp_path / "pending"),
        SCRIPTS["read_beside_a_size_this_session_left_pending"])
    assert error is None and values[5] == A[:50]
    assert _shown(values[6]) == ("att", len(A) + 100, "plain")
    values, error = run_local(str(tmp_path / "past"),
                              SCRIPTS["opened_in_the_past"])
    assert error is None and values[4] == A[:200]
    assert values[6] == b"W" * 100 + A[100:200]
    values, error = run_local(str(tmp_path / "once"),
                              SCRIPTS["written_once_and_closed"])
    assert error is None and values[10] == (
        A[CHUNK_SIZE:CHUNK_SIZE + 10] + b"W" * 100
        + A[CHUNK_SIZE + 110:CHUNK_SIZE + 120])
    values, error = run_local(str(tmp_path / "twice"),
                              SCRIPTS["written_twice"])
    assert error is None
    assert values[7] == values[13] == A[-60:-50] + b"1" * 100 + b"2" * 100
    assert _shown(values[10]) == ("att", len(A) + 150, "plain")
    # Before the close, another descriptor reads what the write added.
    values, error = run_local(str(tmp_path / "back"),
                              SCRIPTS["read_back_before_the_close"])
    assert error is None and values[7] == A[-10:] + b"R" * 40
    assert values[9] == A[-20:] + b"R" * 30
    values, error = run_local(str(tmp_path / "stat"),
                              SCRIPTS["stat_before_the_close"])
    assert error is None
    assert _shown(values[5]) == ("att", len(A) + 100, "plain")
    for name, failing_step in [("unlinked_then_read", 4),
                               ("a_directory_read_through_a_local_"
                                "descriptor", 5),
                               ("written_through_a_read_only_descriptor", 3),
                               ("negative_seek_set", 4),
                               ("a_missing_name_fails_at_the_open", 1),
                               ("unlinked_in_the_session_transaction_"
                                "then_opened", 3),
                               ("renamed_in_the_transaction_then_opened_"
                                "for_writing", 3),
                               ("unlinked_in_the_transaction_then_opened_"
                                "for_writing", 7),
                               ("a_missing_name_opened_for_writing", 2),
                               ("unlinked_by_another_session_between_the_"
                                "open_and_the_write", 4),
                               ("a_directory_opened_for_writing", 4)]:
        values, error = run_local(str(tmp_path / name), SCRIPTS[name])
        assert error is not None and len(values) == failing_step, name


def _dispatches(fs) -> dict[str, float]:
    family = fs.db.obs.metrics.get("rpc.dispatches")
    return {labels[0]: value for labels, value in family.series().items()}


def _delta(before: dict, after: dict) -> dict:
    return {k: v - before.get(k, 0) for k, v in after.items()
            if v != before.get(k, 0)}


def test_cached_client_warm_unit_sends_nothing_and_a_miss_one_pread(
        tmp_path):
    fs = _mount(str(tmp_path / "db"))
    network = NetworkModel(clock=fs.db.clock, params=ETHERNET_10MBIT)
    client = RemoteInversionClient(
        InversionServer(fs), network,
        cache_factory=session_cache_factory(64, 32))
    try:
        client.p_stat("/a")
        d0 = _dispatches(fs)
        fd = client.p_open("/a", O_RDONLY)
        assert client.p_lseek(fd, *off(CHUNK_SIZE), SEEK_SET) == CHUNK_SIZE
        assert client.p_read(fd, CHUNK_SIZE) == A[CHUNK_SIZE:2 * CHUNK_SIZE]
        client.p_close(fd)
        assert _delta(d0, _dispatches(fs)) == {"p_pread": 1}
        d1, m1 = _dispatches(fs), network.stats.messages
        fd = client.p_open("/a", O_RDONLY)
        assert client.p_lseek(fd, *off(CHUNK_SIZE), SEEK_SET) == CHUNK_SIZE
        assert client.p_read(fd, CHUNK_SIZE) == A[CHUNK_SIZE:2 * CHUNK_SIZE]
        client.p_close(fd)
        assert _delta(d1, _dispatches(fs)) == {}
        assert network.stats.messages == m1
        hits = client._cache.stats.hits
        assert (hits["open"], hits["seek"], hits["chunk"]) == (2, 2, 1)
    finally:
        client.close()
        fs.db.close()


def test_scheduled_warm_unit_sends_nothing_and_a_miss_one_pread(tmp_path):
    fs = _mount(str(tmp_path / "db"))
    factory = session_cache_factory()
    program = [Call("p_stat", "/a")]
    for unit in range(2):
        fd = Ref(1 + 4 * unit)
        program += [Call("p_open", "/a", O_RDONLY),
                    Call("p_lseek", fd, *off(CHUNK_SIZE), SEEK_SET),
                    Call("p_read", fd, CHUNK_SIZE),
                    Call("p_close", fd)]
    sched = MultiUserScheduler(InversionServer(fs), seed=0,
                               cache_factory=factory)
    try:
        session = sched.add_session(program)
        d0 = _dispatches(fs) if "rpc.dispatches" in fs.db.obs.metrics else {}
        sched.run(strict=True)
        # the stat, and one p_pread for the first unit's read: the
        # second unit sent nothing.
        assert _delta(d0, _dispatches(fs)) == {"p_stat": 1, "p_pread": 1}
        chunk = A[CHUNK_SIZE:2 * CHUNK_SIZE]
        assert session.values[3] == session.values[7] == chunk
        hits = factory.stats.hits
        assert (hits["open"], hits["seek"], hits["chunk"]) == (2, 2, 1)
    finally:
        sched.close()
        fs.db.close()


def _unit(send) -> list:
    """A read unit on ``/a`` through ``send(verb, *args)``: open,
    ``SEEK_SET`` to the second chunk, read it, close, stat."""
    fd = send("p_open", "/a", O_RDONLY)
    values = [send("p_lseek", fd, *off(CHUNK_SIZE), SEEK_SET),
              send("p_read", fd, CHUNK_SIZE)]
    send("p_close", fd)
    values.append(_shown(send("p_stat", "/a")))
    return values


#: what a unit reads of ``/a`` once ``write_into_a_second_chunk`` ran.
WRITTEN_UNIT = [CHUNK_SIZE,
                A[CHUNK_SIZE:CHUNK_SIZE + 10] + b"V" * 100
                + A[CHUNK_SIZE + 110:2 * CHUNK_SIZE],
                ("att", len(A), "plain")]


def test_cached_client_miss_after_a_commit_brings_the_att(tmp_path):
    """Another session's commit drops ``/a``'s att and chunks; the next
    unit sends one p_pread, whose reply brings the att, so its stat is
    an att hit, and the unit after it sends nothing."""
    fs = _mount(str(tmp_path / "db"))
    network = NetworkModel(clock=fs.db.clock, params=ETHERNET_10MBIT)
    client = RemoteInversionClient(
        InversionServer(fs), network,
        cache_factory=session_cache_factory(64, 32))
    send = lambda verb, *a: getattr(client, verb)(*a)  # noqa: E731
    try:
        client.p_stat("/a")
        write_into_a_second_chunk(InversionClient(fs))
        d0, b0 = _dispatches(fs), network.stats.bytes_sent
        assert _unit(send) == WRITTEN_UNIT
        assert _delta(d0, _dispatches(fs)) == {"p_pread": 1}
        # The reply counts the att's bytes: five numbers, owner, type.
        request = 64 + len("/a") + 8 + 8
        reply = 32 + CHUNK_SIZE + 5 * 8 + len("root") + len("plain")
        assert network.stats.bytes_sent - b0 == request + reply
        d1, m1 = _dispatches(fs), network.stats.messages
        assert _unit(send) == WRITTEN_UNIT
        assert _delta(d1, _dispatches(fs)) == {}
        assert network.stats.messages == m1
        stats = client._cache.stats
        assert (stats.hits["att"], stats.hits["chunk"]) == (2, 1)
        assert stats.misses == {"att": 1, "chunk": 1}
    finally:
        client.close()
        fs.db.close()


def test_scheduled_miss_after_a_commit_brings_the_att(tmp_path):
    """The same on a scheduler session: besides the first stat and the
    transaction that runs the other session's write, one p_pread."""
    fs = _mount(str(tmp_path / "db"))
    factory = session_cache_factory()
    other = InversionClient(fs)
    program = [Call("p_stat", "/a"),
               Txn([Apply("other", lambda fs, tx: write_into_a_second_chunk(
                   other))])]
    for unit in range(2):
        fd = Ref(2 + 5 * unit)
        program += [Call("p_open", "/a", O_RDONLY),
                    Call("p_lseek", fd, *off(CHUNK_SIZE), SEEK_SET),
                    Call("p_read", fd, CHUNK_SIZE),
                    Call("p_close", fd),
                    Call("p_stat", "/a")]
    sched = MultiUserScheduler(InversionServer(fs), seed=0,
                               cache_factory=factory)
    try:
        session = sched.add_session(program)
        d0 = _dispatches(fs) if "rpc.dispatches" in fs.db.obs.metrics else {}
        sched.run(strict=True)
        assert _delta(d0, _dispatches(fs)) == {
            "p_stat": 1, "p_begin": 1, "p_commit": 1, "p_pread": 1}
        for unit in range(2):
            first = 2 + 5 * unit
            assert [session.values[first + 1], session.values[first + 2],
                    _shown(session.values[first + 4])] == WRITTEN_UNIT
        stats = factory.stats
        assert (stats.hits["att"], stats.hits["chunk"]) == (2, 1)
        assert stats.misses == {"att": 1, "chunk": 1}
    finally:
        sched.close()
        fs.db.close()


def _write_unit(first: int, tag: bytes) -> Txn:
    """A write unit on ``/a`` whose open is the session's call
    ``first``: open ``O_RDWR``, ``SEEK_SET`` to the second chunk, write
    100 bytes, close, in one transaction."""
    return Txn([Call("p_open", "/a", O_RDWR),
                Call("p_lseek", Ref(first), *off(CHUNK_SIZE), SEEK_SET),
                Call("p_write", Ref(first), tag * 100),
                Call("p_close", Ref(first))])


def test_scheduled_warm_write_unit_sends_begin_pwrite_commit(tmp_path):
    """A cold name sends the real open, seek, write and close; the
    reply leases the name, so the next unit sends p_begin, p_pwrite
    and p_commit."""
    fs = _mount(str(tmp_path / "db"))
    factory = session_cache_factory()
    sched = MultiUserScheduler(InversionServer(fs), seed=0,
                               cache_factory=factory)
    try:
        sched.add_session([_write_unit(0, b"1"), _write_unit(4, b"2")])
        d0 = _dispatches(fs) if "rpc.dispatches" in fs.db.obs.metrics else {}
        sched.run(strict=True)
        assert _delta(d0, _dispatches(fs)) == {
            "p_begin": 2, "p_open": 1, "p_lseek": 1, "p_write": 1,
            "p_close": 1, "p_pwrite": 1, "p_commit": 2}
        assert (factory.stats.hits["open"], factory.stats.hits["seek"]) \
            == (1, 1)
        assert fs.read_file("/a") == (A[:CHUNK_SIZE] + b"2" * 100
                                      + A[CHUNK_SIZE + 100:])
    finally:
        sched.close()
        fs.db.close()


def test_cached_client_warm_write_unit_sends_begin_pwrite_commit(tmp_path):
    fs = _mount(str(tmp_path / "db"))
    network = NetworkModel(clock=fs.db.clock, params=ETHERNET_10MBIT)
    client = RemoteInversionClient(
        InversionServer(fs), network,
        cache_factory=session_cache_factory(64, 32))
    try:
        client.p_stat("/a")
        d0 = _dispatches(fs)
        client.p_begin()
        fd = client.p_open("/a", O_RDWR)
        assert client.p_lseek(fd, *off(CHUNK_SIZE), SEEK_SET) == CHUNK_SIZE
        assert client.p_write(fd, b"2" * 100) == 100
        client.p_close(fd)
        client.p_commit()
        assert _delta(d0, _dispatches(fs)) == {
            "p_begin": 1, "p_pwrite": 1, "p_commit": 1}
        assert fs.read_file("/a") == (A[:CHUNK_SIZE] + b"2" * 100
                                      + A[CHUNK_SIZE + 100:])
    finally:
        client.close()
        fs.db.close()


@pytest.mark.parametrize("run", [run_local, run_scheduled],
                         ids=["local", "scheduled"])
def test_an_older_descriptor_reads_the_sessions_growth(tmp_path, run):
    """A descriptor that read before the session grew the file in its
    transaction reads up to the new end, before and after the writer's
    close — on a local client, and on a leased session whose writer is
    the link's."""
    values, error = run(
        str(tmp_path),
        SCRIPTS["grown_by_the_session_then_read_through_an_older_descriptor"])
    assert error is None
    assert values[8] == A[-10:] + b"g" * 40
    assert values[11] == b"g" * 10
    assert values[-1].size == len(A) + 100

"""Leased sharded sessions against unleased ones: the sharded client's
verbs go through its shard links' rules, each shard enlisted in an open
cluster transaction first.

Each script runs three ways over a fresh two-shard cluster (``/a`` on
shard 0, ``/b`` on shard 1) holding the same files — an uncached
cluster client (the reference), a leased one, and a session of
:class:`~repro.shard.ShardedScheduler` (leased, as all of its sessions
are) — and all three must return the same values and fail at the same
step with the same error.  ``other`` steps are another cluster client's:
their commits reach the leased sessions as lease notices, as any
writer's do.  An ``enlisted`` step reads which shards hold a transaction
of the session's: a verb answered on the link inside a cluster
transaction still enlists its shard, as an unleased client's request
does.
"""

from __future__ import annotations

import pytest

from repro.core.constants import (CHUNK_SIZE, O_RDONLY, O_RDWR, SEEK_CUR,
                                  SEEK_END, SEEK_SET)
from repro.core.fileatt import FileAtt
from repro.core.library import InversionClient
from repro.errors import ReproError
from repro.sched import Call, Ref, Txn
from repro.shard import ClientOp, ShardedCluster, ShardedScheduler

#: what a call may fail with (a negative seek position is a ValueError).
FAILURES = (ReproError, ValueError)

A = bytes(range(256)) * (2 * CHUNK_SIZE // 256) + b"a" * 300
B = b"B" * (2 * CHUNK_SIZE + 700)
H = b"h" * (CHUNK_SIZE + 900)


class FD:
    """The descriptor script step ``step`` returned."""

    def __init__(self, step: int) -> None:
        self.step = step


def off(offset: int) -> tuple[int, int]:
    """``p_lseek``'s (offset_high, offset_low) for ``offset``."""
    return offset >> 32, offset & 0xFFFFFFFF


def rename_g_onto_f(other) -> None:
    other.p_rename("/a/f", "/a/gone")
    other.p_rename("/a/g", "/a/f")


def enlisted(client) -> list[int]:
    """The shards holding a transaction of ``client``'s."""
    return [k for k in range(client.cluster.nshards)
            if client.xid_on(k) is not None]


#: every read-only script opens ``/a/f`` at step 1, after a stat that
#: caches its name (so a leased session opens it locally); the
#: write-mode scripts, last, open inside a cluster transaction.
SCRIPTS = {
    "opened_outside_read_inside_a_transaction_on_the_other_shard": [
        ("p_stat", "/a/f"), ("p_open", "/a/f", O_RDONLY),
        ("p_read", FD(1), CHUNK_SIZE),
        ("p_begin",),
        ("p_stat", "/b/h"),
        ("enlisted",),
        ("p_lseek", FD(1), *off(5), SEEK_SET),
        ("enlisted",),
        ("p_read", FD(1), 20),
        ("p_read", FD(1), CHUNK_SIZE),
        ("p_commit",),
        ("p_read", FD(1), 5),
        ("p_close", FD(1))],
    "renamed_away_and_replaced_on_its_shard": [
        ("p_stat", "/a/f"), ("p_open", "/a/f", O_RDONLY),
        ("p_lseek", FD(1), *off(CHUNK_SIZE), SEEK_SET),
        ("p_read", FD(1), 50),
        ("other", rename_g_onto_f),
        ("p_read", FD(1), 50),
        ("p_lseek", FD(1), *off(10), SEEK_SET),
        ("p_read", FD(1), CHUNK_SIZE),
        ("p_close", FD(1))],
    "renamed_away_and_replaced_before_the_first_read": [
        ("p_stat", "/a/f"), ("p_open", "/a/f", O_RDONLY),
        ("other", rename_g_onto_f),
        ("p_read", FD(1), 50),
        ("p_open", "/a/gone", O_RDONLY),
        ("p_stat", "/a/gone"),
        ("p_read", FD(4), 50),
        ("p_stat", "/a/f"),
        ("p_close", FD(1)), ("p_close", FD(4))],
    "renamed_to_the_other_shard": [
        ("p_stat", "/a/f"), ("p_open", "/a/f", O_RDONLY),
        ("p_read", FD(1), 10),
        ("other", lambda other: other.p_rename("/a/f", "/b/moved")),
        ("p_read", FD(1), 10)],
    "unlinked_then_read": [
        ("p_stat", "/a/f"), ("p_open", "/a/f", O_RDONLY),
        ("p_read", FD(1), 10),
        ("other", lambda other: other.p_unlink("/a/f")),
        ("p_read", FD(1), 10)],
    "written_through_a_read_only_descriptor": [
        ("p_stat", "/a/f"), ("p_open", "/a/f", O_RDONLY),
        ("p_lseek", FD(1), *off(5), SEEK_SET),
        ("p_write", FD(1), b"x")],
    "seek_end": [
        ("p_stat", "/a/f"), ("p_open", "/a/f", O_RDONLY),
        ("p_lseek", FD(1), *off(-10), SEEK_END),
        ("p_read", FD(1), 100),
        ("p_lseek", FD(1), *off(3), SEEK_SET),
        ("p_read", FD(1), 4),
        ("p_close", FD(1))],
    "seek_cur": [
        ("p_stat", "/a/f"), ("p_open", "/a/f", O_RDONLY),
        ("p_lseek", FD(1), *off(100), SEEK_SET),
        ("p_lseek", FD(1), *off(7), SEEK_CUR),
        ("p_read", FD(1), 20),
        ("p_close", FD(1))],
    "negative_seek_set": [
        ("p_stat", "/a/f"), ("p_open", "/a/f", O_RDONLY),
        ("p_read", FD(1), 10),
        ("p_lseek", FD(1), *off(-5), SEEK_SET),
        ("p_read", FD(1), 1)],
    # Write-mode opens inside a cluster transaction.
    "written_on_both_shards": [
        ("p_stat", "/a/f"), ("p_stat", "/b/h"), ("p_begin",),
        ("p_open", "/a/f", O_RDWR),
        ("p_lseek", FD(3), *off(CHUNK_SIZE + 10), SEEK_SET),
        ("p_write", FD(3), b"W" * 100),
        ("p_close", FD(3)),
        ("p_open", "/b/h", O_RDWR),
        ("p_write", FD(7), b"V" * 100),
        ("p_write", FD(7), b"U" * 100),
        ("p_close", FD(7)),
        ("enlisted",),
        ("p_commit",),
        ("p_open", "/a/f", O_RDONLY),
        ("p_lseek", FD(13), *off(CHUNK_SIZE), SEEK_SET),
        ("p_read", FD(13), 120),
        ("p_close", FD(13)),
        ("p_stat", "/b/h")],
    "read_back_before_the_close": [
        ("p_stat", "/a/f"), ("p_begin",),
        ("p_open", "/a/f", O_RDWR),
        ("p_lseek", FD(2), *off(len(A)), SEEK_SET),
        ("p_write", FD(2), b"R" * 100),
        ("p_stat", "/a/f"),
        ("p_open", "/a/f", O_RDONLY),
        ("p_lseek", FD(6), *off(len(A) - 10), SEEK_SET),
        ("p_read", FD(6), 50),
        ("p_close", FD(2)), ("p_close", FD(6)),
        ("p_commit",)],
    "renamed_in_the_transaction_then_opened_for_writing": [
        ("p_stat", "/a/f"), ("p_begin",),
        ("p_rename", "/a/f", "/a/gone"),
        ("p_open", "/a/f", O_RDWR)],
    "unlinked_by_another_session_between_the_open_and_the_write": [
        ("p_stat", "/a/f"), ("p_begin",),
        ("p_open", "/a/f", O_RDWR),
        ("other", lambda other: other.p_unlink("/a/f")),
        ("p_write", FD(2), b"x" * 10)],
}


def _cluster(workdir: str) -> ShardedCluster:
    cluster = ShardedCluster.create(workdir, 2, policy="subtree",
                                    assignments={"a": 0, "b": 1})
    boot = cluster.client()
    boot.p_mkdir("/a")
    boot.p_mkdir("/b")
    for path, data in [("/a/f", A), ("/a/g", B), ("/b/h", H)]:
        fd = boot.p_creat(path)
        boot.p_write(fd, data)
        boot.p_close(fd)
    boot.close()
    return cluster


def _drive(script, client, other) -> tuple[list, object]:
    """Run ``script`` through ``client``; the values, and the error it
    stopped at (or None)."""
    values: list = []
    for step in script:
        if step[0] == "other":
            values.append(step[1](other))
            continue
        if step[0] == "enlisted":
            values.append(enlisted(client))
            continue
        args = [values[a.step] if isinstance(a, FD) else a
                for a in step[1:]]
        try:
            values.append(getattr(client, step[0])(*args))
        except FAILURES as exc:
            return values, exc
    return values, None


def run_client(workdir: str, script, **cache):
    cluster = _cluster(workdir)
    client, other = cluster.client(**cache), cluster.client()
    try:
        return _drive(script, client, other)
    finally:
        client.close()
        other.close()
        cluster.close()


def run_uncached(workdir: str, script):
    return run_client(workdir, script)


def run_leased(workdir: str, script):
    return run_client(workdir, script, cache_paths=64, cache_chunks=32)


def run_scheduled(workdir: str, script):
    """One scheduler session: the script's calls are its program, each
    ``other`` step a ClientOp run by the other client, and ``p_begin``
    … ``p_commit`` (or the script's end) a Txn."""
    cluster = _cluster(workdir)
    other = cluster.client()
    program, ordinals, block = [], {}, None
    for i, step in enumerate(script):
        if step[0] == "p_begin":
            block = []
            continue
        if step[0] == "p_commit":
            program.append(Txn(block))
            block = None
            continue
        if step[0] == "other":
            item = ClientOp("other", lambda client, fn=step[1]: fn(other))
        elif step[0] == "enlisted":
            item = ClientOp("enlisted", enlisted)
        else:
            item = Call(step[0], *[Ref(ordinals[a.step])
                                   if isinstance(a, FD) else a
                                   for a in step[1:]])
        ordinals[i] = len(ordinals)
        (block if block is not None else program).append(item)
    if block is not None:
        program.append(Txn(block))
    sched = ShardedScheduler(cluster, seed=0)
    error = None
    try:
        session = sched.add_session(program, home=0)
        try:
            sched.run(strict=True)
        except FAILURES as exc:
            error = exc
    finally:
        sched.close()
        other.close()
        cluster.close()
    values = []
    for i, _step in enumerate(script):
        if i in ordinals:
            if ordinals[i] not in session.values:
                break
            values.append(session.values[ordinals[i]])
        else:
            values.append(None)         # p_begin / p_commit
    return values, error


def _outcome(script, values, error) -> tuple:
    """What the three ways can agree on: a descriptor is a number each
    one chooses, and a stat's times follow its shard's clock."""
    shown = []
    for step, value in zip(script, values):
        if step[0] == "p_open":
            value = "fd"
        elif isinstance(value, FileAtt):
            value = ("att", value.size, value.type)
        shown.append(value)
    return shown, None if error is None else (type(error), str(error))


@pytest.mark.parametrize("run", [run_leased, run_scheduled],
                         ids=["leased", "scheduled"])
@pytest.mark.parametrize("name", sorted(SCRIPTS))
def test_a_leased_sharded_descriptor_answers_as_an_unleased_one(
        tmp_path, run, name):
    script = SCRIPTS[name]
    want = run_uncached(str(tmp_path / "uncached"), script)
    got = run(str(tmp_path / "leased"), script)
    assert _outcome(script, *got) == _outcome(script, *want)


def test_the_scripts_reach_what_they_are_named_for(tmp_path):
    """The reference run shows each hazard: a reader of a replaced name
    sees the new file's bytes, a seek inside a transaction enlists its
    shard, a write is seen before its descriptor's close, and the error
    cases fail where named."""
    values, error = run_uncached(
        str(tmp_path / "tx"),
        SCRIPTS["opened_outside_read_inside_a_transaction_on_the_other_shard"])
    assert error is None
    assert values[5] == [1] and values[7] == [0, 1]
    assert values[8] == A[5:25] and values[9] == A[25:25 + CHUNK_SIZE]
    values, error = run_uncached(
        str(tmp_path / "r"), SCRIPTS["renamed_away_and_replaced_on_its_shard"])
    assert error is None
    assert values[3] == A[CHUNK_SIZE:CHUNK_SIZE + 50]
    assert values[5] == B[CHUNK_SIZE + 50:CHUNK_SIZE + 100]
    values, error = run_uncached(
        str(tmp_path / "before"),
        SCRIPTS["renamed_away_and_replaced_before_the_first_read"])
    assert error is None and values[3] == B[:50] and values[6] == A[:50]
    values, error = run_uncached(str(tmp_path / "both"),
                                 SCRIPTS["written_on_both_shards"])
    assert error is None and values[11] == [0, 1]
    assert values[15] == (A[CHUNK_SIZE:CHUNK_SIZE + 10] + b"W" * 100
                          + A[CHUNK_SIZE + 110:CHUNK_SIZE + 120])
    values, error = run_uncached(str(tmp_path / "back"),
                                 SCRIPTS["read_back_before_the_close"])
    assert error is None and values[5].size == len(A) + 100
    assert values[8] == A[-10:] + b"R" * 40
    for name, failing_step in [("renamed_to_the_other_shard", 4),
                               ("unlinked_then_read", 4),
                               ("written_through_a_read_only_descriptor", 3),
                               ("negative_seek_set", 4),
                               ("renamed_in_the_transaction_then_opened_"
                                "for_writing", 3),
                               ("unlinked_by_another_session_between_the_"
                                "open_and_the_write", 4)]:
        values, error = run_uncached(str(tmp_path / name), SCRIPTS[name])
        assert error is not None and len(values) == failing_step, name


def _dispatches(db) -> dict[str, float]:
    if "rpc.dispatches" not in db.obs.metrics:
        return {}
    family = db.obs.metrics.get("rpc.dispatches")
    return {labels[0]: value for labels, value in family.series().items()}


def _read_units(path: str, units: int) -> list:
    """A stat of ``path``, then ``units`` read units of its second
    chunk: open, ``SEEK_SET``, read, close."""
    program = [Call("p_stat", path)]
    for unit in range(units):
        fd = Ref(1 + 4 * unit)
        program += [Call("p_open", path, O_RDONLY),
                    Call("p_lseek", fd, *off(CHUNK_SIZE), SEEK_SET),
                    Call("p_read", fd, CHUNK_SIZE),
                    Call("p_close", fd)]
    return program


def test_a_warm_read_unit_sends_nothing_to_its_shard(tmp_path):
    """The first unit's read is one p_pread; the second unit sends
    nothing, and the other shard hears nothing at all."""
    cluster = _cluster(str(tmp_path / "c"))
    before = [_dispatches(db) for db in cluster.dbs]
    sched = ShardedScheduler(cluster, seed=0)
    try:
        session = sched.add_session(_read_units("/a/f", 2))
        sched.run(strict=True)
        sent = [{verb: n - was.get(verb, 0)
                 for verb, n in _dispatches(db).items()
                 if n != was.get(verb, 0)}
                for db, was in zip(cluster.dbs, before)]
        assert sent == [{"p_stat": 1, "p_pread": 1}, {}]
        chunk = A[CHUNK_SIZE:2 * CHUNK_SIZE]
        assert session.values[3] == session.values[7] == chunk
    finally:
        sched.close()
        cluster.close()


def test_every_session_reports_into_one_cache_stats(tmp_path):
    """The sessions share one cache factory: every shard's ``cache.*``
    metrics read the whole run, not the last session connected."""
    cluster = _cluster(str(tmp_path / "c"))
    sched = ShardedScheduler(cluster, seed=0)
    try:
        for path in ["/a/f", "/a/g", "/b/h"]:
            sched.add_session(_read_units(path, 2))
        sched.run(strict=True)
        for db in cluster.dbs:
            hits = db.obs.metrics.get("cache.hits").series()
            assert hits[("open",)] == 6 and hits[("seek",)] == 6
            assert hits[("chunk",)] == 3
    finally:
        sched.close()
        cluster.close()


def test_a_miss_after_a_commit_brings_the_att_on_a_sharded_session(
        tmp_path):
    """Another session's commit to ``/a/f`` drops its att and chunks;
    the next read unit (open, ``SEEK_SET``, read, close, stat) sends its
    shard one p_pread, whose reply brings the att, so the stat is an
    att hit; the unit after it sends nothing."""
    cluster = _cluster(str(tmp_path / "c"))
    writer = InversionClient(cluster.servers[0].fs)

    def write_second_chunk(client) -> None:
        fd = writer.p_open("/a/f", O_RDWR)
        writer.p_lseek(fd, *off(CHUNK_SIZE + 10), SEEK_SET)
        writer.p_write(fd, b"V" * 100)
        writer.p_close(fd)

    program = [Call("p_stat", "/a/f"), ClientOp("other", write_second_chunk)]
    for unit in range(2):
        fd = Ref(2 + 5 * unit)
        program += [Call("p_open", "/a/f", O_RDONLY),
                    Call("p_lseek", fd, *off(CHUNK_SIZE), SEEK_SET),
                    Call("p_read", fd, CHUNK_SIZE),
                    Call("p_close", fd),
                    Call("p_stat", "/a/f")]
    before = [_dispatches(db) for db in cluster.dbs]
    sched = ShardedScheduler(cluster, seed=0)
    try:
        session = sched.add_session(program)
        sched.run(strict=True)
        sent = [{verb: n - was.get(verb, 0)
                 for verb, n in _dispatches(db).items()
                 if n != was.get(verb, 0)}
                for db, was in zip(cluster.dbs, before)]
        assert sent == [{"p_stat": 1, "p_pread": 1}, {}]
        chunk = (A[CHUNK_SIZE:CHUNK_SIZE + 10] + b"V" * 100
                 + A[CHUNK_SIZE + 110:2 * CHUNK_SIZE])
        assert session.values[4] == session.values[9] == chunk
        assert session.values[6].size == session.values[11].size == len(A)
        hits = cluster.dbs[0].obs.metrics.get("cache.hits").series()
        assert (hits[("att",)], hits[("chunk",)]) == (2, 1)
    finally:
        sched.close()
        cluster.close()


def _write_unit(path: str, first: int, tag: bytes) -> list:
    """Open ``path`` ``O_RDWR`` (the session's call ``first``), write
    100 bytes at the second chunk, close."""
    return [Call("p_open", path, O_RDWR),
            Call("p_lseek", Ref(first), *off(CHUNK_SIZE), SEEK_SET),
            Call("p_write", Ref(first), tag * 100),
            Call("p_close", Ref(first))]


def test_a_warm_write_unit_sends_begin_pwrite_commit_to_its_shard(tmp_path):
    """A cold name's unit sends its shard the real open, seek, write and
    close; the reply leases the name, so the next unit sends p_begin,
    p_pwrite and p_commit.  A two-shard write of leased names sends
    each shard p_begin and p_pwrite, then the 2PC's prepare and
    resolve."""
    cluster = _cluster(str(tmp_path / "c"))
    program = [Txn(_write_unit("/a/f", 0, b"1")),
               Txn(_write_unit("/a/f", 4, b"2")),
               Call("p_stat", "/b/h"),
               Txn(_write_unit("/a/f", 9, b"3")
                   + _write_unit("/b/h", 13, b"4"))]
    before = [_dispatches(db) for db in cluster.dbs]
    sched = ShardedScheduler(cluster, seed=0)
    try:
        sched.add_session(program, home=0)
        sched.run(strict=True)
        sent = [{verb: n - was.get(verb, 0)
                 for verb, n in _dispatches(db).items()
                 if n != was.get(verb, 0)}
                for db, was in zip(cluster.dbs, before)]
        assert sent == [
            {"p_begin": 3, "p_open": 1, "p_lseek": 1, "p_write": 1,
             "p_close": 1, "p_pwrite": 2, "p_commit": 2, "p_prepare": 1,
             "p_resolve": 1},
            {"p_stat": 1, "p_begin": 1, "p_pwrite": 1, "p_prepare": 1,
             "p_resolve": 1}]
        assert cluster.stats.cross_shard_txns == 1
    finally:
        sched.close()
    check = cluster.client()
    try:
        for path, data, tag in [("/a/f", A, b"3"), ("/b/h", H, b"4")]:
            fd = check.p_open(path, O_RDONLY)
            assert check.p_read(fd, len(data)) == (
                data[:CHUNK_SIZE] + tag * 100 + data[CHUNK_SIZE + 100:])
            check.p_close(fd)
    finally:
        check.close()
        cluster.close()

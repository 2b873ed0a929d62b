"""A sync round applies as one sweep per segment: the replica that
crashes at any durable write of it shows exactly the previous round
until it re-syncs, and the primary's state after."""

import os
import shutil

from repro.core.checker import ConsistencyChecker
from repro.core.constants import CHUNK_SIZE, O_RDWR
from repro.replica import ReplicaServer
from repro.testkit import CrashController, FaultPlan, FaultyDevice
from repro.testkit.oracle import harvest_state

from tests.replica.conftest import make_replica, write_file

#: three chunks each: past one heap page, so every file has a chunk
#: index and an overwrite ships index pages beside heap pages.
FILES = ["/f0", "/f1"]


def _overwrite(writer, path: str, chunk: int, fill: bytes) -> None:
    writer.p_begin()
    fd = writer.p_open(path, O_RDWR)
    writer.p_lseek(fd, 0, chunk * CHUNK_SIZE, 0)
    writer.p_write(fd, fill * 1000)
    writer.p_close(fd)
    writer.p_commit()


def _copy(template: str, tmp_path, name: str) -> str:
    path = os.path.join(str(tmp_path), name)
    shutil.copytree(template, path)
    return path


def test_a_crash_anywhere_in_a_batched_round_shows_the_previous_one(
        tmp_path, primary, writer):
    db, fs, feed = primary
    for i, path in enumerate(FILES):
        write_file(writer, path, bytes([65 + i]) * (3 * CHUNK_SIZE))
    db.tm.flush_commits()
    template = make_replica(tmp_path, feed, name="template")
    previous = harvest_state(template.fs)
    horizon = template.horizon()
    template.close()
    # The round: four commits, one segment — pages and status records.
    for step in range(4):
        _overwrite(writer, FILES[step % 2], step % 3, bytes([97 + step]))
    db.tm.flush_commits()
    entries, _next, more = feed.pull(template.cursor, 10_000)
    assert not more
    assert {e.kind for e in entries} <= {"page", "extend", "append"}
    assert sum(e.kind == "append" for e in entries) == 4
    final = harvest_state(fs)
    assert final != previous

    # The round's durable writes: the apply's pages and one append,
    # then the replica's own bookkeeping (xid high-water mark, cursor).
    path = _copy(template.path, tmp_path, "count")
    replica = ReplicaServer.reopen(feed, path, "count")
    ctrl = CrashController()
    replica.db.wrap_devices(lambda dev: FaultyDevice(dev, ctrl))
    assert replica.sync_round() == (len(entries), False)
    kinds = [kind for kind, _dev, _detail in ctrl.write_log]
    assert kinds.count("append") == 1       # one force for four commits
    applied = kinds.index("append") + 1
    assert set(kinds[:applied - 1]) == {"page"}
    assert set(kinds[applied:]) == {"meta"}
    replica.close()

    for k in range(applied):
        path = _copy(template.path, tmp_path, f"crash{k}")
        replica = ReplicaServer.reopen(feed, path, f"crash{k}")
        ctrl = CrashController(plan=FaultPlan(crash_after=k))
        replica.db.wrap_devices(lambda dev: FaultyDevice(dev, ctrl))
        try:
            replica.sync_round()
        except Exception:
            pass
        assert ctrl.crashed, k
        ctrl.disarm()
        replica.db.simulate_crash()

        reopened = ReplicaServer.reopen(feed, path, f"crash{k}")
        assert reopened.horizon() == horizon, k
        assert harvest_state(reopened.fs) == previous, k
        assert ConsistencyChecker(reopened.fs).check_all().clean, k
        assert reopened.sync() == len(entries)
        assert harvest_state(reopened.fs) == final, k
        assert ConsistencyChecker(reopened.fs).check_all().clean, k
        reopened.close()
        shutil.rmtree(path)

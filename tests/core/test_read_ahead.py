"""The light protocol on the remote client (``read_batch_chunks`` and
``write_batch_chunks`` above one, as the replicated cluster's clients
speak it): EOF is a buffered fact, a small file opens with its bytes
(on a re-open, only the chunks its copy lacks), a read-only descriptor
of a longer one reads ahead from its first read, and calls whose reply
the client knows ride the session's next request.

Each is a message saved, never an answer changed: a light client must
answer every call exactly as a client of the paper's protocol and as
the server's own dispatch do.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.core.client import RPC_BATCH_CHUNKS, RemoteInversionClient
from repro.core.constants import CHUNK_SIZE, O_RDONLY, O_RDWR
from repro.core.filesystem import InversionFS
from repro.core.library import InversionClient
from repro.core.server import InversionServer
from repro.db.database import Database
from repro.errors import (BadFileDescriptorError, FileNotFoundError_,
                          IsADirectoryError_, LockTimeoutError)
from repro.sim.clock import SimClock
from repro.sim.network import ETHERNET_10MBIT, NetworkModel
from repro.testkit.oracle import harvest_state

#: two files that fit one read-ahead window, and one just past it.
FILES = {"/f0": 3 * CHUNK_SIZE + 100, "/f1": 100,
         "/f2": RPC_BATCH_CHUNKS * CHUNK_SIZE + 1}


def _contents(path: str, size: int) -> bytes:
    return bytes((i * 7 + len(path) * 13) % 251 for i in range(size))


def _mount(workdir: str) -> InversionFS:
    fs = InversionFS.mkfs(Database.create(workdir, clock=SimClock()))
    setup = InversionClient(fs)
    for path, size in FILES.items():
        fd = setup.p_creat(path)
        setup.p_write(fd, _contents(path, size))
        setup.p_close(fd)
    return fs


def _remote(fs, **kwargs):
    server = InversionServer(fs)
    network = NetworkModel(clock=fs.db.clock, params=ETHERNET_10MBIT)
    return server, RemoteInversionClient(server, network, **kwargs)


#: a descriptor is named by its index among the opens that succeeded;
#: an index past them names one that was never opened.
FD = st.integers(min_value=0, max_value=4)
LENGTH = st.one_of(st.sampled_from([CHUNK_SIZE, CHUNK_SIZE + 1, 100]),
                   st.integers(min_value=-1, max_value=2 * CHUNK_SIZE))
OP = st.one_of(
    st.tuples(st.just("p_open"), st.sampled_from([*FILES, "/nope"]),
              st.sampled_from([O_RDONLY, O_RDWR])),
    st.tuples(st.just("p_read"), FD, LENGTH),
    st.tuples(st.just("p_lseek"), FD,
              st.integers(min_value=0, max_value=4 * CHUNK_SIZE),
              st.sampled_from([0, 1, 2])),
    st.tuples(st.just("p_write"), FD,
              st.integers(min_value=1, max_value=CHUNK_SIZE + 50)),
    st.tuples(st.just("p_close"), FD),
    st.tuples(st.just("p_stat"), st.sampled_from(list(FILES))),
    st.tuples(st.sampled_from(["p_begin", "p_commit", "p_abort"])),
)

#: a write through another descriptor lands inside bytes read ahead.
WRITE_UNDER_READ_AHEAD = [
    ("p_open", "/f0", O_RDONLY), ("p_read", 0, CHUNK_SIZE),
    ("p_open", "/f0", O_RDWR), ("p_lseek", 1, CHUNK_SIZE, 0),
    ("p_write", 1, 100), ("p_read", 0, CHUNK_SIZE)]


#: a begin the client's bookkeeping knows must fail goes alone.
BEGIN_IN_TRANSACTION = [("p_begin",), ("p_begin",), ("p_commit",)]

#: the open carried the bytes, so the server's descriptor is at EOF.
SEEK_BACK_AFTER_A_FILLED_OPEN = [
    ("p_open", "/f1", O_RDONLY), ("p_lseek", 0, 0, 0), ("p_read", 0, 100)]

#: inside a transaction a read-only open carries no bytes: the read
#: would open its server-side handle early, at the size it saw then.
GROWN_UNDER_AN_OPEN_IN_TRANSACTION = [
    ("p_begin",), ("p_open", "/f1", O_RDONLY), ("p_open", "/f1", O_RDWR),
    ("p_lseek", 1, 100, 0), ("p_write", 1, 50), ("p_close", 1),
    ("p_read", 0, CHUNK_SIZE), ("p_commit",)]

#: a write through a read-only descriptor fails at the call, not at
#: the flush of a write buffer.
WRITE_TO_A_READ_ONLY_DESCRIPTOR = [
    ("p_open", "/f0", O_RDONLY), ("p_write", 0, 1), ("p_stat", "/f0")]

#: a written descriptor's close rides the commit.
WRITTEN_CLOSE_IN_TRANSACTION = [
    ("p_begin",), ("p_open", "/f1", O_RDWR), ("p_write", 0, 10),
    ("p_close", 0), ("p_open", "/f1", O_RDONLY), ("p_read", 1, 100),
    ("p_commit",)]


#: another session changes a chunk between two filled opens, to the
#: bytes the copy holds at another index.
CHANGED_BY_ANOTHER_SESSION = [
    ("other_write", "/f0", 0, 120), ("p_open", "/f0", O_RDONLY),
    ("p_close", 0), ("other_write", "/f0", 1, 120),
    ("p_open", "/f0", O_RDONLY), ("p_read", 1, 4 * CHUNK_SIZE)]

#: the file is shorter at the next filled open.
SHRUNK_BETWEEN_FILLED_OPENS = [
    ("p_open", "/f0", O_RDONLY), ("p_close", 0),
    ("p_truncate", "/f0", CHUNK_SIZE + 10), ("p_open", "/f0", O_RDONLY),
    ("p_read", 1, 4 * CHUNK_SIZE), ("p_read", 1, CHUNK_SIZE)]

#: the file outgrows one window: the next open carries no bytes.
GROWN_PAST_A_WINDOW = [
    ("p_open", "/f1", O_RDONLY), ("p_close", 0), ("p_open", "/f1", O_RDWR),
    ("p_lseek", 1, RPC_BATCH_CHUNKS * CHUNK_SIZE, 0), ("p_write", 1, 10),
    ("p_close", 1), ("p_open", "/f1", O_RDONLY), ("p_read", 2, CHUNK_SIZE),
    ("p_close", 2), ("p_open", "/f1", O_RDONLY), ("p_read", 3, CHUNK_SIZE)]

#: another file now answers to the path.
RENAMED_ONTO_THE_PATH = [
    ("p_open", "/f1", O_RDONLY), ("p_close", 0), ("p_unlink", "/f1"),
    ("p_rename", "/f0", "/f1"), ("p_open", "/f1", O_RDONLY),
    ("p_read", 1, 4 * CHUNK_SIZE)]

#: a time-travel open of the path, between opens of its present.
TIME_TRAVEL_BETWEEN_FILLED_OPENS = [
    ("p_open", "/f0", O_RDONLY), ("p_close", 0), ("mark",),
    ("other_write", "/f0", 1, 120), ("p_open", "/f0", O_RDONLY, "mark"),
    ("p_read", 1, 4 * CHUNK_SIZE), ("p_close", 1),
    ("p_open", "/f0", O_RDONLY), ("p_read", 2, 4 * CHUNK_SIZE)]


def _grown_under_eof(publish: tuple) -> list:
    """An auto-commit write past EOF leaves the size pending, EOF is
    read ahead at the old size, and then ``publish`` makes the new size
    visible."""
    return [("p_open", "/f1", O_RDONLY), ("p_open", "/f1", O_RDWR),
            ("p_lseek", 1, 100, 0), ("p_write", 1, 50),
            ("p_read", 0, CHUNK_SIZE), publish, ("p_read", 0, CHUNK_SIZE)]


class _Side:
    """One side of a differential: ``call(verb, *args)``, the
    descriptors its opens returned, and — given its server and file
    system — another session on that server and a remembered moment of
    its clock."""

    def __init__(self, call, server=None, fs=None) -> None:
        self.call, self.fds, self.fs, self.mark = call, [], fs, None
        if server is not None:
            conn = server.connect()
            self.other = lambda verb, *args: server.dispatch(conn, verb, *args)


def _other_write(other, path: str, chunk: int, fill: int) -> None:
    """Another session overwrites chunk ``chunk`` of ``path`` with
    ``fill`` bytes, each call an auto-commit."""
    fd = other("p_open", path, O_RDWR)
    try:
        other("p_lseek", fd, 0, chunk * CHUNK_SIZE, 0)
        other("p_write", fd, bytes([fill]) * CHUNK_SIZE)
    finally:
        other("p_close", fd)


def _apply(side: _Side, op: tuple, step: int):
    """Run one op on ``side``: ``("ok", result)`` or ``("raised", type,
    message)``.  ``("mark",)`` remembers the side's clock, which a
    ``p_open`` timestamp of ``"mark"`` names; ``("other_write", path,
    chunk, fill)`` runs in another session."""
    verb, args, fds = op[0], list(op[1:]), side.fds
    if verb in ("p_read", "p_lseek", "p_write", "p_close"):
        args[0] = fds[args[0]] if args[0] < len(fds) else 100 + args[0]
    if verb == "p_lseek":
        args[1:1] = [0]                          # offset_high
    elif verb == "p_write":
        args[1] = bytes([65 + step % 26]) * args[1]
    elif verb == "p_open" and args[2:] == ["mark"]:
        args[2] = side.mark
    try:
        if verb == "mark":
            side.mark = side.fs.db.clock.now()
            return ("ok", None)
        if verb == "other_write":
            return ("ok", _other_write(side.other, *args))
        result = side.call(verb, *args)
    except Exception as exc:
        return ("raised", type(exc), str(exc))
    if verb == "p_open":
        fds.append(result)
    elif verb == "p_stat":
        result = result.size        # the times follow each side's clock
    return ("ok", result)


def _read_ahead_client(fs):
    """The light protocol, as the replicated cluster's clients speak it."""
    return _remote(fs, read_batch_chunks=RPC_BATCH_CHUNKS,
                   write_batch_chunks=RPC_BATCH_CHUNKS)


def _calls(client):
    return lambda verb, *args: getattr(client, verb)(*args)


def _holds(server, session_id: int, fd) -> bool:
    """Does the server hold descriptor ``fd`` open for the session?"""
    session = server._sessions.get(session_id)
    return session is not None and fd in session._fds


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(ops=st.lists(OP, min_size=1, max_size=30))
@example(ops=WRITE_UNDER_READ_AHEAD)
@example(ops=_grown_under_eof(("p_close", 1)))
@example(ops=_grown_under_eof(("p_stat", "/f1")))
@example(ops=BEGIN_IN_TRANSACTION)
@example(ops=SEEK_BACK_AFTER_A_FILLED_OPEN)
@example(ops=GROWN_UNDER_AN_OPEN_IN_TRANSACTION)
@example(ops=WRITTEN_CLOSE_IN_TRANSACTION)
@example(ops=WRITE_TO_A_READ_ONLY_DESCRIPTOR)
@example(ops=CHANGED_BY_ANOTHER_SESSION)
@example(ops=SHRUNK_BETWEEN_FILLED_OPENS)
@example(ops=GROWN_PAST_A_WINDOW)
@example(ops=RENAMED_ONTO_THE_PATH)
@example(ops=TIME_TRAVEL_BETWEEN_FILLED_OPENS)
def test_read_ahead_answers_as_the_protocol_does(tmp_path_factory, ops):
    """The same seeded calls through a light client, a client of the
    paper's protocol and the server's bare dispatch, each over its own
    fresh server: the same value or the same exception, call by call,
    and the same files at the end."""
    workdir = tmp_path_factory.mktemp("readahead")
    mounts = [_mount(str(workdir / name))
              for name in ("ahead", "plain", "bare")]
    ahead_server, ahead = _read_ahead_client(mounts[0])
    plain_server, plain = _remote(mounts[1])
    bare = InversionServer(mounts[2])
    conn = bare.connect()
    sides = [_Side(_calls(ahead), ahead_server, mounts[0]),
             _Side(_calls(plain), plain_server, mounts[1]),
             _Side(lambda verb, *args: bare.dispatch(conn, verb, *args),
                   bare, mounts[2])]
    try:
        for step, op in enumerate(ops):
            outcomes = [_apply(side, op, step) for side in sides]
            assert outcomes[0] == outcomes[1] == outcomes[2], (step, op)
        ahead.close()
        plain.close()
        bare.disconnect(conn)
        states = [harvest_state(fs) for fs in mounts]
        assert states[0] == states[1] == states[2]
    finally:
        for fs in mounts:
            fs.db.close()


@settings(max_examples=30, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(ops=st.lists(OP, min_size=1, max_size=30))
@example(ops=WRITTEN_CLOSE_IN_TRANSACTION)
def test_server_descriptors_are_bounded_by_the_client(tmp_path_factory,
                                                      ops):
    """Queued closes — read-only ones, and written ones inside a
    transaction — never let the server's descriptor table outgrow what
    the client holds open plus what it has queued, and closing the
    client empties it."""
    fs = _mount(str(tmp_path_factory.mktemp("bound") / "db"))
    server, client = _read_ahead_client(fs)
    conn = client._link.conn
    side = _Side(_calls(client))
    fds = side.fds

    def held() -> int:
        return sum(_holds(server, conn, fd) for fd in fds)

    try:
        for step, op in enumerate(ops):
            _apply(side, op, step)
            closing = sum(method == "p_close"
                          for method, _args in client._link.riders)
            assert held() <= len(client._link.fds) + closing
        client.close()
        assert held() == 0
    finally:
        fs.db.close()


def test_a_read_to_eof_reads_from_the_clients_position(tmp_path):
    """A ``p_read`` of length -1 after a filled open — whose read left
    the server's descriptor at EOF — reads the whole file, and the next
    read finds EOF."""
    fs = _mount(str(tmp_path / "db"))
    _server, client = _read_ahead_client(fs)
    try:
        fd = client.p_open("/f1", O_RDONLY)
        assert client.filled_opens == 1
        assert client.p_read(fd, -1) == _contents("/f1", 100)
        assert client.p_read(fd, 10) == b""
    finally:
        client.close()
        fs.db.close()


def test_a_failing_rider_fails_the_call_it_rode(tmp_path):
    fs = _mount(str(tmp_path / "db"))
    server, client = _read_ahead_client(fs)
    conn = client._link.conn
    try:
        fd = client.p_open("/f1", O_RDONLY)
        client.p_close(fd)
        client.p_begin()
        assert [method for method, _args in client._link.riders] == [
            "p_close", "p_begin"]
        server.dispatch(conn, "p_close", fd)    # the close cannot run now
        with pytest.raises(BadFileDescriptorError):
            client.p_open("/f0", O_RDONLY)
        # Neither the open nor the begin behind the close ran, and the
        # client no longer presumes a transaction: its begin goes alone.
        assert server.session_tx(conn) is None
        assert not server._sessions[conn]._fds
        client.p_begin()
        assert client._link.riders == []
        assert server.session_tx(conn) is not None
    finally:
        client.close()
        fs.db.close()


def test_a_failing_write_rider_fails_the_commit_it_rode(tmp_path):
    """Inside a transaction a written close carries its buffered write.
    When the server refuses the write after all — here another session
    holds the file's lock — the commit it rode raises and does not run,
    and the transaction is still open for an abort."""
    fs = _mount(str(tmp_path / "db"))
    server, client = _read_ahead_client(fs)
    other = server.connect()
    try:
        client.p_begin()
        fd = client.p_open("/f1", O_RDWR)
        client.p_write(fd, b"x" * 10)
        client.p_close(fd)
        assert [method for method, _args in client._link.riders] == [
            "p_write", "p_close"]
        server.dispatch(other, "p_begin")
        ofd = server.dispatch(other, "p_open", "/f1", O_RDWR)
        server.dispatch(other, "p_write", ofd, b"y")
        with pytest.raises(LockTimeoutError):
            client.p_commit()
        assert server.session_tx(client._link.conn) is not None
        client.p_abort()
        server.dispatch(other, "p_close", ofd)
        server.dispatch(other, "p_commit")
        assert fs.read_file("/f1") == b"y" + _contents("/f1", 100)[1:]
    finally:
        client.close()
        fs.db.close()


def test_an_abort_drops_the_write_riders_it_would_undo(tmp_path):
    """An abort right after a written close does not carry the write
    it would undo: a lock conflict on that write cannot fail it.  The
    descriptor still open beside the closed one reads from where its
    client says it is."""
    fs = _mount(str(tmp_path / "db"))
    server, client = _read_ahead_client(fs)
    other = server.connect()
    try:
        client.p_begin()
        kept = client.p_open("/f0", O_RDWR)
        fd = client.p_open("/f1", O_RDWR)
        client.p_write(kept, b"z" * 10)
        client.p_write(fd, b"x" * 10)
        client.p_close(fd)
        assert [method for method, _args in client._link.riders] == [
            "p_write", "p_write", "p_close"]
        server.dispatch(other, "p_begin")
        ofd = server.dispatch(other, "p_open", "/f1", O_RDWR)
        server.dispatch(other, "p_write", ofd, b"y")
        client.p_abort()
        assert server.session_tx(client._link.conn) is None
        server.dispatch(other, "p_close", ofd)
        server.dispatch(other, "p_commit")
        assert fs.read_file("/f1") == b"y" + _contents("/f1", 100)[1:]
        assert client.p_read(kept, 5) == _contents("/f0", 15)[10:]
    finally:
        client.close()
        fs.db.close()


@pytest.mark.parametrize("moves, error", [
    ([("p_unlink", "/f1")], FileNotFoundError_),
    ([("p_unlink", "/f1"), ("p_mkdir", "/d"), ("p_rename", "/d", "/f1")],
     IsADirectoryError_),
], ids=["unlinked", "directory-renamed-onto-it"])
def test_a_write_to_a_path_changed_since_the_open_fails_at_the_close(
        tmp_path, moves, error):
    """The server writes through a descriptor's path, so a namespace
    change after the write-mode open voids what it learnt: the write
    goes with the close, and fails there, not at the commit."""
    fs = _mount(str(tmp_path / "db"))
    server, client = _read_ahead_client(fs)
    try:
        client.p_begin()
        fd = client.p_open("/f1", O_RDWR)
        for verb, *args in moves:
            getattr(client, verb)(*args)
        client.p_write(fd, b"x" * 10)
        with pytest.raises(error):
            client.p_close(fd)
        client.p_abort()
    finally:
        client.close()
        fs.db.close()


def _spy_reads(server) -> list:
    """Every length a ``p_read`` request asks the server for."""
    asked = []
    dispatch = server.dispatch

    def spy(conn, method, *args, **kwargs):
        if method == "p_read":
            asked.append(args[1])
        return dispatch(conn, method, *args, **kwargs)

    server.dispatch = spy
    return asked


def test_only_a_read_only_first_read_reads_ahead(tmp_path):
    """On a file longer than one window the open carries no bytes, and
    the first read of a read-only descriptor reads ahead."""
    fs = _mount(str(tmp_path / "db"))
    server, client = _read_ahead_client(fs)
    asked = _spy_reads(server)
    try:
        top = client.p_open("/f2", O_RDONLY)
        assert asked == []
        assert client.p_read(top, CHUNK_SIZE) == _contents("/f2", CHUNK_SIZE)
        after_seek = client.p_open("/f2", O_RDONLY)
        client.p_lseek(after_seek, 0, CHUNK_SIZE, 0)
        client.p_read(after_seek, 100)
        writable = client.p_open("/f2", O_RDWR)
        client.p_read(writable, 100)
        # Read-ahead from the top; a lone read after a seek, and the
        # first read of a writable descriptor, fetch exactly their length.
        assert asked == [RPC_BATCH_CHUNKS * CHUNK_SIZE, 100, 100]
        assert client.filled_opens == 0
    finally:
        client.close()
        fs.db.close()


def test_a_small_file_opens_with_its_bytes_and_eof(tmp_path):
    fs = _mount(str(tmp_path / "db"))
    server, client = _read_ahead_client(fs)
    asked = _spy_reads(server)
    stats = client.network.stats
    try:
        fd = client.p_open("/f1", O_RDONLY)
        assert asked == [RPC_BATCH_CHUNKS * CHUNK_SIZE]
        assert (stats.round_trips, client.filled_opens) == (1, 1)
        assert client.p_read(fd, CHUNK_SIZE) == _contents("/f1", 100)
        assert client.p_read(fd, CHUNK_SIZE) == b""
        assert stats.round_trips == 1       # bytes and EOF came with it
        writable = client.p_open("/f1", O_RDWR)
        assert asked == [RPC_BATCH_CHUNKS * CHUNK_SIZE]
        client.p_close(writable)
    finally:
        client.close()
        fs.db.close()


def test_eof_and_read_only_close_cost_no_message(tmp_path):
    fs = _mount(str(tmp_path / "db"))
    server, client = _read_ahead_client(fs)
    messages = client.network.stats
    try:
        before = messages.messages
        fd = client.p_open("/f0", O_RDONLY)
        pieces = iter(lambda: client.p_read(fd, CHUNK_SIZE), b"")
        assert b"".join(pieces) == _contents("/f0", FILES["/f0"])
        client.p_close(fd)
        assert messages.messages - before == 2      # p_open, with the file
        assert client.buffered_reads == 5           # 4 pieces and EOF
        assert client.riders == 1
        assert _holds(server, client._link.conn, fd)
        client.p_stat("/f1")                        # the close rides it
        assert not _holds(server, client._link.conn, fd)
        assert messages.messages - before == 4
    finally:
        client.close()
        fs.db.close()


def _cold_sequential_read(workdir: str, read_batch_chunks: int):
    """Figure 5's sequential read over the wire: a 1 MB file of 8 KB
    chunks read back in 8 KB calls on flushed caches.  Returns the
    simulated seconds and messages it took, and the client."""
    data = b"0123456789abcdef" * (128 * CHUNK_SIZE // 16)
    db = Database.create(workdir, clock=SimClock())
    _server, client = _remote(InversionFS.mkfs(db),
                              read_batch_chunks=read_batch_chunks)
    try:
        fd = client.p_creat("/seq")
        for pos in range(0, len(data), CHUNK_SIZE):
            client.p_write(fd, data[pos:pos + CHUNK_SIZE])
        db.flush_caches()
        t0, m0 = db.clock.now(), client.network.stats.messages
        client.p_begin()
        client.p_lseek(fd, 0, 0)
        for pos in range(0, len(data), CHUNK_SIZE):
            assert client.p_read(fd, CHUNK_SIZE) == data[pos:pos + CHUNK_SIZE]
        client.p_commit()
        return (db.clock.now() - t0, client.network.stats.messages - m0,
                client)
    finally:
        client.close()
        db.close()


def test_batched_reads_take_under_half_the_time_of_the_paper_protocol(
        tmp_path):
    plain_s, plain_msgs, _ = _cold_sequential_read(str(tmp_path / "p"), 1)
    batched_s, batched_msgs, client = _cold_sequential_read(
        str(tmp_path / "b"), RPC_BATCH_CHUNKS)
    assert plain_s / batched_s >= 2.0
    assert batched_msgs * 4 < plain_msgs
    # One read RPC per batch, the rest served from its buffer.
    assert client.batched_reads == -(-128 // RPC_BATCH_CHUNKS)
    assert client.buffered_reads >= 128 - 2 * client.batched_reads

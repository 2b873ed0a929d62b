"""Read-ahead on the remote client (``read_batch_chunks``): EOF is a
buffered fact, a read-only descriptor reads ahead from its first read,
and a read-only ``p_close`` rides the session's next request.

Each is a message saved, never an answer changed: a read-ahead client
must answer every call exactly as a client without read-ahead and as
the server's own dispatch do.
"""

from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.core.client import RPC_BATCH_CHUNKS, RemoteInversionClient
from repro.core.constants import CHUNK_SIZE, O_RDONLY, O_RDWR
from repro.core.filesystem import InversionFS
from repro.core.library import InversionClient
from repro.core.server import InversionServer
from repro.db.database import Database
from repro.sim.clock import SimClock
from repro.sim.network import ETHERNET_10MBIT, NetworkModel
from repro.testkit.oracle import harvest_state

FILES = {"/f0": 3 * CHUNK_SIZE + 100, "/f1": 100}


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


def _grown_under_eof(publish: tuple) -> list:
    """An auto-commit write past EOF leaves the size pending, EOF is
    read ahead at the old size, and then ``publish`` makes the new size
    visible."""
    return [("p_open", "/f1", O_RDONLY), ("p_open", "/f1", O_RDWR),
            ("p_lseek", 1, 100, 0), ("p_write", 1, 50),
            ("p_read", 0, CHUNK_SIZE), publish, ("p_read", 0, CHUNK_SIZE)]


def _apply(call, op: tuple, fds: list, step: int):
    """Run one op through ``call(verb, *args)``: ``("ok", result)`` or
    ``("raised", type, message)``."""
    verb, args = op[0], list(op[1:])
    if verb in ("p_read", "p_lseek", "p_write", "p_close"):
        args[0] = fds[args[0]] if args[0] < len(fds) else 100 + args[0]
    if verb == "p_lseek":
        args[1:1] = [0]                          # offset_high
    elif verb == "p_write":
        args[1] = bytes([65 + step % 26]) * args[1]
    try:
        result = call(verb, *args)
    except Exception as exc:
        return ("raised", type(exc), str(exc))
    if verb == "p_open":
        fds.append(result)
    elif verb == "p_stat":
        result = result.size        # the times follow each side's clock
    return ("ok", result)


def _read_ahead_client(fs):
    return _remote(fs, read_batch_chunks=RPC_BATCH_CHUNKS)


def _calls(client):
    return lambda verb, *args: getattr(client, verb)(*args)


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(ops=st.lists(OP, min_size=1, max_size=30))
@example(ops=WRITE_UNDER_READ_AHEAD)
@example(ops=_grown_under_eof(("p_close", 1)))
@example(ops=_grown_under_eof(("p_stat", "/f1")))
def test_read_ahead_answers_as_the_protocol_does(tmp_path_factory, ops):
    """The same seeded calls through a read-ahead client, a client
    without read-ahead and the server's bare dispatch, each over its
    own fresh server: the same value or the same exception, call by
    call, and the same files at the end."""
    workdir = tmp_path_factory.mktemp("readahead")
    mounts = [_mount(str(workdir / name))
              for name in ("ahead", "plain", "bare")]
    _, ahead = _read_ahead_client(mounts[0])
    _, plain = _remote(mounts[1])
    bare = InversionServer(mounts[2])
    conn = bare.connect()
    sides = [(_calls(ahead), []), (_calls(plain), []),
             (lambda verb, *args: bare.dispatch(conn, verb, *args), [])]
    try:
        for step, op in enumerate(ops):
            outcomes = [_apply(call, op, fds, step) for call, fds in sides]
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
def test_server_descriptors_are_bounded_by_the_client(tmp_path_factory,
                                                      ops):
    """Queued closes never let the server's descriptor table outgrow
    what the client holds open plus what it has queued, and closing
    the client empties it."""
    fs = _mount(str(tmp_path_factory.mktemp("bound") / "db"))
    server, client = _read_ahead_client(fs)
    conn = client._link.conn
    fds: list = []

    def held() -> int:
        return sum(server.descriptor(conn, fd) is not None for fd in fds)

    try:
        for step, op in enumerate(ops):
            _apply(_calls(client), op, fds, step)
            assert held() <= len(client._pos) + len(client._closing)
        client.close()
        assert held() == 0
    finally:
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
    fs = _mount(str(tmp_path / "db"))
    server, client = _read_ahead_client(fs)
    asked = _spy_reads(server)
    try:
        top = client.p_open("/f0", O_RDONLY)
        assert client.p_read(top, CHUNK_SIZE) == _contents("/f0", CHUNK_SIZE)
        after_seek = client.p_open("/f0", O_RDONLY)
        client.p_lseek(after_seek, 0, CHUNK_SIZE, 0)
        client.p_read(after_seek, 100)
        writable = client.p_open("/f0", O_RDWR)
        client.p_read(writable, 100)
        # Read-ahead from the top; a lone read after a seek, and the
        # first read of a writable descriptor, fetch exactly their length.
        assert asked == [RPC_BATCH_CHUNKS * CHUNK_SIZE, 100, 100]
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
        assert messages.messages - before == 4      # p_open, one p_read
        assert client.buffered_reads == 4           # 3 pieces and EOF
        assert client.deferred_closes == 1
        assert server.descriptor(client._link.conn, fd) is not None
        client.p_stat("/f1")                        # the close rides it
        assert server.descriptor(client._link.conn, fd) is None
        assert messages.messages - before == 6
    finally:
        client.close()
        fs.db.close()

"""Client-side write batching (``write_batch_chunks``) and the
orphaned-session cleanup it makes necessary.

The batched write RPC is the symmetric twin of ``read_batch_chunks``:
sequential ``p_write`` calls accumulate client-side and ship as one
``p_write`` per window.  The tests pin the protocol invariants — same
bytes on the server whatever the batch size, buffers flushed before any
other RPC — and the server's guarantee that a session dying with
buffered writes mid-transaction releases its locks and reconciles its
pending attribute updates.
"""

import pytest

from repro.core.client import RPC_BATCH_CHUNKS, RemoteInversionClient
from repro.core.constants import CHUNK_SIZE, O_RDWR
from repro.core.filesystem import InversionFS
from repro.core.server import InversionServer
from repro.db.database import Database
from repro.sim.clock import SimClock
from repro.sim.network import ETHERNET_10MBIT, NetworkModel
from repro.testkit import open_stack


def make_remote(fs, clock, **kwargs):
    server = InversionServer(fs)
    network = NetworkModel(clock=clock, params=ETHERNET_10MBIT)
    return server, RemoteInversionClient(server, network, **kwargs)


def chunks(n, seed=0):
    return [bytes([65 + (seed + i) % 26]) * CHUNK_SIZE for i in range(n)]


def test_sequential_writes_ship_as_batched_rpcs(fs, clock):
    server, client = make_remote(fs, clock, write_batch_chunks=4)
    fd = client.p_creat("/wb")
    client.p_begin()
    for piece in chunks(8):
        client.p_write(fd, piece)
    client.p_commit()
    client.p_close(fd)
    assert client.stats.buffered_writes == 8
    assert client.stats.batched_writes == 2  # 8 chunks / window of 4
    assert fs.read_file("/wb") == b"".join(chunks(8))
    client.close()


def test_default_batch_size_preserves_paper_protocol(fs, clock):
    _server, client = make_remote(fs, clock)
    fd = client.p_creat("/plain")
    client.p_begin()
    for piece in chunks(4):
        client.p_write(fd, piece)
    client.p_commit()
    client.p_close(fd)
    assert client.stats.buffered_writes == 0
    assert client.stats.batched_writes == 0
    client.close()


def test_batching_sends_fewer_messages(fs, clock):
    server1, batched = make_remote(fs, clock, write_batch_chunks=16)
    fd = batched.p_creat("/few")
    batched.p_begin()
    before = batched.network.stats.messages
    for piece in chunks(16):
        batched.p_write(fd, piece)
    batched_msgs = batched.network.stats.messages - before
    batched.p_commit()
    batched.p_close(fd)
    batched.close()

    server2, plain = make_remote(fs, clock, write_batch_chunks=1)
    fd = plain.p_creat("/many")
    plain.p_begin()
    before = plain.network.stats.messages
    for piece in chunks(16):
        plain.p_write(fd, piece)
    plain_msgs = plain.network.stats.messages - before
    plain.p_commit()
    plain.p_close(fd)
    plain.close()
    assert batched_msgs * 4 < plain_msgs


def test_read_after_buffered_write_sees_the_bytes(fs, clock):
    """The write buffer is flushed before any read RPC, so a client
    always observes its own writes in program order."""
    _server, client = make_remote(fs, clock, write_batch_chunks=8)
    fd = client.p_creat("/ryw")
    client.p_begin()
    client.p_write(fd, b"hello ")
    client.p_write(fd, b"world")
    client.p_lseek(fd, 0, 0, 0)
    assert client.p_read(fd, 100) == b"hello world"
    client.p_commit()
    client.p_close(fd)
    client.close()


def test_seek_breaks_the_batch(fs, clock):
    """A non-sequential write ships the pending buffer first, then
    starts a fresh one at the new position — bytes land where the
    paper protocol would put them."""
    _server, client = make_remote(fs, clock, write_batch_chunks=8)
    fd = client.p_creat("/seeky")
    client.p_begin()
    client.p_write(fd, b"A" * 10)
    client.p_lseek(fd, 0, 5, 0)
    client.p_write(fd, b"B" * 10)
    client.p_commit()
    client.p_close(fd)
    assert fs.read_file("/seeky") == b"A" * 5 + b"B" * 10
    client.close()


def test_graceful_close_flushes_buffered_writes(fs, clock):
    _server, client = make_remote(fs, clock, write_batch_chunks=8)
    fd = client.p_creat("/flushed")
    client.p_write(fd, b"kept")  # auto-commit write, buffered client-side
    client.close()               # must ship the buffer before disconnect
    assert fs.read_file("/flushed") == b"kept"


# -- orphaned-session cleanup ------------------------------------------------


def test_disconnect_mid_transaction_releases_locks(fs, clock):
    """A session dying with buffered batched writes inside an open
    transaction must not strand its exclusive locks: the next session
    touching the same paths would block forever."""
    server, dying = make_remote(fs, clock, write_batch_chunks=8)
    dying.p_begin()
    fd = dying.p_creat("/contested")
    dying.p_write(fd, b"buffered, never shipped")
    # The process dies: the server tears the session down without the
    # client-side flush a graceful close would do.
    server.disconnect(dying._link.conn)
    assert not fs.exists("/contested")  # the transaction aborted

    survivor = RemoteInversionClient(
        server, NetworkModel(clock=clock, params=ETHERNET_10MBIT))
    fd2 = survivor.p_creat("/contested")  # would deadlock on leaked locks
    survivor.p_write(fd2, b"second session wins")
    survivor.p_close(fd2)
    survivor.close()
    assert fs.read_file("/contested") == b"second session wins"


def test_disconnect_releases_locks_even_if_abort_hook_raises(fs, clock):
    server, dying = make_remote(fs, clock)
    dying.p_begin()
    fd = dying.p_creat("/hooked")
    dying.p_write(fd, b"x")

    def bad_hook():
        raise RuntimeError("cache invalidation failed")

    server.session_tx(dying._link.conn).abort_hooks.append(bad_hook)
    server.disconnect(dying._link.conn)  # must not raise, must not leak

    survivor = RemoteInversionClient(
        server, NetworkModel(clock=clock, params=ETHERNET_10MBIT))
    fd2 = survivor.p_creat("/hooked")
    survivor.p_write(fd2, b"ok")
    survivor.p_close(fd2)
    survivor.close()
    assert fs.read_file("/hooked") == b"ok"


def test_disconnect_reconciles_pending_attributes(fs, clock):
    """Auto-commit writes durably commit their chunks but defer the
    fileatt size update to close/stat.  A session that dies before
    closing must still reconcile, or every other session sees a stale
    size for data that is already on disk."""
    server, dying = make_remote(fs, clock)
    fd = dying.p_creat("/orphan")
    dying.p_write(fd, b"z" * 1000)  # auto-commit: chunk durable, att lags
    server.disconnect(dying._link.conn)

    assert fs.stat("/orphan").size == 1000
    assert fs.read_file("/orphan") == b"z" * 1000


def _sequential_write(workdir, write_batch_chunks):
    """Figure 6's write over the wire: 128 chunks in one transaction.
    Returns the simulated seconds and messages it took, and the client."""
    clock = SimClock()
    db = Database.create(workdir, clock=clock)
    _server, client = make_remote(InversionFS.mkfs(db), clock,
                                  write_batch_chunks=write_batch_chunks)
    try:
        fd = client.p_creat("/seq")
        db.flush_caches()
        t0, m0 = clock.now(), client.network.stats.messages
        client.p_begin()
        for piece in chunks(128):
            client.p_write(fd, piece)
        client.p_commit()
        return clock.now() - t0, client.network.stats.messages - m0, client
    finally:
        client.close()
        db.close()


def test_a_batched_1mb_write_takes_under_half_the_time(tmp_path):
    plain_s, plain_msgs, plain = _sequential_write(str(tmp_path / "p"), 1)
    batched_s, batched_msgs, client = _sequential_write(
        str(tmp_path / "b"), RPC_BATCH_CHUNKS)
    assert plain_s / batched_s >= 2.0
    assert batched_msgs * 4 < plain_msgs
    # One write RPC per batch, every chunk buffered; the unbatched
    # client buffers nothing.
    assert client.stats.batched_writes == -(-128 // RPC_BATCH_CHUNKS)
    assert client.stats.buffered_writes == 128
    assert (plain.stats.batched_writes, plain.stats.buffered_writes) == (0, 0)


def test_two_descriptors_of_one_file_write_in_program_order(fs, clock):
    """Writes gathered through two descriptors of one path land in the
    order the program made them: the later write through the first
    descriptor overwrites what the second wrote before it."""
    _server, client = make_remote(fs, clock, write_batch_chunks=4)
    fd = client.p_creat("/two")
    client.p_write(fd, b"x" * 40)
    client.p_close(fd)
    first, second = (client.p_open("/two", O_RDWR),
                     client.p_open("/two", O_RDWR))
    client.p_write(first, b"a" * 10)
    client.p_write(second, b"b" * 20)
    client.p_write(first, b"c" * 10)
    client.p_close(first)
    client.p_close(second)
    assert fs.read_file("/two") == b"b" * 10 + b"c" * 10 + b"x" * 20
    client.close()


def test_a_created_file_s_writes_ride_its_close_in_a_transaction(tmp_path):
    """A ``p_creat`` descriptor names a plain file, so on the ``batched``
    stack its gathered writes and its close ride the next request, as
    an ``O_RDWR`` reopen's do: two exchanges in all."""
    stack = open_stack("batched", str(tmp_path / "s"))
    client = stack.client
    trace, round_trip = [], client._round_trip

    def spy(method, arg_bytes, serve):
        trace.append((method, [rider for rider, _ in client._link.riders]))
        return round_trip(method, arg_bytes, serve)

    client._round_trip = spy
    try:
        client.p_begin()
        fd = client.p_creat("/new")
        assert client.p_write(fd, b"n" * 100) == 100
        assert client.p_write(fd, b"m" * 100) == 100
        client.p_close(fd)
        client.p_commit()
        assert trace == [("p_creat", ["p_begin"]),
                         ("p_commit", ["p_write", "p_close"])]
        assert stack.ground_truth()["/new"] == b"n" * 100 + b"m" * 100
    finally:
        stack.close()

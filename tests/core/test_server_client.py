"""Client/server access path: RPC dispatch, sessions, network costs."""

import pytest

from repro.core.client import RemoteInversionClient
from repro.core.constants import O_RDONLY, O_RDWR
from repro.core.server import InversionServer
from repro.errors import InversionError
from repro.sim.network import ETHERNET_10MBIT, NetworkModel


@pytest.fixture
def remote(fs, clock):
    server = InversionServer(fs)
    network = NetworkModel(clock=clock, params=ETHERNET_10MBIT)
    client = RemoteInversionClient(server, network)
    yield fs, client, network
    client.close()


def test_full_file_cycle_over_rpc(remote):
    fs, client, _net = remote
    fd = client.p_creat("/r")
    client.p_write(fd, b"over the wire")
    client.p_lseek(fd, 0, 0, 0)
    assert client.p_read(fd, 100) == b"over the wire"
    client.p_close(fd)
    assert fs.read_file("/r") == b"over the wire"


def test_every_call_charges_network(remote):
    _fs, client, net = remote
    msgs = net.stats.messages
    fd = client.p_creat("/n")
    assert net.stats.messages > msgs
    msgs = net.stats.messages
    client.p_write(fd, b"x" * 8000)
    assert net.stats.messages >= msgs + 2
    client.p_close(fd)


def test_large_read_ships_payload(remote):
    _fs, client, net = remote
    fd = client.p_creat("/big")
    client.p_begin()
    client.p_write(fd, b"z" * 100_000)
    client.p_commit()
    client.p_lseek(fd, 0, 0, 0)
    sent = net.stats.bytes_sent
    client.p_read(fd, 100_000)
    assert net.stats.bytes_sent - sent >= 100_000
    client.p_close(fd)


def test_transactions_over_rpc(remote):
    fs, client, _net = remote
    client.p_begin()
    fd = client.p_creat("/t1")
    client.p_write(fd, b"a")
    client.p_abort()
    assert not fs.exists("/t1")


def test_sessions_isolated(fs, clock):
    server = InversionServer(fs)
    net = NetworkModel(clock=clock, params=ETHERNET_10MBIT)
    c1 = RemoteInversionClient(server, net)
    c2 = RemoteInversionClient(server, net)
    c1.p_begin()
    c2.p_begin()  # a second session may hold its own transaction
    c1.p_abort()
    c2.p_abort()
    c1.close()
    c2.close()


def test_disconnect_aborts_open_transaction(fs, clock):
    server = InversionServer(fs)
    net = NetworkModel(clock=clock, params=ETHERNET_10MBIT)
    client = RemoteInversionClient(server, net)
    client.p_begin()
    fd = client.p_creat("/leak")
    client.p_write(fd, b"x")
    client.close()  # server aborts the in-flight transaction
    assert not fs.exists("/leak")


def test_disconnect_keeps_what_its_teardown_dropped(fs, monkeypatch):
    """A dead session's abort and close may fail; teardown still
    finishes — locks released, session gone — and keeps each error."""
    server = InversionServer(fs)
    sid = server.connect()
    fd = server.dispatch(sid, "p_creat", "/kept")
    server.dispatch(sid, "p_begin")
    server.dispatch(sid, "p_mkdir", "/held")
    session = server._sessions[sid]
    held = [handle.resource for handle in session._tx.held_locks]
    assert held

    def fail(*_args):
        raise OSError("the medium is gone")
    monkeypatch.setattr(session, "p_abort", fail)
    monkeypatch.setattr(session, "p_close", fail)
    server.disconnect(sid)
    error = repr(OSError("the medium is gone"))
    assert server.teardown_errors == [(sid, None, error), (sid, fd, error)]
    assert sid not in server._sessions
    assert all(fs.db.locks.holders(resource) == {} for resource in held)


def test_unknown_method_rejected(fs):
    server = InversionServer(fs)
    session = server.connect()
    with pytest.raises(InversionError):
        server.dispatch(session, "drop_all_tables")


def test_unknown_session_rejected(fs):
    server = InversionServer(fs)
    with pytest.raises(InversionError):
        server.dispatch(99, "p_begin")


def test_queries_over_rpc(remote):
    _fs, client, _net = remote
    fd = client.p_creat("/q1")
    client.p_close(fd)
    rows = client.p_query('retrieve (filename) where filename = "q1"')
    assert rows == [("q1",)]


def test_write_behind_cheaper_than_synchronous(fs, clock):
    """Consecutive writes overlap network and server work."""
    server = InversionServer(fs)
    net = NetworkModel(clock=clock, params=ETHERNET_10MBIT)
    pipelined = RemoteInversionClient(server, net, write_behind=True)
    fd = pipelined.p_creat("/wb")
    pipelined.p_begin()
    start = clock.now()
    for i in range(8):
        pipelined.p_write(fd, b"d" * 4096)
    pipelined.p_commit()
    piped = clock.now() - start
    pipelined.p_close(fd)

    sync = RemoteInversionClient(server, net, write_behind=False)
    fd2 = sync.p_creat("/sync")
    sync.p_begin()
    start = clock.now()
    for i in range(8):
        sync.p_write(fd2, b"d" * 4096)
    sync.p_commit()
    serial = clock.now() - start
    sync.p_close(fd2)
    pipelined.close()
    sync.close()
    assert piped < serial


def test_bad_arity_rejected_before_dispatch(fs):
    """Malformed argument lists fail with a protocol error naming the
    method — not a TypeError from deep inside the library."""
    server = InversionServer(fs)
    session = server.connect()
    server.dispatch(session, "p_begin")
    with pytest.raises(InversionError, match="p_creat"):
        server.dispatch(session, "p_creat")             # missing path
    with pytest.raises(InversionError, match="p_read"):
        server.dispatch(session, "p_read", 1, 2, 3, 4)  # too many args
    with pytest.raises(InversionError, match="p_write"):
        server.dispatch(session, "p_write", 1, b"d", bogus=True)
    # the session survives rejected requests and still works.
    fd = server.dispatch(session, "p_creat", "/valid")
    server.dispatch(session, "p_write", fd, b"ok")
    server.dispatch(session, "p_close", fd)
    server.dispatch(session, "p_commit")
    assert fs.read_file("/valid") == b"ok"


def test_a_stat_reply_counts_the_att_by_its_row(remote):
    """The reply carries the row: five numbers, the owner, the type."""
    _fs, client, net = remote
    client.p_close(client.p_creat("/s"))
    sent = net.stats.bytes_sent
    client.p_stat("/s")
    request = 64 + len("/s") + 8
    reply = 32 + 5 * 8 + len("root") + len("plain")
    assert net.stats.bytes_sent - sent == request + reply

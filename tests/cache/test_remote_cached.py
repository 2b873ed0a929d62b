"""Integration: the lease-coherent cache on the remote client.

Zero-message hot reads, cross-client coherence, negative caching,
rename subtree invalidation, disconnect revocation, and the
per-transaction accounting of cache hits.
"""

from __future__ import annotations

import pytest

from repro.core.client import RemoteInversionClient
from repro.core.library import O_RDWR
from repro.core.server import InversionServer
from repro.errors import FileNotFoundError_
from repro.sim.network import ETHERNET_10MBIT, NetworkModel


@pytest.fixture
def server(fs) -> InversionServer:
    return InversionServer(fs)


def make_client(server, clock, **kwargs) -> RemoteInversionClient:
    network = NetworkModel(clock=clock, params=ETHERNET_10MBIT)
    kwargs.setdefault("cache_paths", 64)
    kwargs.setdefault("cache_chunks", 32)
    return RemoteInversionClient(server, network, **kwargs)


def test_warm_reread_and_restat_cost_zero_messages(server, clock):
    client = make_client(server, clock)
    data = b"h" * 40_000
    client.p_mkdir("/hot")
    fd = client.p_creat("/hot/f")
    client.p_write(fd, data)
    client.p_close(fd)
    client.p_stat("/hot/f")
    fd = client.p_open("/hot/f", 0)
    assert client.p_read(fd, len(data)) == data
    m0 = client.network.stats.messages
    for _ in range(4):
        att = client.p_stat("/hot/f")
        assert att.size == len(data)
        client.p_lseek(fd, 0, 0)            # absorbed client-side
        assert client.p_read(fd, len(data)) == data
    assert client.network.stats.messages == m0
    assert client._cache.stats.hits["att"] == 4
    assert client._cache.stats.hits["seek"] == 4
    client.close()


def test_cross_client_write_invalidates_cached_chunks(server, clock):
    reader = make_client(server, clock)
    writer = make_client(server, clock, cache_paths=0, cache_chunks=0)
    old = b"a" * 20_000
    fd = reader.p_creat("/f")
    reader.p_write(fd, old)
    reader.p_close(fd)
    reader.p_stat("/f")
    fd = reader.p_open("/f", 0)
    assert reader.p_read(fd, len(old)) == old
    new = b"b" * 20_000
    wfd = writer.p_open("/f", O_RDWR)
    writer.p_write(wfd, new)
    writer.p_close(wfd)
    # The writer's commit bumped the object's epoch; the reader drops
    # its chunks on the piggybacked notice and re-reads fresh bytes.
    reader.p_lseek(fd, 0, 0)
    assert reader.p_read(fd, len(new)) == new
    assert reader._cache.stats.invalidations > 0
    reader.close()
    writer.close()


def test_negative_caching_reraises_same_message(server, clock):
    client = make_client(server, clock)
    client.p_mkdir("/d")
    with pytest.raises(FileNotFoundError_) as first:
        client.p_stat("/d/nope")
    m0 = client.network.stats.messages
    with pytest.raises(FileNotFoundError_) as second:
        client.p_stat("/d/nope")
    assert client.network.stats.messages == m0      # served locally
    assert str(second.value) == str(first.value)
    assert client._cache.stats.hits["negative"] >= 1
    # Creating the file invalidates the negative entry.
    client.p_close(client.p_creat("/d/nope"))
    assert client.p_stat("/d/nope").size == 0
    client.close()


def test_rename_invalidates_cached_subtree(server, clock):
    client = make_client(server, clock)
    client.p_mkdir("/d")
    fd = client.p_creat("/d/a")
    client.p_write(fd, b"x" * 100)
    client.p_close(fd)
    client.p_stat("/d/a")                   # caches /d/a -> oid
    client.p_rename("/d", "/e")
    with pytest.raises(FileNotFoundError_):
        client.p_stat("/d/a")
    assert client.p_stat("/e/a").size == 100
    client.close()


def test_disconnect_revokes_lease(server, clock):
    client = make_client(server, clock)
    session = client._link.conn
    leases = server.leases
    assert leases.subscribed(session)
    before = leases.stats.lease_revocations
    client.close()                          # disconnects the session
    assert not leases.subscribed(session)
    assert leases.stats.lease_revocations == before + 1
    assert client._cache.revoked


def test_revoked_session_stops_serving(server, clock):
    client = make_client(server, clock)
    fd = client.p_creat("/f")
    client.p_write(fd, b"z" * 100)
    client.p_close(fd)
    client.p_stat("/f")
    # The server forcibly expires the lease (crash-recovery path).
    server.leases.revoke(client._link.conn)
    att = client.p_stat("/f")               # goes to the server again
    assert att.size == 100
    assert client._cache.revoked


def test_cache_hits_charged_to_owning_xid(db, server, clock):
    client = make_client(server, clock)
    data = b"w" * 20_000
    fd = client.p_creat("/f")
    client.p_write(fd, data)
    client.p_close(fd)
    client.p_stat("/f")
    fd = client.p_open("/f", 0)
    client.p_read(fd, len(data))            # fills; owner = this read's xid
    client.p_lseek(fd, 0, 0)
    client.p_read(fd, len(data))            # served from cache
    client.p_close(fd)
    client.close()
    charged = sum(row.get("client_cache_hits", 0)
                  for row in db.obs.tx.breakdown().values())
    assert charged == client._cache.stats.hits["chunk"]
    assert charged > 0


def test_explicit_transactions_bypass_the_cache(server, clock):
    client = make_client(server, clock)
    fd = client.p_creat("/f")
    client.p_write(fd, b"q" * 100)
    client.p_close(fd)
    client.p_stat("/f")                     # cached
    client.p_begin()
    m0 = client.network.stats.messages
    client.p_stat("/f")                     # in-tx: always an RPC
    assert client.network.stats.messages > m0
    client.p_commit()
    client.close()

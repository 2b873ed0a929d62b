"""Leases on the sharded cluster: the caching cluster client, and
lease expiry during in-doubt recovery."""

from __future__ import annotations

import pytest

from repro.errors import FileNotFoundError_
from repro.shard.cluster import ShardedCluster


@pytest.fixture
def cluster(tmp_path):
    c = ShardedCluster.create(str(tmp_path / "cl"), 2, policy="subtree",
                              assignments={"a": 0, "b": 1})
    yield c
    c.close()


def test_cluster_client_caches_stats_across_shards(cluster):
    client = cluster.client(cache_paths=32, cache_chunks=16)
    client.p_mkdir("/a")
    client.p_mkdir("/b")
    client.p_close(client.p_creat("/a/x"))
    client.p_close(client.p_creat("/b/y"))
    client.p_stat("/a/x")
    client.p_stat("/b/y")
    before = dict(client._cache_factory.stats.hits)
    client.p_stat("/a/x")       # shard 0 hit
    client.p_stat("/b/y")       # shard 1 hit
    assert client._cache_factory.stats.hits["att"] == before.get("att", 0) + 2
    client.close()


def test_cluster_client_negative_caching(cluster):
    client = cluster.client(cache_paths=32)
    client.p_mkdir("/a")
    with pytest.raises(FileNotFoundError_) as first:
        client.p_stat("/a/nope")
    with pytest.raises(FileNotFoundError_) as second:
        client.p_stat("/a/nope")
    assert str(second.value) == str(first.value)
    assert client._cache_factory.stats.hits.get("negative", 0) >= 1
    client.close()


def test_expire_leases_revokes_every_shard(cluster):
    client = cluster.client(cache_paths=32, cache_chunks=16)
    client.p_mkdir("/a")
    client.p_mkdir("/b")
    client.p_stat("/a")
    client.p_stat("/b")
    revoked = cluster.expire_leases()
    assert revoked == 2          # one subscription per shard
    # The client notices per shard on its next request there.
    client.p_stat("/a")
    client.p_stat("/b")
    assert all(link.cache.revoked for link in client._links.values())
    client.close()


def test_in_doubt_recovery_expires_leases(cluster):
    """Cluster recovery must not leave any pre-crash lease alive — a
    cached client from before the crash could otherwise shield stale
    entries from post-recovery mutations."""
    client = cluster.client(cache_paths=32, cache_chunks=16)
    client.p_mkdir("/a")
    client.p_stat("/a")
    assert any(server.leases is not None and server.leases._channels
               for server in cluster.servers)
    cluster._recover_in_doubt()
    assert all(not server.leases._channels
               for server in cluster.servers if server.leases is not None)
    client.p_stat("/a")          # served by the server, lease gone
    assert all(link.cache.revoked for link in client._links.values())
    client.close()


def test_cached_cluster_client_coherent_across_clients(cluster):
    reader = cluster.client(cache_paths=32, cache_chunks=16)
    writer = cluster.client()
    reader.p_mkdir("/a")
    reader.p_close(reader.p_creat("/a/f"))
    assert reader.p_stat("/a/f").size == 0
    fd = writer.p_creat("/a/f2")     # unrelated mutation
    writer.p_write(fd, b"x" * 500)
    writer.p_close(fd)
    wfd = writer.p_open("/a/f", 2)   # O_RDWR
    writer.p_write(wfd, b"y" * 123)
    writer.p_close(wfd)
    # The writer's commit invalidates the reader's cached att.
    assert reader.p_stat("/a/f").size == 123
    reader.close()
    writer.close()

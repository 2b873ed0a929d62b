"""Replica reader sessions: what a whole-file read costs on the wire,
and what a cached reader sees after a sync round."""

from repro.core.constants import CHUNK_SIZE, O_RDONLY, O_RDWR
from repro.replica import ReplicatedCluster

OLD = b"o" * (3 * CHUNK_SIZE)


def _read_file(client, path: str) -> bytes:
    fd = client.p_open(path, O_RDONLY)
    data = b"".join(iter(lambda: client.p_read(fd, CHUNK_SIZE), b""))
    client.p_close(fd)
    return data


def _cluster(tmp_path, **kwargs) -> ReplicatedCluster:
    cluster = ReplicatedCluster.create(str(tmp_path), 1, **kwargs)
    writer = cluster.writer_client()
    for path in ("/f", "/g"):
        fd = writer.p_creat(path)
        writer.p_write(fd, OLD)
        writer.p_close(fd)
    writer.close()
    cluster.sync_all()
    return cluster


def test_a_whole_file_read_is_one_round_trip(tmp_path):
    """One ``p_open`` whose reply carries three chunks and EOF; the
    close rides the next file's open."""
    cluster = _cluster(tmp_path)
    reader = cluster.reader_client()
    assert reader.server is cluster.replicas[0]
    stats = reader.network.stats
    try:
        for path in ("/f", "/g"):
            before = stats.round_trips
            assert _read_file(reader, path) == OLD
            assert stats.round_trips - before == 1
        assert (reader.riders, reader.filled_opens) == (2, 2)
    finally:
        reader.close()
        cluster.close()


def test_a_write_transaction_is_three_round_trips(tmp_path):
    """begin, open, seek, write, close, commit: the begin rides the
    open, the seek rides the write, and the close rides the commit."""
    cluster = _cluster(tmp_path)
    writer = cluster.writer_client()
    stats = writer.network.stats
    before = stats.round_trips
    try:
        writer.p_begin()
        fd = writer.p_open("/f", O_RDWR)
        writer.p_lseek(fd, 0, CHUNK_SIZE, 0)
        assert writer.p_write(fd, b"n" * 100) == 100
        writer.p_close(fd)
        writer.p_commit()
        assert (stats.round_trips - before, writer.riders) == (3, 3)
        cluster.sync_all()
        reader = cluster.reader_client()
        expected = OLD[:CHUNK_SIZE] + b"n" * 100 + OLD[CHUNK_SIZE + 100:]
        assert _read_file(reader, "/f") == expected
        reader.close()
    finally:
        writer.close()
        cluster.close()


def test_cached_reader_sees_a_shipped_commit(tmp_path):
    """A sync round that applied anything invalidates the replica's
    client caches, so a cached reader at a level horizon reads what an
    uncached one does."""
    cluster = _cluster(tmp_path, staleness_xids=0)
    cached = cluster.reader_client(cache_paths=16, cache_chunks=16)
    plain = cluster.reader_client()
    writer = cluster.writer_client()
    try:
        cached.p_stat("/f")         # the chunk tier fills under an att
        assert _read_file(cached, "/f") == OLD
        assert _read_file(cached, "/f") == OLD
        assert cached._cache.stats.hits["chunk"] == 3
        new = b"n" * len(OLD)
        fd = writer.p_open("/f", O_RDWR)
        writer.p_write(fd, new)
        writer.p_close(fd)
        cluster.sync_all()
        assert cluster.replicas[0].horizon() == cluster.feed.durable_horizon()
        assert _read_file(plain, "/f") == new
        cached.p_stat("/f")
        assert _read_file(cached, "/f") == new
    finally:
        for client in (cached, plain, writer):
            client.close()
        cluster.close()

"""Replica reader sessions: what a whole-file read costs on the wire,
and what a cached reader sees after a sync round."""

import os

from repro.cache import session_cache_factory
from repro.core.constants import CHUNK_SIZE, O_RDONLY, O_RDWR
from repro.core.library import InversionClient
from repro.replica import ReplicaServer, ReplicatedCluster
from repro.testkit.workload import payload

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
        assert (reader.stats.riders, reader.stats.filled_opens) == (2, 2)
    finally:
        reader.close()
        cluster.close()


def test_a_re_read_ships_only_the_chunks_that_changed(tmp_path):
    """A re-read's open sends the digests of the reader's copy: the
    reply to an unchanged 3-chunk file carries an 8-byte marker per
    chunk and no chunk bytes, and after a shipped commit changed one
    chunk it carries exactly that chunk."""
    cluster = _cluster(tmp_path)
    reader = cluster.reader_client()
    writer = cluster.writer_client()
    replies = []
    compare = reader.server.compare_chunks
    reader.server.compare_chunks = lambda data, digests: replies.append(
        compare(data, digests)) or replies[-1]
    sent = []
    send = reader.network.send
    reader.network.send = lambda payload: sent.append(payload) or send(
        payload)
    try:
        assert _read_file(reader, "/f") == OLD
        whole = sent[-1]
        assert _read_file(reader, "/f") == OLD
        assert replies[-1] == [None, None, None]
        assert sent[-1] == whole - 3 * CHUNK_SIZE + 3 * 8
        fd = writer.p_open("/f", O_RDWR)
        writer.p_lseek(fd, 0, CHUNK_SIZE, 0)
        writer.p_write(fd, b"n" * 100)
        writer.p_close(fd)
        cluster.sync_all()
        new = OLD[:CHUNK_SIZE] + b"n" * 100 + OLD[CHUNK_SIZE + 100:]
        assert _read_file(reader, "/f") == new
        assert replies[-1] == [None, new[CHUNK_SIZE:2 * CHUNK_SIZE], None]
        assert sent[-1] == whole - 2 * CHUNK_SIZE + 2 * 8
        assert (reader.stats.filled_opens, reader.stats.unchanged_chunks) == (3, 5)
    finally:
        for client in (reader, writer):
            client.close()
        cluster.close()


def test_a_write_transaction_is_two_round_trips(tmp_path):
    """begin, open, seek, write, close, commit: the begin rides the
    open, and the seek, the write and the close ride the commit."""
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
        assert (stats.round_trips - before, writer.stats.riders) == (2, 4)
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
    cached = cluster.reader_client(
        cache_factory=session_cache_factory(16, 16))
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


def test_a_bounded_replica_sees_every_cached_open(tmp_path):
    """With ``staleness_xids=0`` a cached reader's re-open still reaches
    the replica, which catches up on a commit no sync round shipped and
    invalidates the cache: the re-read returns the new bytes."""
    cluster = _cluster(tmp_path, staleness_xids=0)
    cached = cluster.reader_client(
        cache_factory=session_cache_factory(16, 16))
    writer = cluster.writer_client()
    try:
        cached.p_stat("/f")
        assert _read_file(cached, "/f") == OLD
        assert _read_file(cached, "/f") == OLD
        new = b"n" * len(OLD)
        fd = writer.p_open("/f", O_RDWR)
        writer.p_write(fd, new)
        writer.p_close(fd)
        assert _read_file(cached, "/f") == new
        assert cluster.replicas[0].stats.staleness_syncs >= 1
    finally:
        for client in (cached, writer):
            client.close()
        cluster.close()


def test_a_cached_reader_reads_ahead_on_a_miss(tmp_path):
    """A cached reader's miss fetches a read-ahead window, as its server
    descriptor's read does: a cold read of a 3-chunk file is the open and
    one read; a re-read (the name granted, its att not yet known) one
    read, whose reply brings the att and fills the chunk tier; after a
    stat (an att hit), none, and none again."""
    cluster = _cluster(tmp_path)
    cached = cluster.reader_client(
        cache_factory=session_cache_factory(16, 16))
    stats = cached.network.stats
    trips = []
    try:
        for stat in (False, False, True, False):
            if stat:
                cached.p_stat("/f")
            before = stats.round_trips
            assert _read_file(cached, "/f") == OLD
            trips.append(stats.round_trips - before)
        assert trips == [2, 1, 0, 0]
        assert cached._cache.stats.hits["chunk"] == 6
        assert cached._cache.stats.hits["att"] == 1
    finally:
        cached.close()
        cluster.close()


def _fleet_reads_per_second(workdir: str, nreplicas: int) -> float:
    """Eight reader sessions each read six 24 KB files end to end in
    8 KB calls, routed round-robin over ``nreplicas`` replicas seeded
    once the files are committed (with none, the primary serves them).
    The fleet's time is its slowest member's clock."""
    cluster = ReplicatedCluster.create(workdir, 0)
    setup = InversionClient(cluster.primary_fs)
    setup.p_begin()
    for i in range(6):
        fd = setup.p_creat(f"/data{i}")
        setup.p_write(fd, payload(0, f"file{i}", 3 * 8192))
        setup.p_close(fd)
    setup.p_commit()
    cluster.primary_db.tm.flush_commits()
    cluster.primary_db.flush_caches()
    cluster.replicas = [
        ReplicaServer.seed(cluster.feed, os.path.join(workdir, f"r{i}"),
                           f"replica{i}") for i in range(nreplicas)]
    readers = [cluster.reader_client() for _ in range(8)]
    clocks = {id(r.server): r.network.clock for r in readers}
    starts = {key: clock.now() for key, clock in clocks.items()}
    reads = 0
    for reader in readers:
        for i in range(6):
            fd = reader.p_open(f"/data{i}", O_RDONLY)
            while reader.p_read(fd, 8192):
                reads += 1
            reader.p_close(fd)
        reader.close()
    elapsed = max(clock.now() - starts[key] for key, clock in clocks.items())
    cluster.close()
    assert reads == 8 * 6 * 3
    return reads / elapsed


def test_four_replicas_serve_at_least_three_times_the_reads_of_one(
        tmp_path):
    rates = {n: _fleet_reads_per_second(str(tmp_path / f"n{n}"), n)
             for n in (0, 1, 2, 4)}
    assert list(rates.values()) == sorted(rates.values())
    assert rates[4] / rates[1] >= 3.0

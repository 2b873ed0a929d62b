"""The primary-side feed: tap coverage, batched pulls, gap handling."""

import pytest

from repro.core.filesystem import InversionFS
from repro.core.library import InversionClient
from repro.db.database import Database
from repro.errors import FeedGapError

from tests.replica.conftest import write_file


def test_tap_records_durable_mutations(primary, writer):
    db, _, feed = primary
    start = feed.next_seq
    write_file(writer, "/a", b"hello feed")
    db.tm.flush_commits()
    kinds = {e.kind for e in feed.log[start - feed.base_seq:]}
    assert "page" in kinds       # heap/B-tree page images
    assert "append" in kinds     # the commit status record
    for dev in db.switch:
        assert dev.describe().get("feed_tap") is True


def test_no_attach_means_no_tap(tmp_path):
    """Replication is off by default: a plain database carries no
    replication state at all."""
    db = Database.create(str(tmp_path / "plain"))
    try:
        for dev in db.switch:
            assert "feed_tap" not in dev.describe()
    finally:
        db.close()


def test_pull_batches_in_order_with_more_flag(primary, writer):
    db, _, feed = primary
    write_file(writer, "/a", b"x" * 9000)
    db.tm.flush_commits()
    assert feed.next_seq > 3
    cursor, got = 0, []
    for _ in range(feed.next_seq * 2):
        entries, cursor, more = feed.pull(cursor, 2)
        assert len(entries) <= 2
        got.extend(entries)
        if not more:
            break
    assert cursor == feed.next_seq
    assert got == feed.log
    assert [e.seq for e in got] == list(range(feed.next_seq))
    # Pulling at the end is an empty, not-an-error round.
    entries, cursor2, more = feed.pull(cursor, 10)
    assert entries == [] and cursor2 == cursor and not more


def test_pull_beyond_end_is_a_gap(primary):
    _, _, feed = primary
    with pytest.raises(FeedGapError):
        feed.pull(feed.next_seq + 1, 10)


def test_ack_and_trim_drop_to_slowest_replica(primary, writer):
    db, _, feed = primary
    write_file(writer, "/a", b"payload")
    db.tm.flush_commits()
    end = feed.next_seq
    assert feed.trim() == 0  # nobody acked yet: keep everything
    feed.ack("r2", 2)        # an ack trims to the slowest cursor
    assert feed.base_seq == 2 and len(feed.log) == end - 2
    feed.ack("r1", end)      # r2 still pins its lag
    assert feed.base_seq == 2 and feed.trim() == 0
    # The fast replica still pulls fine; below-base cursors must re-seed.
    feed.pull(end, 10)
    with pytest.raises(FeedGapError):
        feed.pull(0, 10)
    feed.ack("r2", end)
    assert feed.base_seq == end and feed.log == []
    # An ack below a base the others already trimmed cannot bring the
    # entries back: that replica re-seeds.
    feed.ack("r3", 1)
    assert feed.base_seq == end
    with pytest.raises(FeedGapError):
        feed.pull(1, 10)


def test_durable_horizon_tracks_flushed_commits(primary, writer):
    db, _, feed = primary
    before = feed.durable_horizon()
    write_file(writer, "/a", b"data")
    db.tm.flush_commits()
    assert feed.durable_horizon() > before


def test_entry_bytes_account_payload_and_names(primary, writer):
    db, _, feed = primary
    write_file(writer, "/a", b"data")
    db.tm.flush_commits()
    for entry in feed.log:
        assert entry.nbytes >= 24 + len(entry.a)
        if entry.payload is not None:
            assert entry.nbytes >= len(entry.payload)


def test_tap_survives_reads(primary, writer):
    """Reads pass through untapped: pulling and reading add nothing."""
    db, fs, feed = primary
    write_file(writer, "/a", b"stable")
    db.tm.flush_commits()
    db.flush_caches()
    end = feed.next_seq
    reader = InversionClient(fs)
    fd = reader.p_open("/a", 0)
    assert reader.p_read(fd, 100) == b"stable"
    reader.p_close(fd)
    feed.pull(0, 1000)
    assert feed.next_seq == end

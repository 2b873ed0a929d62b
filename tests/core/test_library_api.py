"""The Figure 2 client library: p_creat/p_open/p_close/p_read/p_write/
p_lseek plus p_begin/p_commit/p_abort."""

import pytest

from repro.core.checker import ConsistencyChecker
from repro.core.constants import O_RDONLY, O_RDWR, SEEK_CUR, SEEK_END
from repro.errors import BadFileDescriptorError, TransactionError


def test_figure2_signatures_exist(client):
    for name in ("p_creat", "p_open", "p_close", "p_read", "p_write",
                 "p_lseek", "p_begin", "p_commit", "p_abort"):
        assert callable(getattr(client, name))


def test_create_write_read_cycle(client):
    fd = client.p_creat("/f")
    assert client.p_write(fd, b"hello") == 5
    client.p_lseek(fd, 0, 0)
    assert client.p_read(fd, 5) == b"hello"
    client.p_close(fd)


def test_fd_numbers_start_above_stdio(client):
    fd = client.p_creat("/f")
    assert fd >= 3
    client.p_close(fd)


def test_p_lseek_64bit_offsets(client):
    """offset = (high << 32) | low — the widened seek of Figure 2."""
    fd = client.p_creat("/big")
    client.p_begin()
    pos = client.p_lseek(fd, 1, 16, 0)
    assert pos == (1 << 32) | 16
    client.p_write(fd, b"far")
    client.p_lseek(fd, 1, 16, 0)
    assert client.p_read(fd, 3) == b"far"
    client.p_commit()
    client.p_close(fd)
    # Reported size reflects the 4 GB+ offset, beyond FFS's limit.
    assert client.p_stat("/big").size == (1 << 32) + 16 + 3


def test_p_lseek_cur_and_end(client):
    fd = client.p_creat("/s")
    client.p_write(fd, b"0123456789")
    client.p_lseek(fd, 0, 2, SEEK_CUR) if False else None
    assert client.p_lseek(fd, 0, 0, SEEK_END) == 10
    assert client.p_lseek(fd, 0, (1 << 32) - 4 & 0xFFFFFFFF, 0) >= 0
    client.p_close(fd)


def test_bad_fd_rejected(client):
    with pytest.raises(BadFileDescriptorError):
        client.p_read(77, 1)
    with pytest.raises(BadFileDescriptorError):
        client.p_close(77)


def test_transaction_spanning_multiple_files(client, fs):
    """"Inversion supports transactions encompassing changes to
    arbitrary numbers of files, and commits or aborts all changes
    atomically."""
    client.p_begin()
    fd1 = client.p_creat("/src1.c")
    fd2 = client.p_creat("/src2.c")
    client.p_write(fd1, b"int main;")
    client.p_write(fd2, b"int helper;")
    client.p_commit()
    client.p_close(fd1)
    client.p_close(fd2)
    assert fs.read_file("/src1.c") == b"int main;"
    assert fs.read_file("/src2.c") == b"int helper;"


def test_abort_rolls_back_every_file(client, fs):
    fd_keep = client.p_creat("/keep")
    client.p_write(fd_keep, b"safe")
    client.p_close(fd_keep)
    client.p_begin()
    fd1 = client.p_creat("/a")
    fd2 = client.p_open("/keep", O_RDWR)
    client.p_write(fd1, b"doomed")
    client.p_write(fd2, b"OVERWRITTEN")
    client.p_abort()
    assert not fs.exists("/a")
    assert fs.read_file("/keep") == b"safe"


def test_no_nested_transactions(client):
    """"A single application program may only have one transaction
    active at any time."""
    client.p_begin()
    with pytest.raises(TransactionError):
        client.p_begin()
    client.p_commit()


def test_commit_without_begin_rejected(client):
    with pytest.raises(TransactionError):
        client.p_commit()
    with pytest.raises(TransactionError):
        client.p_abort()


def test_autocommit_each_call_is_durable(client, fs):
    fd = client.p_creat("/auto")
    client.p_write(fd, b"one")
    # No explicit commit: the chunk already committed.  The library
    # batches attribute maintenance, so the recorded size lags until a
    # stat/close reconciles it — other clients see the data then.
    client.p_stat("/auto")
    assert fs.read_file("/auto") == b"one"
    client.p_close(fd)


def test_historical_open_via_timestamp(client, clock):
    fd = client.p_creat("/t")
    client.p_write(fd, b"old contents")
    client.p_close(fd)
    t0 = clock.now()
    fd = client.p_open("/t", O_RDWR)
    client.p_write(fd, b"NEW")
    client.p_close(fd)
    hist = client.p_open("/t", O_RDONLY, timestamp=t0)
    assert client.p_read(hist, 100) == b"old contents"
    client.p_close(hist)


def test_position_preserved_across_autocommit_calls(client):
    fd = client.p_creat("/pos")
    client.p_write(fd, b"aaa")
    client.p_write(fd, b"bbb")  # continues at offset 3
    client.p_lseek(fd, 0, 0)
    assert client.p_read(fd, 6) == b"aaabbb"
    client.p_close(fd)


def test_p_stat_reconciles_pending_size(client):
    fd = client.p_creat("/sz")
    client.p_write(fd, b"x" * 1000)
    assert client.p_stat("/sz").size == 1000
    client.p_close(fd)


def test_p_readdir_and_namespace_calls(client):
    client.p_mkdir("/dir")
    fd = client.p_creat("/dir/file")
    client.p_close(fd)
    assert client.p_readdir("/dir") == ["file"]
    client.p_rename("/dir/file", "/dir/renamed")
    assert client.p_readdir("/dir") == ["renamed"]
    client.p_unlink("/dir/renamed")
    client.p_rmdir("/dir")
    assert client.p_readdir("/") == []


def test_handles_rebind_after_commit(client):
    client.p_begin()
    fd = client.p_creat("/rebind")
    client.p_write(fd, b"first")
    client.p_commit()
    client.p_begin()
    client.p_write(fd, b"-more")
    client.p_commit()
    client.p_lseek(fd, 0, 0)
    assert client.p_read(fd, 20) == b"first-more"
    client.p_close(fd)


def _file_of_1000_bytes(client) -> None:
    fd = client.p_creat("/a")
    client.p_write(fd, bytes(range(250)) * 4)
    client.p_close(fd)


def test_a_transaction_reads_its_own_writes_before_their_close(client):
    """A write through one descriptor is seen by a stat and by another
    descriptor's read in the same transaction before its close — as it
    is once the descriptor closed, and as a ``p_pwrite`` leaves it."""
    _file_of_1000_bytes(client)
    client.p_begin()
    fd = client.p_open("/a", O_RDWR)
    client.p_lseek(fd, 0, 1000)
    assert client.p_write(fd, b"w" * 100) == 100
    assert client.p_stat("/a").size == 1100
    reader = client.p_open("/a", O_RDONLY)
    client.p_lseek(reader, 0, 990)
    assert client.p_read(reader, 50) == bytes(range(240, 250)) + b"w" * 40
    assert client.p_pread("/a", 1090, 50) == b"w" * 10
    client.p_close(fd)
    assert client.p_stat("/a").size == 1100
    client.p_close(reader)
    client.p_commit()
    assert client.p_stat("/a").size == 1100


def test_p_pwrite_is_a_descriptor_write_and_its_close(client, fs):
    """Inside a transaction it is seen at once and undone by an abort;
    outside one it commits bytes and size in one transaction, leaving
    no size pending."""
    _file_of_1000_bytes(client)
    client.p_begin()
    assert client.p_pwrite("/a", 1000, b"t" * 20) == 20
    assert client.p_stat("/a").size == 1020
    assert client.p_pread("/a", 990, 40) == bytes(range(240, 250)) + b"t" * 20
    client.p_abort()
    assert client.p_stat("/a").size == 1000
    commits = fs.db.tm.stats.commits_recorded
    assert client.p_pwrite("/a", 1010, b"u" * 10) == 10
    assert fs.db.tm.stats.commits_recorded == commits + 1
    assert fs.stat("/a").size == 1020
    assert fs.read_file("/a")[1000:] == bytes(10) + b"u" * 10


@pytest.mark.parametrize("grow", ["descriptor", "p_pwrite"])
def test_an_older_descriptor_reads_its_transactions_growth(client, grow):
    """A descriptor that read before the session grew the file in the
    same transaction — through another descriptor or a ``p_pwrite`` —
    reads up to the new end, as a fresh descriptor does, before and
    after the writer's close."""
    _file_of_1000_bytes(client)
    client.p_begin()
    old = client.p_open("/a", O_RDONLY)
    assert client.p_read(old, 10) == bytes(range(10))
    if grow == "descriptor":
        writer = client.p_open("/a", O_RDWR)
        client.p_lseek(writer, 0, 1000)
        assert client.p_write(writer, b"w" * 100) == 100
    else:
        assert client.p_pwrite("/a", 1000, b"w" * 100) == 100
    want = bytes(range(240, 250)) + b"w" * 40
    client.p_lseek(old, 0, 990)
    assert client.p_read(old, 50) == want
    fresh = client.p_open("/a", O_RDONLY)
    client.p_lseek(fresh, 0, 990)
    assert client.p_read(fresh, 50) == want
    assert client.p_stat("/a").size == 1100
    if grow == "descriptor":
        client.p_close(writer)
    client.p_lseek(old, 0, 1090)
    assert client.p_read(old, 50) == b"w" * 10
    client.p_close(old)
    client.p_close(fresh)
    client.p_commit()


@pytest.mark.parametrize("in_transaction", [False, True])
def test_an_empty_write_past_the_end_ends_the_file_in_a_chunk(client, fs,
                                                              in_transaction):
    """``p_pwrite`` of no bytes at 100 grows a 0-byte file to 100 zero
    bytes, as the bytes before it would; the file's last chunk is
    written, so the checker finds no trailing hole."""
    client.p_close(client.p_creat("/a"))
    if in_transaction:
        client.p_begin()
    assert client.p_pwrite("/a", 100, b"") == 0
    if in_transaction:
        client.p_commit()
    assert client.p_stat("/a").size == 100
    assert fs.read_file("/a") == bytes(100)
    assert ConsistencyChecker(fs).check_all().corruptions == []

"""NFS server (statelessness, PRESTOserve) and client (transfer split,
pipelining)."""

import pytest

from repro.errors import NfsError
from repro.nfs.client import NFSClient, UDP_RPC_10MBIT
from repro.nfs.ffs import BLOCK_SIZE, FastFileSystem
from repro.nfs.server import NFS_MAX_TRANSFER, NFSServer
from repro.sim.clock import SimClock
from repro.sim.disk import DiskModel
from repro.sim.network import NetworkModel
from repro.sim.nvram import NvramCache


def build(prestoserve=True, pipeline=True):
    clock = SimClock()
    disk = DiskModel(clock=clock)
    ffs = FastFileSystem(clock, disk)
    board = NvramCache(clock=clock, disk=disk) if prestoserve else None
    server = NFSServer(ffs, board)
    client = NFSClient(server, NetworkModel(clock=clock, params=UDP_RPC_10MBIT),
                       pipeline=pipeline)
    return clock, ffs, board, server, client


def test_create_write_read_cycle():
    _clock, _ffs, _board, _server, client = build()
    fh = client.create("/f")
    data = bytes(range(256)) * 200
    client.write(fh, 0, data)
    assert client.read(fh, 0, len(data)) == data
    assert client.getattr(fh).size == len(data)


def test_lookup_and_remove():
    _clock, _ffs, _board, _server, client = build()
    client.create("/f")
    fh = client.lookup("/f")
    client.remove("/f")
    with pytest.raises(NfsError):
        client.lookup("/f")


def test_stale_handle_rejected():
    _clock, _ffs, _board, server, client = build()
    with pytest.raises(NfsError):
        server.nfs_read(999, 0, 10)


def test_oversize_protocol_transfer_rejected():
    _clock, _ffs, _board, server, _client = build()
    fh = server.nfs_create("/f")
    with pytest.raises(NfsError):
        server.nfs_read(fh, 0, NFS_MAX_TRANSFER + 1)
    with pytest.raises(NfsError):
        server.nfs_write(fh, 0, bytes(NFS_MAX_TRANSFER + 1))


def test_client_splits_large_transfers():
    _clock, _ffs, _board, _server, client = build()
    fh = client.create("/f")
    msgs_before = client.network.stats.messages
    client.write(fh, 0, bytes(4 * NFS_MAX_TRANSFER))
    # 4 transfers → ≥ 8 messages (pipelined ones also count).
    assert client.network.stats.messages - msgs_before >= 8


def test_writes_without_board_are_forced():
    """"NFS must force every write to stable storage synchronously"."""
    _clock, ffs, _board, _server, client = build(prestoserve=False)
    fh = client.create("/f")
    writes_before = ffs.disk.stats.writes
    client.write(fh, 0, bytes(BLOCK_SIZE))
    assert ffs.disk.stats.writes > writes_before


def test_board_absorbs_writes():
    _clock, ffs, board, _server, client = build(prestoserve=True)
    fh = client.create("/f")
    writes_before = ffs.disk.stats.writes
    client.write(fh, 0, bytes(BLOCK_SIZE))
    assert ffs.disk.stats.writes == writes_before
    assert board.stats.absorbed_writes >= 1


def test_read_after_write_served_from_board():
    _clock, ffs, _board, _server, client = build()
    fh = client.create("/f")
    client.write(fh, 0, b"fresh" + bytes(BLOCK_SIZE - 5))
    assert client.read(fh, 0, 5) == b"fresh"


def test_nvram_speedup_matches_paper_shape():
    """With the board, page writes cost network only; without it, they
    cost network + forced disk — the Figure 6 asymmetry."""
    def run(prestoserve):
        clock, _ffs, _board, _server, client = build(prestoserve)
        fh = client.create("/f")
        start = clock.now()
        for i in range(16):
            client.write(fh, i * BLOCK_SIZE, bytes(BLOCK_SIZE))
        return clock.now() - start
    assert run(True) * 1.5 < run(False)


def test_pipelined_reads_faster_than_serial():
    def run(pipeline):
        clock, ffs, _board, _server, client = build(pipeline=pipeline)
        fh = client.create("/f")
        client.write(fh, 0, bytes(32 * BLOCK_SIZE))
        ffs.drop_caches()
        start = clock.now()
        client.read(fh, 0, 32 * BLOCK_SIZE)
        return clock.now() - start
    assert run(True) < run(False)


def test_byte_write_pays_rmw_read():
    clock, ffs, _board, _server, client = build()
    fh = client.create("/f")
    client.write(fh, 0, bytes(BLOCK_SIZE))
    ffs.drop_caches()
    reads_before = ffs.disk.stats.reads
    client.write(fh, 10, b"x")
    assert ffs.disk.stats.reads == reads_before + 1

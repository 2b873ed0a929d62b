"""The NFS client, with biod-style pipelining.

Each protocol operation is one request/response over the simulated
Ethernet (NFS used UDP — lighter per-message cost than Inversion's
TCP; pass a UDP-flavoured :class:`~repro.sim.network.EthernetParams`).
Large application reads and writes are split into 8 KB protocol
transfers.

ULTRIX ran client-side ``biod`` daemons that kept several transfers in
flight, overlapping server disk time with wire time.  The model: for
the 2nd…Nth transfer of one application call, the charged cost is
``max(network round trip, server time)`` rather than their sum — the
pipeline is as fast as its slower stage.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.nfs.server import NFS_MAX_TRANSFER, NFSServer
from repro.sim.network import EthernetParams, NetworkModel

# ULTRIX-era NFS over UDP: cheaper per message than the TCP stack the
# paper blames for Inversion's remote overhead.
UDP_RPC_10MBIT = EthernetParams(
    name="10 Mbit Ethernet + UDP RPC (NFS)",
    bandwidth_bps=1_100_000.0,
    per_message_overhead_s=0.0015,
    propagation_s=0.0002,
)

_REQ_BASE = 96   # NFS headers + file handle + offsets
_RESP_BASE = 96


@dataclass
class NFSClient:
    """Application-facing file operations over the NFS protocol."""

    server: NFSServer
    network: NetworkModel
    pipeline: bool = True  # biod read-ahead / write-behind

    # -- small ops --------------------------------------------------------

    def _rpc(self, method, request_bytes: int, response_bytes: int,
             *args):
        self.network.stats.round_trips += 1
        self.network.send(request_bytes)
        result = method(*args)
        self.network.send(response_bytes)
        return result

    def lookup(self, path: str) -> int:
        return self._rpc(self.server.nfs_lookup, _REQ_BASE + len(path),
                         _RESP_BASE, path)

    def create(self, path: str) -> int:
        return self._rpc(self.server.nfs_create, _REQ_BASE + len(path),
                         _RESP_BASE, path)

    def getattr(self, fh: int):
        return self._rpc(self.server.nfs_getattr, _REQ_BASE, _RESP_BASE, fh)

    def remove(self, path: str) -> None:
        self._rpc(self.server.nfs_remove, _REQ_BASE + len(path),
                  _RESP_BASE, path)

    # -- pipelined bulk transfer ---------------------------------------------

    def _transfer(self, pieces, do_one) -> int:
        """Run a sequence of ≤8 KB protocol transfers.  The first is
        serial; subsequent ones, when pipelining, cost
        max(network, server)."""
        total = 0
        clock = self.network.clock
        for i, piece in enumerate(pieces):
            req_bytes, resp_bytes = piece[0], piece[1]
            self.network.stats.round_trips += 1
            if not self.pipeline or i == 0:
                self.network.send(req_bytes)
                total += do_one(piece)
                self.network.send(resp_bytes)
            else:
                net_cost = self.network.cost_round_trip(req_bytes, resp_bytes)
                before = clock.now()
                total += do_one(piece)
                server_elapsed = clock.now() - before
                self.network.charge_seconds(
                    max(0.0, net_cost - server_elapsed),
                    messages=2, payload=req_bytes + resp_bytes)
        return total

    def read(self, fh: int, offset: int, nbytes: int) -> bytes:
        """Application read: split into NFS transfers; returns the
        concatenated data."""
        out = bytearray()
        pieces = []
        pos = offset
        remaining = nbytes
        while remaining > 0:
            take = min(NFS_MAX_TRANSFER, remaining)
            pieces.append((_REQ_BASE, _RESP_BASE + take, pos, take))
            pos += take
            remaining -= take

        def do_one(piece) -> int:
            __, ___, p_off, p_len = piece
            data = self.server.nfs_read(fh, p_off, p_len)
            out.extend(data)
            return len(data)

        self._transfer(pieces, do_one)
        return bytes(out)

    def write(self, fh: int, offset: int, data: bytes) -> int:
        """Application write: split into stable NFS writes."""
        pieces = []
        pos = 0
        while pos < len(data):
            take = min(NFS_MAX_TRANSFER, len(data) - pos)
            pieces.append((_REQ_BASE + take, _RESP_BASE,
                           offset + pos, data[pos:pos + take]))
            pos += take

        def do_one(piece) -> int:
            __, ___, p_off, p_data = piece
            return self.server.nfs_write(fh, p_off, p_data)

        return self._transfer(pieces, do_one)

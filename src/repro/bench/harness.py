"""Configuration builders and experiment drivers.

Builds the three Table 3 configurations (plus ablation variants) on
fresh simulated hardware and runs the workload.  Each configuration
gets its own clock and disk — the paper ran its configurations as
separate experiments on the same drive, so what must be shared is the
*model*, not the instance.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from dataclasses import dataclass

from repro.bench.workload import Benchmark, BenchmarkSizes, InversionAdapter, NfsAdapter
from repro.core.client import RemoteInversionClient
from repro.core.filesystem import InversionFS
from repro.core.library import InversionClient
from repro.core.server import InversionServer
from repro.db.buffer import DEFAULT_BUFFERS
from repro.db.database import Database
from repro.nfs.client import NFSClient, UDP_RPC_10MBIT
from repro.nfs.ffs import FastFileSystem
from repro.nfs.server import NFSServer
from repro.sim.clock import SimClock
from repro.sim.disk import DiskModel, RZ58
from repro.sim.network import ETHERNET_10MBIT, NetworkModel
from repro.sim.nvram import NvramCache


@dataclass
class BuiltConfig:
    """One runnable configuration plus its teardown."""

    name: str
    adapter: object
    cleanup: object  # zero-arg callable

    def close(self) -> None:
        self.cleanup()


def _fresh_dir() -> str:
    return tempfile.mkdtemp(prefix="inversion-bench-")


def build_inversion_sp(buffer_pages: int = DEFAULT_BUFFERS,
                       chunk_index: bool = True,
                       group_commit_window: float = 0.0) -> BuiltConfig:
    """Single-process Inversion: the benchmark dynamically loaded into
    the data manager — "no data must be copied between them", and no
    network."""
    workdir = _fresh_dir()
    clock = SimClock()
    db = Database.create(os.path.join(workdir, "db"), clock=clock,
                         buffer_pages=buffer_pages)
    fs = InversionFS.mkfs(db)
    db.tm.group_commit_window = group_commit_window
    fs.chunk_index = chunk_index
    client = InversionClient(fs)
    adapter = InversionAdapter(client, db)

    def cleanup() -> None:
        db.close()
        shutil.rmtree(workdir, ignore_errors=True)
    return BuiltConfig("inversion_sp", adapter, cleanup)


def build_inversion_cs(read_batch_chunks: int = 1,
                       write_batch_chunks: int = 1,
                       cache_paths: int = 0,
                       cache_chunks: int = 0) -> BuiltConfig:
    """Client/server Inversion: every p_* call crosses the simulated
    TCP/IP Ethernet.  ``read_batch_chunks`` > 1 turns on the client's
    multi-chunk read RPC, ``write_batch_chunks`` > 1 the symmetric
    multi-chunk write RPC, and ``cache_paths``/``cache_chunks`` > 0
    the lease-coherent client cache (all off by default — the paper's
    protocol)."""
    workdir = _fresh_dir()
    clock = SimClock()
    db = Database.create(os.path.join(workdir, "db"), clock=clock)
    fs = InversionFS.mkfs(db)
    server = InversionServer(fs)
    network = NetworkModel(clock=clock, params=ETHERNET_10MBIT)
    client = RemoteInversionClient(server, network,
                                   read_batch_chunks=read_batch_chunks,
                                   write_batch_chunks=write_batch_chunks,
                                   cache_paths=cache_paths,
                                   cache_chunks=cache_chunks)
    adapter = InversionAdapter(client, db)

    def cleanup() -> None:
        client.close()
        db.close()
        shutil.rmtree(workdir, ignore_errors=True)
    return BuiltConfig("inversion_cs", adapter, cleanup)


def build_nfs(prestoserve: bool = True) -> BuiltConfig:
    """ULTRIX NFS on the same drive model, UDP RPC, optional
    PRESTOserve board."""
    clock = SimClock()
    disk = DiskModel(clock=clock, geometry=RZ58)
    ffs = FastFileSystem(clock, disk, cache_blocks=DEFAULT_BUFFERS)
    board = NvramCache(clock=clock, disk=disk) if prestoserve else None
    server = NFSServer(ffs, board)
    network = NetworkModel(clock=clock, params=UDP_RPC_10MBIT)
    client = NFSClient(server, network)
    adapter = NfsAdapter(client, ffs, board)
    return BuiltConfig("nfs" if prestoserve else "nfs_nopresto", adapter,
                       lambda: None)


# ---------------------------------------------------------------------------
# drivers
# ---------------------------------------------------------------------------

BUILDERS = {
    "inversion_cs": build_inversion_cs,
    "nfs": build_nfs,
    "inversion_sp": build_inversion_sp,
}

TABLE3_CONFIGS = ("inversion_cs", "nfs", "inversion_sp")


def run_config(name: str, sizes: BenchmarkSizes | None = None
               ) -> dict[str, float]:
    """Run the workload on one configuration."""
    built = BUILDERS[name]()
    try:
        return Benchmark(built.adapter, sizes or BenchmarkSizes()).run_all()
    finally:
        built.close()


def run_all_configs(sizes: BenchmarkSizes | None = None,
                    configs: tuple[str, ...] = TABLE3_CONFIGS
                    ) -> dict[str, dict[str, float]]:
    """The full Table 3: every operation in every configuration."""
    return {name: run_config(name, sizes) for name in configs}

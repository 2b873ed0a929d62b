"""A replicated Inversion deployment: one primary, N read replicas.

:class:`ReplicatedCluster` wires the pieces for the common topology —
a primary :class:`~repro.core.server.InversionServer` with a
:class:`~repro.replica.feed.PrimaryFeed` attached, and N
:class:`~repro.replica.server.ReplicaServer`s seeded from it — and
routes client sessions: **writers connect to the primary, readers are
spread round-robin across the replicas** (session-granular read
routing; a session's file descriptors live on the server it connected
to, so routing is sticky per session, the HopsFS deployment shape).

Every client crosses a simulated network bound to its server's clock,
so replica read throughput aggregates across member clocks the way a
real fleet's would: wall-clock is the *slowest member's* elapsed time,
not the sum.
"""

from __future__ import annotations

import os

from repro.core.client import RPC_BATCH_CHUNKS, RemoteInversionClient
from repro.core.filesystem import InversionFS
from repro.core.server import InversionServer
from repro.db.database import Database
from repro.errors import ReplicaError
from repro.replica.feed import PrimaryFeed, ReplStats
from repro.replica.server import ReplicaServer
from repro.sim.clock import SimClock
from repro.sim.network import ETHERNET_10MBIT, NetworkModel


class ReplicatedCluster:
    """Primary + replicas + routing, with one shared ``repl.*`` stats
    family across every member."""

    def __init__(self, primary_db: Database, primary_fs: InversionFS,
                 primary_server: InversionServer, feed: PrimaryFeed,
                 replicas: list[ReplicaServer]) -> None:
        self.primary_db = primary_db
        self.primary_fs = primary_fs
        self.primary_server = primary_server
        self.feed = feed
        self.replicas = replicas
        self._next_reader = 0
        self._networks: dict[int, NetworkModel] = {}

    @classmethod
    def create(cls, base_dir: str, nreplicas: int,
               staleness_xids: int | None = None,
               group_commit_window: float = 0.0) -> "ReplicatedCluster":
        """Create a fresh primary under ``base_dir/primary`` and seed
        ``nreplicas`` replicas under ``base_dir/replicaK``."""
        primary_db = Database.create(os.path.join(base_dir, "primary"),
                                     group_commit_window=group_commit_window)
        primary_fs = InversionFS.mkfs(primary_db)
        primary_server = InversionServer(primary_fs)
        feed = PrimaryFeed.attach(primary_db, stats=ReplStats())
        replicas = [
            ReplicaServer.seed(feed, os.path.join(base_dir, f"replica{i}"),
                               f"replica{i}", staleness_xids=staleness_xids)
            for i in range(nreplicas)
        ]
        return cls(primary_db, primary_fs, primary_server, feed, replicas)

    # -- routing ----------------------------------------------------------

    def _network_for(self, server) -> NetworkModel:
        clock = (self.primary_db.clock if server is self.primary_server
                 else server.db.clock)
        key = id(server)
        net = self._networks.get(key)
        if net is None:
            net = self._networks[key] = NetworkModel(clock=clock,
                                                     params=ETHERNET_10MBIT)
        return net

    def writer_client(self, **kwargs) -> RemoteInversionClient:
        """A session on the primary — the only place mutations go.  It
        speaks the light protocol (both batch sizes
        :data:`~repro.core.client.RPC_BATCH_CHUNKS` unless told
        otherwise), so a begin/open/seek/write/close/commit transaction
        is two exchanges."""
        return self._client(self.primary_server, kwargs)

    def reader_client(self, **kwargs) -> RemoteInversionClient:
        """A read-only session, routed round-robin across the replicas
        (or to the primary when there are none), on the light protocol
        too: a small file is one open that carries its bytes, or on a
        re-read only the chunks that changed."""
        if not self.replicas:
            return self.writer_client(**kwargs)
        server = self.replicas[self._next_reader % len(self.replicas)]
        self._next_reader += 1
        return self._client(server, kwargs)

    def _client(self, server, kwargs: dict) -> RemoteInversionClient:
        kwargs.setdefault("read_batch_chunks", RPC_BATCH_CHUNKS)
        kwargs.setdefault("write_batch_chunks", RPC_BATCH_CHUNKS)
        return RemoteInversionClient(server, self._network_for(server),
                                     **kwargs)

    # -- replication control ----------------------------------------------

    def sync_all(self) -> int:
        """One full catch-up on every replica; returns entries applied."""
        return sum(r.sync() for r in self.replicas)

    def max_horizon_replica(self) -> ReplicaServer:
        """The most caught-up replica — the failover promotion victim."""
        if not self.replicas:
            raise ReplicaError("cluster has no replicas to promote")
        return max(self.replicas, key=lambda r: r.cursor)

    def promote(self, replica: ReplicaServer | None = None) -> ReplicaServer:
        """Fail over: promote ``replica`` (default: the most caught-up)
        to primary and re-point the surviving replicas at its feed.
        The old primary must already be gone; its server object is
        discarded."""
        victim = replica or self.max_horizon_replica()
        new_feed = victim.promote()
        self.replicas = [r for r in self.replicas if r is not victim]
        for follower in self.replicas:
            follower.rebind_feed(new_feed)
        self.primary_db = victim.db
        self.primary_fs = victim.fs
        self.primary_server = victim
        self.feed = new_feed
        self._networks.pop(id(victim), None)
        return victim

    def close(self) -> None:
        for replica in self.replicas:
            replica.close()
        self.primary_db.close()

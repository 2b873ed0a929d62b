"""The sharded Inversion cluster.

A :class:`ShardedCluster` is N independent single-server Inversion
stacks — each its own :class:`~repro.db.database.Database`, mounted
:class:`~repro.core.filesystem.InversionFS` and
:class:`~repro.core.server.InversionServer` — glued together by a
:class:`~repro.shard.router.ShardRouter` and a two-phase-commit
coordinator (:mod:`repro.shard.twophase`).  Each shard runs on its own
simulated clock, so shards do work in parallel simulated time; the
cluster-level elapsed time of a run is the *maximum* over shard clocks,
and cross-shard operations synchronize the participants' clocks (a
message cannot arrive before it was sent).

Durability artifacts, per shard directory::

    <path>/cluster.json       shard count + partition policy
    <path>/shard<i>/...       one full Database per shard

plus, on any shard that has coordinated a cross-shard commit, a
**decision log** in its root device's metadata region (tag
``pg_2pc``): one ``D <gid> C`` line per *commit* decision, forced
before phase two begins.  Abort decisions are never logged — presumed
abort, exactly like the status file's missing-record rule.  Recovery
(:meth:`ShardedCluster.open`) reads every shard's in-doubt prepared
transactions and resolves each against its coordinator's decision log:
durable decision → commit, none → abort.
"""

from __future__ import annotations

import json
import os

from repro.core.filesystem import InversionFS
from repro.core.server import InversionServer
from repro.db.buffer import DEFAULT_BUFFERS
from repro.db.database import Database
from repro.errors import CatalogError
from repro.obs.registry import counter, metric_stats
from repro.shard.router import (
    HashPartitionPolicy,
    ShardRouter,
    SubtreePartitionPolicy,
    policy_from_config,
)

#: metadata tag of the coordinator's forced decision log.
DECISION_TAG = "pg_2pc"

_CLUSTER_FILE = "cluster.json"


@metric_stats("shard")
class ShardStats:
    """Cluster-lifetime counters, mirrored onto every shard's metrics
    registry under the ``shard.*`` families."""

    routed_ops: int = counter(
        "calls", "RPC requests routed to a shard by the sharded client "
        "(every dispatch, single- or cross-shard).")
    single_shard_txns: int = counter(
        "txns", "Cluster transactions whose writes touched at most one "
        "shard — committed locally, zero coordination messages.")
    cross_shard_txns: int = counter(
        "txns", "Cluster transactions that wrote on two or more shards "
        "and committed through the 2PC coordinator.")
    cross_shard_messages: int = counter(
        "msgs", "Messages sent beyond a transaction's first shard: "
        "enlistments, routed requests, prepares, decision "
        "forces, and resolves.  Zero for single-shard work.")
    prepares: int = counter(
        "ops", "2PC prepare requests sent to participant shards.")
    decisions: int = counter(
        "ops", "Commit decisions forced to a coordinator decision log.")
    in_doubt_commits: int = counter(
        "txns", "In-doubt prepared transactions committed during "
        "cluster recovery (decision log had their gid).")
    in_doubt_aborts: int = counter(
        "txns", "In-doubt prepared transactions presumed aborted during "
        "cluster recovery (no durable decision).")


class ShardedCluster:
    """N Inversion servers behind one namespace."""

    def __init__(self, path: str, dbs: list[Database],
                 fss: list[InversionFS], router: ShardRouter) -> None:
        self.path = path
        self.dbs = dbs
        self.fss = fss
        self.servers = [InversionServer(fs) for fs in fss]
        self.router = router
        self.stats = ShardStats()
        for db in dbs:
            db.obs.metrics.mirror_all(self.stats)

    # -- construction ----------------------------------------------------

    @classmethod
    def create(cls, path: str, nshards: int, policy: str = "hash",
               assignments: dict[str, int] | None = None,
               buffer_pages: int = DEFAULT_BUFFERS,
               group_commit_window: float = 0.0) -> "ShardedCluster":
        """Create ``nshards`` fresh shard databases under ``path``.
        Each shard gets its own :class:`~repro.sim.clock.SimClock` —
        independent clocks are what let disjoint shard work overlap in
        simulated time instead of serializing on one timeline."""
        if os.path.exists(os.path.join(path, _CLUSTER_FILE)):
            raise CatalogError(f"cluster already exists at {path}")
        if policy == "subtree":
            pol = SubtreePartitionPolicy(assignments or {})
        elif policy == "hash":
            pol = HashPartitionPolicy()
        else:
            pol = policy_from_config({"policy": policy})
        os.makedirs(path, exist_ok=True)
        config = {"nshards": nshards}
        config.update(pol.config())
        with open(os.path.join(path, _CLUSTER_FILE), "w",
                  encoding="utf-8") as f:
            json.dump(config, f, indent=2)
        dbs, fss = [], []
        for i in range(nshards):
            db = Database.create(os.path.join(path, f"shard{i}"),
                                 buffer_pages=buffer_pages,
                                 group_commit_window=group_commit_window)
            dbs.append(db)
            fss.append(InversionFS.mkfs(db))
        return cls(path, dbs, fss, ShardRouter(pol, nshards))

    @classmethod
    def open(cls, path: str, buffer_pages: int = DEFAULT_BUFFERS,
             group_commit_window: float = 0.0) -> "ShardedCluster":
        """Reopen a cluster.  Per-shard recovery is the usual status
        file read; on top of it, cluster recovery resolves every
        in-doubt prepared transaction against its coordinator's
        decision log before the cluster serves anything."""
        config_path = os.path.join(path, _CLUSTER_FILE)
        if not os.path.exists(config_path):
            raise CatalogError(f"no cluster at {path}")
        with open(config_path, encoding="utf-8") as f:
            config = json.load(f)
        nshards = config["nshards"]
        dbs, fss = [], []
        for i in range(nshards):
            db = Database.open(os.path.join(path, f"shard{i}"),
                               buffer_pages=buffer_pages,
                               group_commit_window=group_commit_window)
            dbs.append(db)
            fss.append(InversionFS.attach(db))
        cluster = cls(path, dbs, fss,
                      ShardRouter(policy_from_config(config), nshards))
        cluster._recover_in_doubt()
        return cluster

    # -- lifecycle -------------------------------------------------------

    @property
    def nshards(self) -> int:
        return self.router.nshards

    def client(self, cache_paths: int = 0, cache_chunks: int = 0):
        """A cluster client; with either tier size above 0, leased: its
        shard links share one cache factory of those sizes."""
        from repro.shard.client import ShardedInversionClient
        factory = None
        if cache_paths > 0 or cache_chunks > 0:
            from repro.cache import session_cache_factory
            factory = session_cache_factory(cache_paths, cache_chunks)
        return ShardedInversionClient(self, factory)

    def expire_leases(self) -> int:
        """Revoke every outstanding client lease on every shard —
        clients discover it on their next poll and drop their caches.
        Returns the number of leases expired."""
        expired = 0
        for server in self.servers:
            if server.leases is not None:
                expired += server.leases.revoke_all()
        return expired

    def close(self) -> None:
        for db in self.dbs:
            db.close()

    def flush_caches(self) -> None:
        for db in self.dbs:
            db.flush_caches()

    def simulate_crash(self) -> None:
        """Power-failure model for the whole machine room: every
        shard's volatile state vanishes at once."""
        for db in self.dbs:
            db.simulate_crash()

    def wrap_devices(self, wrapper) -> None:
        """Interpose fault proxies over every device of every shard.
        Passing one shared :class:`~repro.testkit.faults.CrashController`
        to every proxy yields a single global ordering of the cluster's
        durable writes — which makes "crash at write #k" a cluster-wide
        coordinate covering prepares, decision forces, and phase-two
        commits on every shard."""
        for db in self.dbs:
            db.wrap_devices(wrapper)

    # -- routing / dispatch ---------------------------------------------

    def dispatch(self, shard: int, conn: int, method: str, *args, **kwargs):
        """One RPC to one shard (the sharded client's only doorway —
        every request is counted here)."""
        self.stats.routed_ops += 1
        return self.servers[shard].dispatch(conn, method, *args, **kwargs)

    # -- per-shard clocks -------------------------------------------------

    def clock(self, shard: int):
        return self.dbs[shard].clock

    def sync_clocks(self, shards) -> None:
        """Advance every listed shard's clock to the group maximum — a
        cross-shard message cannot be processed before it was sent, so
        coordination drags lagging participants forward."""
        shards = list(shards)
        if len(shards) < 2:
            return
        target = max(self.dbs[i].clock.now() for i in shards)
        for i in shards:
            self.idle_until(i, target)

    def idle_until(self, shard: int, until: float) -> None:
        """Advance ``shard``'s clock to ``until`` if it is behind: the
        shard has nothing to do before then."""
        clock = self.dbs[shard].clock
        if clock.now() < until:
            clock.advance(until - clock.now())

    def elapsed_max(self, starts: list[float]) -> float:
        """Cluster elapsed time against per-shard start stamps: the
        slowest shard defines the wall (simulated) time of the run."""
        return max(self.dbs[i].clock.now() - starts[i]
                   for i in range(self.nshards))

    # -- the coordinator decision log -------------------------------------

    def _decision_device(self, shard: int):
        # Resolved through the switch on every call so a fault proxy
        # installed by wrap_devices gates decision forces too.
        switch = self.dbs[shard].switch
        return switch.get(switch.default_name)

    def log_decision(self, coord_shard: int, gid: str) -> None:
        """Durably record a *commit* decision for ``gid`` on the
        coordinator shard's root device.  This force is the 2PC commit
        point: once it returns, recovery will drive every prepared
        participant to commit; if it never happens, they all abort."""
        line = f"D {gid} C\n"
        self._decision_device(coord_shard).sync_append_meta(
            DECISION_TAG, line.encode("ascii"))
        self.stats.decisions += 1

    def decisions(self, coord_shard: int) -> set[str]:
        """gids with a durable commit decision on ``coord_shard``.  A
        final line without its newline is a torn decision force: the
        coordinator crashed mid-append, so no participant can have seen
        the decision — it is discarded (presumed abort)."""
        raw = self._decision_device(coord_shard).read_meta(DECISION_TAG)
        if not raw:
            return set()
        text = raw.decode("ascii", errors="replace")
        lines = text.splitlines()
        if lines and not text.endswith("\n"):
            lines = lines[:-1]
        out = set()
        for line in lines:
            tokens = line.split()
            if len(tokens) == 3 and tokens[0] == "D" and tokens[2] == "C":
                out.add(tokens[1])
        return out

    # -- recovery ---------------------------------------------------------

    @staticmethod
    def coordinator_of(gid: str) -> int:
        return int(gid.split(".", 1)[0])

    def _recover_in_doubt(self) -> None:
        """Resolve every shard's in-doubt prepared transactions.  The
        gid names its coordinator shard; a durable ``D <gid> C`` there
        means every participant prepared and the group committed —
        replay the local commit.  No decision means the coordinator
        never reached its commit point — presumed abort."""
        decision_cache: dict[int, set[str]] = {}
        for db in self.dbs:
            for xid, gid in sorted(db.tm.in_doubt().items()):
                coord = self.coordinator_of(gid)
                if coord not in decision_cache:
                    decision_cache[coord] = self.decisions(coord)
                commit = gid in decision_cache[coord]
                db.tm.resolve_in_doubt(xid, commit)
                if commit:
                    self.stats.in_doubt_commits += 1
                else:
                    self.stats.in_doubt_aborts += 1
        # Any lease granted before the crash is void: in-doubt
        # resolution may have changed state under entries a surviving
        # client still caches, and the crashed clients' sessions are
        # gone.  Expired leases surface as a revoked poll, after which
        # the client drops its cache and stops serving.
        self.expire_leases()

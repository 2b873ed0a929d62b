"""The deterministic scheduler, stretched across shards.

:class:`ShardedScheduler` drives N :class:`ShardedInversionClient`
sessions against one :class:`~repro.shard.cluster.ShardedCluster`.  It
*is* :class:`~repro.sched.scheduler.MultiUserScheduler` — the same
event loop, picker, lock-wait parking, victim retry, tracing and
fairness report, run over the cluster's shard databases instead of a
one-element list — and this module holds only what knows the
deployment: how a session connects, issues a request, aborts, and
which shard it is homed on.  Programs are the same
:class:`~repro.sched.scheduler.Call` / :class:`~repro.sched.scheduler.Txn`
items (methods go through the sharded client, so routing, enlistment
and 2PC are exercised exactly as an application would), plus
:class:`ClientOp` — an arbitrary ``fn(client)`` run in **one slice**,
the probe primitive the atomicity tests use to observe two paths at a
single instant of the interleaving.

Each shard keeps its own simulated clock, so a lock wait's deadline is
measured on the clock of the shard it parked on.  Cross-shard
deadlocks never appear in any single shard's waits-for graph, so they
resolve by lock timeout — the timeout path here is load-bearing, not a
safety net.  A lock wait times out on a stall, and a cycle's blockers
never change, so it still fires at ``timeout_s``.  The cluster admits
every session at once and does not cluster commits (2PC forces bypass
the group-commit queue).  Every session is leased, as a
``multiuser_mix`` session is: its shard links are built by the one
:func:`~repro.cache.session_cache_factory` all sessions share (default
tier sizes, one :class:`~repro.cache.CacheStats`), so a warm read
unit's open, seek and close send nothing to its shard.
"""

from __future__ import annotations

from repro.cache import session_cache_factory
from repro.sched.scheduler import (Call, MultiUserScheduler, Session, Txn,
                                   DirectOp)
from repro.shard.client import ShardedInversionClient


class ClientOp(DirectOp):
    """A direct cluster-client operation ``fn(client)`` run in one
    scheduler slice.  Because the whole function executes without the
    scheduler switching sessions (unless it blocks on a lock), a
    ClientOp that reads two paths sees them at one instant of the
    interleaving — the observation primitive the cross-shard atomicity
    tests are built on.  Valid at top level or inside a :class:`Txn`
    (where ``fn`` runs under the session's open cluster transaction)."""

    __slots__ = ()


class ShardSession(Session):
    """One cluster client session: ``client`` is its
    :class:`~repro.shard.client.ShardedInversionClient`."""

    client = None


class ShardedScheduler(MultiUserScheduler):
    """Seeded cooperative event loop over N sessions of one cluster."""

    ITEMS = (Call, ClientOp)
    session_class = ShardSession

    def __init__(self, cluster, seed: int = 0,
                 max_retries: int = 10, fairness_bound: float = 0.5) -> None:
        self.cluster = cluster
        # No one server; everyone is admitted at once, commits are not
        # clustered, and the sessions share one cache factory.
        super().__init__(None, seed, max_inflight=float("inf"),
                         admission_queue=0, max_retries=max_retries,
                         fairness_bound=fairness_bound, cluster_commits=False,
                         cache_factory=session_cache_factory())

    def add_session(self, program, name: str | None = None,
                    home: int | None = None) -> ShardSession:
        """Submit a session program.  ``home`` names the shard whose
        clock stamps the session's scheduling bookkeeping; by default
        it is routed from the first absolute path in the program (a
        session that works one subtree is homed where its data
        lives)."""
        if home is None:
            home = self._infer_home(program)
        return self._submit(program, name, home)

    def _infer_home(self, program) -> int:
        for item in program:
            items = item.items if isinstance(item, Txn) else [item]
            for sub in items:
                if isinstance(sub, Call):
                    for arg in sub.args:
                        if isinstance(arg, str) and arg.startswith("/"):
                            return self.cluster.router.route(arg)
        return 0

    # -- the deployment seam: one leased cluster client per session -------

    def _databases(self) -> list:
        return self.cluster.dbs

    def _open(self, session: ShardSession) -> str:
        session.client = ShardedInversionClient(self.cluster,
                                                self.cache_factory)
        return f"home={session.home}"

    def _close(self, session: ShardSession) -> None:
        session.client.close()

    def xid_on(self, session: ShardSession, index: int) -> int | None:
        return session.client.xid_on(index)

    def _abort_open(self, session: ShardSession) -> None:
        """Abort the open cluster transaction on every enlisted shard.
        A failing abort surfaces: swallowing it would leave the shards'
        locks to chance."""
        if session.client.in_transaction():
            session.client.p_abort()

    def _call_commit_hook(self, session: ShardSession, tag) -> None:
        """``commit_hook`` is ``fn(session, tag)`` here: a cluster
        transaction has one xid per enlisted shard, not one."""
        self.commit_hook(session, tag)

    def _dispatch(self, session: ShardSession, op, args: tuple, kwargs: dict):
        if isinstance(op, ClientOp):
            return op.fn(session.client)
        return getattr(session.client, op)(*args, **kwargs)

    def _event(self, kind: str, session: ShardSession,
               detail: str = "") -> None:
        """Append ``(home_time, home_shard, kind, session_name,
        detail)`` to the deterministic event trace."""
        now = self.dbs[session.home].clock.now()
        self.trace.append((round(now, 9), session.home, kind, session.name,
                           detail))

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
measured on the clock of the shard it parked on.  A cross-shard commit
needs its participants' clocks to meet (a message cannot be processed
before it was sent; :mod:`repro.shard.twophase`).  Here the
committing session does not drag its peers' clocks forward: at each
meet it goes WAITING (a ``wait`` trace event) until every lagging
participant's clock has reached the latest one, while the lagging
shards' own sessions run.  A lagging shard with no READY session homed
on it idles forward to the earlier of the target and its next
sleeper's wake-up.  The session then resumes where it stopped (a
``resume`` event — not a slice, and not counted as one); a 2PC unit's
commit hook fires at its decision, before the trailing wait.  Cross-shard
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

from bisect import insort
from types import GeneratorType

from repro.cache import session_cache_factory
from repro.sched.scheduler import (READY, SLEEPING, WAITING, Call, DirectOp,
                                   MultiUserScheduler, Session, Txn)
from repro.shard.client import ShardedInversionClient


def _by_target(session) -> float:
    return session.target


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
    :class:`~repro.shard.client.ShardedInversionClient`.  While WAITING,
    ``meets`` is the suspended request's generator of clock meets, and
    ``lagging`` the shards whose clocks must reach ``target``;
    ``decided`` is set while a 2PC unit whose hook has fired waits."""

    client = None
    meets = None
    lagging = ()
    target = 0.0
    decided = False


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
        #: WAITING sessions, earliest target first.
        self._waiters: list[ShardSession] = []
        #: shard → the sessions homed on it.
        self._homed: list[list[ShardSession]] = [[] for _ in self.dbs]

    def add_session(self, program, name: str | None = None,
                    home: int | None = None) -> ShardSession:
        """Submit a session program.  ``home`` names the shard whose
        clock stamps the session's scheduling bookkeeping; by default
        it is routed from the first absolute path in the program (a
        session that works one subtree is homed where its data
        lives)."""
        if home is None:
            home = self._infer_home(program)
        session = self._submit(program, name, home)
        self._homed[home].append(session)
        return session

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
        transaction has one xid per enlisted shard, not one.  A 2PC
        unit's hook has already fired at its decision (:meth:`_meet`)."""
        if session.decided:
            session.decided = False
        else:
            self.commit_hook(session, tag)

    def _dispatch(self, session: ShardSession, op, args: tuple, kwargs: dict):
        if isinstance(op, ClientOp):
            return op.fn(session.client)
        result = session.client.steps(op, *args, **kwargs)
        if isinstance(result, GeneratorType):
            return self._meet(session, result)
        return result

    # -- clock meets: a 2PC commit waits for its peer shards ---------------

    def _meet(self, session: ShardSession, meets):
        """Run ``meets`` (a request's clock meets, from
        :meth:`~repro.shard.client.ShardedInversionClient.steps`) to its
        end, returning the request's result — or, at the first meet
        whose shards' clocks differ, leave the session WAITING for the
        lagging ones to reach the latest."""
        dbs = self.dbs
        try:
            while True:
                shards = next(meets)
                target = max(dbs[i].clock.now() for i in shards)
                lagging = [i for i in shards if dbs[i].clock.now() < target]
                if lagging:
                    break
        except StopIteration as done:
            return done.value
        if (self.commit_hook is not None and self._at_commit_gate(session)
                and not session.client.in_transaction()):
            # Decided and resolved: the commit is what any later
            # transaction on these files sees, whatever the wait.
            unit = session.units[session.unit_idx]
            self.commit_hook(session, unit.txn.tag)
            session.decided = True
        session.state = WAITING
        session.meets, session.lagging, session.target = meets, lagging, target
        insort(self._waiters, session, key=_by_target)
        self.stats.peer_waits += 1
        self._event("wait", session, f"{lagging} {target:.9f}")
        return None

    def _run_ready(self) -> bool:
        """Resume a waiter whose lagging shards have caught up, else
        run a slice."""
        if self._waiters:
            waiter = self._caught_up()
            if waiter is not None:
                self._resume(waiter)
                return True
        return super()._run_ready()

    def _caught_up(self) -> ShardSession | None:
        """The first waiter, by target, whose lagging shards' clocks
        have all reached its target."""
        for session in self._waiters:
            met = True
            for shard in session.lagging:
                met = self._idle_toward(shard, session.target) and met
            if met:
                return session
        return None

    def _idle_toward(self, shard: int, target: float) -> bool:
        """Has ``shard``'s clock reached ``target``?  A shard with no
        READY session homed on it has nothing to run before then: its
        clock idles forward to ``target``, or to its next sleeper's
        wake-up if that comes first."""
        if self.dbs[shard].clock.now() >= target:
            return True
        until = target
        for other in self._homed[shard]:
            if other.state == READY:
                return False
            if other.state == SLEEPING and other.wake_time < until:
                until = other.wake_time
        self.cluster.idle_until(shard, until)
        return until == target

    def _resume(self, session: ShardSession) -> None:
        """Carry a waiter's suspended request on from its meet."""
        self._waiters.remove(session)
        meets, session.meets = session.meets, None
        label, _op, _args, _kwargs, ordinal = self._next_request(session)
        self._event("resume", session, label)
        self._run_as(session, session.units[session.unit_idx], ordinal,
                     "sched.resume", label, self._meet, meets)

    def _event(self, kind: str, session: ShardSession,
               detail: str = "") -> None:
        """Append ``(home_time, home_shard, kind, session_name,
        detail)`` to the deterministic event trace."""
        now = self.dbs[session.home].clock.now()
        self.trace.append((round(now, 9), session.home, kind, session.name,
                           detail))

"""The deterministic multi-session scheduler.

One :class:`MultiUserScheduler` drives N client sessions against one
:class:`~repro.core.server.InversionServer` on a single thread.  Each
session is a *program*: a list of :class:`Call` requests (auto-commit)
and :class:`Txn` blocks (begin → calls → commit, retried as a unit when
chosen as a deadlock victim).  The event loop advances one session by
one request per slice, picking the next session with a seeded RNG —
same seed, same programs ⇒ byte-identical interleaving, event trace,
and simulated-clock history.

The loop is written over ``self.dbs``: a list of databases, each with
its own simulated clock, lock manager and ``obs``.  A single server is
the one-element list; :class:`~repro.shard.sched.ShardedScheduler`
runs the same loop over a cluster's shards.  Every session has a
*home* database whose clock stamps its fairness bookkeeping, backoff
timers and trace events.

Yield points are the natural concurrency seams of the system:

- **RPC boundaries** — every slice is one ``server.dispatch`` call, so
  sessions interleave between requests exactly as network clients do;
- **lock waits** — the scheduler installs a
  :class:`SchedulerWaitStrategy` on every database's
  :class:`~repro.db.locks.LockManager`; a session that blocks on a
  lock *parks* and the loop runs other sessions' requests (advancing
  the simulated clock) until the lock frees, times out in simulated
  seconds on that database's clock, or the waits-for graph picks a
  victim.  Lock waits finally advance simulated time and land in the
  per-xid :class:`~repro.obs.accounting.TxAccountant` breakdown;
- **I/O** — simulated device time is charged inside each slice, so the
  clock the fairness guard and backoff timers read reflects real
  (simulated) work.

Admission control bounds the in-flight session count: sessions beyond
``max_inflight`` queue (FIFO) up to ``admission_queue`` deep, and
further submissions fail fast with
:class:`~repro.errors.SchedAdmissionError` — backpressure, not an
unbounded queue.  A fairness guard forces any runnable session whose
wait exceeds ``fairness_bound`` simulated seconds to run next, so no
session starves behind an unlucky RNG streak.

A context switch is two swaps, once per database: the per-xid
accountant's "current transaction" is re-pointed at the incoming
session's open xid there, and the tracer's open-span stack is swapped
to the session's own (each session's spans form their own request
trees).
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field

from repro.cache.link import SessionLink
from repro.errors import (DeadlockError, LockTimeoutError,
                          SchedAdmissionError, SchedStalledError,
                          SessionFailedError)
from repro.obs.registry import HistogramValue, MetricSpec

METRICS = (
    MetricSpec("sched.slices", "counter", "slices",
               "Requests dispatched by the scheduler (one slice = one "
               "request of one session).",
               "repro.sched.scheduler"),
    MetricSpec("sched.context_switches", "counter", "switches",
               "Slices that ran a different session than the previous "
               "slice.",
               "repro.sched.scheduler"),
    MetricSpec("sched.lock_parks", "counter", "parks",
               "Times a session parked in the scheduler waiting for a "
               "lock while other sessions ran.",
               "repro.sched.scheduler"),
    MetricSpec("sched.retries", "counter", "retries",
               "Transactions re-run after their session was chosen as "
               "a deadlock victim or timed out on a lock.",
               "repro.sched.scheduler"),
    MetricSpec("sched.backoff_seconds", "histogram", "seconds",
               "Simulated seconds slept before each victim retry "
               "(capped exponential).",
               "repro.sched.scheduler"),
    MetricSpec("sched.admission_waits", "counter", "sessions",
               "Sessions that queued for admission because the "
               "in-flight limit was reached.",
               "repro.sched.scheduler"),
    MetricSpec("sched.rejected", "counter", "sessions",
               "Session submissions refused by backpressure (admission "
               "queue full).",
               "repro.sched.scheduler"),
    MetricSpec("sched.idle_advances", "counter", "ops",
               "Wait quanta burned with every other session parked or "
               "asleep (a parked waiter advancing the clock toward its "
               "own timeout).",
               "repro.sched.scheduler"),
)

# Session states.
QUEUED = "queued"        # waiting for admission
READY = "ready"          # runnable, waiting to be picked
RUNNING = "running"      # currently dispatching a request
PARKED = "parked"        # blocked on a lock inside a dispatch
SLEEPING = "sleeping"    # backing off before a victim retry
DONE = "done"
FAILED = "failed"


class Ref:
    """Placeholder argument: the result of an earlier request in the
    same session, by program ordinal (``Call``/``Apply`` items are
    numbered 0.. in program order).  ``Call("p_write", Ref(0), b"x")``
    writes to the fd returned by the session's first request."""

    __slots__ = ("ordinal",)

    def __init__(self, ordinal: int) -> None:
        self.ordinal = ordinal

    def __repr__(self) -> str:
        return f"Ref({self.ordinal})"


class Call:
    """One client request: a ``p_*`` method dispatched through the
    server.  Top-level Calls auto-commit (the library wraps them in a
    one-shot transaction); inside a :class:`Txn` they run under the
    session's open transaction."""

    __slots__ = ("method", "args", "kwargs")

    def __init__(self, method: str, *args, **kwargs) -> None:
        self.method = method
        self.args = args
        self.kwargs = kwargs

    def __repr__(self) -> str:
        return f"Call({self.method!r})"


class DirectOp:
    """A program item that runs ``fn`` itself in one slice instead of
    dispatching a ``p_*`` request; what ``fn`` is handed is the
    subclass's contract."""

    __slots__ = ("_label", "fn")

    def __init__(self, label: str, fn) -> None:
        self._label = label
        self.fn = fn

    @property
    def label(self) -> str:
        return self._label

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._label!r})"


class Apply(DirectOp):
    """A direct file-system operation ``fn(fs, tx)`` run under the
    session's open transaction — the seam the crash testkit uses to
    drive its model ops through the scheduler.  Only valid inside a
    :class:`Txn` (it needs the open transaction)."""

    __slots__ = ()


class Txn:
    """A transaction block: ``p_begin``, the items (one per slice),
    then ``p_commit`` (or ``p_abort`` when ``abort=True``).  On
    :class:`~repro.errors.DeadlockError` or
    :class:`~repro.errors.LockTimeoutError` the whole block is aborted,
    the session backs off (capped exponential, simulated seconds), and
    the block re-runs from ``p_begin`` — the automatic victim retry the
    paper's client library left to applications."""

    __slots__ = ("items", "abort", "tag")

    def __init__(self, items, abort: bool = False, tag=None) -> None:
        self.items = list(items)
        self.abort = abort
        self.tag = tag


@dataclass
class SchedStats:
    """Scheduler-lifetime counters, mirrored onto the session's metrics
    registry under the ``sched.*`` families."""

    slices: int = 0
    context_switches: int = 0
    lock_parks: int = 0
    retries: int = 0
    backoff_seconds: HistogramValue = field(default_factory=HistogramValue)
    admission_waits: int = 0
    rejected: int = 0
    idle_advances: int = 0


class _Unit:
    """One compiled program item (a Txn block or a lone request)."""

    __slots__ = ("txn", "items", "ordinals", "attempt")

    def __init__(self, txn: Txn | None, items: list, ordinals: list[int]) -> None:
        self.txn = txn          # None for a lone auto-commit request
        self.items = items
        self.ordinals = ordinals
        self.attempt = 0


class Session:
    """One client session: its program, its server link, and the
    bookkeeping the fairness report is built from.  All times are on
    the clock of the session's ``home`` database."""

    def __init__(self, sid: int, name: str, units: list[_Unit],
                 submitted_at: float, home: int = 0) -> None:
        self.sid = sid
        self.name = name
        self.units = units
        self.home = home
        self.state = QUEUED
        #: the session's :class:`~repro.cache.link.SessionLink` while
        #: it is connected: the server connection and, when the
        #: scheduler was built with a ``cache_factory``, the
        #: lease-coherent cache in front of it.
        self.link: SessionLink | None = None
        #: program counter: current unit / phase within the unit
        #: (-1 = p_begin pending, 0..n-1 = item index, n = commit).
        self.unit_idx = 0
        self.phase = -1
        #: ordinal -> result of each completed request.
        self.values: dict[int, object] = {}
        self.wake_time = 0.0
        self.ready_since = submitted_at
        self.submitted_at = submitted_at
        self.admission_wait = 0.0
        self.error: str | None = None
        # fairness bookkeeping (simulated seconds)
        self.slices = 0
        self.retries = 0
        self.park_seconds = 0.0
        self.max_park = 0.0
        self.max_ready_wait = 0.0
        #: times in a row the starvation guard chose another overdue
        #: session over this one (reset when it runs), and the longest
        #: such run.
        self.passed_over = 0
        self.max_passed_over = 0
        #: the session's own open-span stack on each database's tracer
        #: (swapped in per slice), by database index.
        self.span_stacks: dict[int, list[int]] = {}

    @property
    def finished(self) -> bool:
        return self.state in (DONE, FAILED)

    def report_row(self) -> dict:
        return {
            "name": self.name,
            "home": self.home,
            "state": self.state,
            "slices": self.slices,
            "retries": self.retries,
            "admission_wait_s": self.admission_wait,
            "lock_park_s": self.park_seconds,
            "max_park_s": self.max_park,
            "max_ready_wait_s": self.max_ready_wait,
            "max_passed_over": self.max_passed_over,
            "error": self.error,
        }


class SchedulerWaitStrategy:
    """One database's lock manager wait path under the scheduler: the
    waiting session parks and the event loop runs *other* sessions'
    requests — which is how a lock wait spends simulated time doing the
    system's other work instead of wall time doing nothing.  Timeouts
    are in simulated seconds on this database's clock (:meth:`now`)."""

    def __init__(self, sched: "MultiUserScheduler", index: int) -> None:
        self.sched = sched
        self.index = index

    def suspended_xids(self) -> set:
        """xids (on this database) of sessions parked beneath the
        current one on the scheduler's call stack.  The lock manager
        exempts them from the FIFO no-barge rule: a stack-suspended
        waiter cannot acquire until control unwinds through the
        requester, so queueing behind it would deadlock the event loop,
        not the data."""
        xid_on, index = self.sched.xid_on, self.index
        xids = {xid_on(session, index) for session in self.sched._running[:-1]}
        xids.discard(None)
        return xids

    def now(self) -> float:
        return self.sched.dbs[self.index].clock.now()

    def start(self, lm, xid: int, resource, mode: str) -> dict:
        sched = self.sched
        db = sched.dbs[self.index]
        now = db.clock.now()
        session = sched._running[-1] if sched._running else None
        if session is not None:
            session.state = PARKED
            sched.stats.lock_parks += 1
            sched._event("park", session, f"{mode} {resource!r}")
        span = db.obs.tracer.span("sched.park", resource=repr(resource),
                                  mode=mode)
        span.__enter__()
        return {"start": now, "session": session, "span": span}

    def wait_round(self, lm, ctx: dict) -> bool:
        sched = self.sched
        db = sched.dbs[self.index]
        if db.clock.now() >= ctx["deadline"]:
            return False
        acct = db.obs.tx
        waiter_xid = acct.current_xid()
        # Run other sessions, then restore the waiter's accounting
        # identity (their slices re-pointed it).
        try:
            sched._step_while_parked(self.index, ctx["deadline"])
        finally:
            acct.activate(waiter_xid)
        return db.clock.now() < ctx["deadline"]

    def finish(self, lm, ctx: dict, xid: int) -> float:
        sched = self.sched
        elapsed = sched.dbs[self.index].clock.now() - ctx["start"]
        session = ctx["session"]
        if session is not None:
            session.state = RUNNING
            session.park_seconds += elapsed
            if elapsed > session.max_park:
                session.max_park = elapsed
            sched._event("unpark", session, f"{elapsed:.6f}")
        ctx["span"].__exit__(None, None, None)
        return elapsed


class MultiUserScheduler:
    """Seeded cooperative event loop over N sessions of one server.

    Construction installs the scheduler's lock wait strategy on the
    lock manager of every database in ``self.dbs`` and mirrors the
    ``sched.*`` metric families onto their registries; :meth:`close`
    undoes both.

    The methods from :meth:`_databases` to :meth:`_call_commit_hook`,
    and :meth:`_dispatch`, are the deployment seam — everything that
    knows a session talks to *one server*.  A subclass that overrides
    them runs the same loop over another deployment.
    """

    #: item types a program may hold besides :class:`Txn` blocks.
    ITEMS: tuple = (Call, Apply)
    session_class = Session

    #: simulated seconds: a parked waiter's idle step, and the first and
    #: the longest sleep of a retried unit (doubling in between).
    wait_quantum = 1e-4
    backoff_base = 0.005
    backoff_cap = 0.08

    def __init__(self, server, seed: int = 0, max_inflight: int = 8,
                 admission_queue: int = 16,
                 max_retries: int = 10, fairness_bound: float = 0.5,
                 cluster_commits: bool = True, cache_factory=None) -> None:
        self.server = server
        #: ``fn(server, conn) -> ClientCache`` — when set, every
        #: admitted session gets a lease-coherent client cache, and its
        #: link answers the slices it may without the server (see
        #: :func:`repro.cache.session_cache_factory`).
        self.cache_factory = cache_factory
        #: the databases this loop multiplexes, each with its own
        #: clock, lock manager and ``obs``.
        self.dbs = self._databases()
        self.seed = seed
        self.rng = random.Random(seed)
        self.max_inflight = max_inflight
        self.admission_queue = admission_queue
        self.max_retries = max_retries
        self.fairness_bound = fairness_bound
        self.cluster_commits = cluster_commits
        self.stats = SchedStats()
        self.sessions: list[Session] = []
        self._admitted: list[Session] = []
        self._admission_q: list[Session] = []
        #: call stack of sessions currently inside a dispatch (the top
        #: is the innermost; everything below is parked on a lock).
        self._running: list[Session] = []
        self._last_ran: Session | None = None
        #: commit-burst drain flag (see :meth:`_pick`).
        self._draining = False
        #: deterministic event trace (see :meth:`_event`).
        self.trace: list[tuple] = []
        #: hook called right after a Txn's commit dispatch returns (the
        #: crash testkit's oracle seam; see :meth:`_call_commit_hook`).
        self.commit_hook = None
        self._closed = False
        for index, db in enumerate(self.dbs):
            db.locks.wait_strategy = SchedulerWaitStrategy(self, index)
        self._bind_metrics()

    # -- wiring ----------------------------------------------------------

    def _bind_metrics(self) -> None:
        for db in self.dbs:
            db.obs.metrics.mirror_all(METRICS, self.stats)

    def close(self) -> None:
        """Uninstall the lock managers' wait strategies (a lock wait
        outside the scheduler fails at once) and tear down any sessions
        still connected."""
        if self._closed:
            return
        self._closed = True
        for db in self.dbs:
            db.locks.wait_strategy = None
        for session in self.sessions:
            self._close(session)

    def __enter__(self) -> "MultiUserScheduler":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- the deployment seam: one server ---------------------------------

    def _databases(self) -> list:
        return [self.server.fs.db]

    def _open(self, session: Session) -> str:
        """Connect an admitted session; returns the detail of its
        ``admit`` trace event."""
        session.link = SessionLink(self.server, self.cache_factory)
        return f"conn={session.link.conn}"

    def _close(self, session: Session) -> None:
        """Disconnect a session (idempotent).  Disconnecting aborts any
        transaction a failed session left open, releasing its locks for
        the survivors."""
        if session.link is not None:
            session.link.close()
            session.link = None

    def xid_on(self, session: Session, index: int) -> int | None:
        """The session's open xid on database ``index``, if any."""
        return session.link.xid()

    def _abort_open(self, session: Session) -> None:
        """Abort the session's open transaction, if it has one."""
        if session.link.tx() is not None:
            session.link.call("p_abort")

    def _call_commit_hook(self, session: Session, tag) -> None:
        """``commit_hook`` is ``fn(session, tag, xid)`` here, ``xid``
        being the transaction whose commit just returned."""
        self.commit_hook(session, tag,
                         self.server.session_last_xid(session.link.conn))

    # -- admission -------------------------------------------------------

    def add_session(self, program, name: str | None = None) -> Session:
        """Submit a session program.  Admits it immediately while fewer
        than ``max_inflight`` sessions are in flight, queues it FIFO up
        to ``admission_queue`` deep, and refuses it (backpressure) past
        that."""
        return self._submit(program, name, home=0)

    def _submit(self, program, name: str | None, home: int) -> Session:
        sid = len(self.sessions)
        session = self.session_class(sid, name or f"s{sid}",
                                     self._compile(program),
                                     self.dbs[home].clock.now(), home)
        if len(self._admitted) < self.max_inflight:
            self.sessions.append(session)
            self._admit(session)
        elif len(self._admission_q) < self.admission_queue:
            self.sessions.append(session)
            self._admission_q.append(session)
            self.stats.admission_waits += 1
            self._event("queue", session, f"depth={len(self._admission_q)}")
        else:
            self.stats.rejected += 1
            self._event("reject", session, f"queue_full={self.admission_queue}")
            raise SchedAdmissionError(
                f"session {session.name!r} refused: {len(self._admitted)} "
                f"in flight and admission queue full "
                f"({self.admission_queue} deep)")
        return session

    @classmethod
    def _compile(cls, program) -> list[_Unit]:
        units: list[_Unit] = []
        ordinal = 0
        for item in program:
            txn = item if isinstance(item, Txn) else None
            items = txn.items if txn is not None else [item]
            for sub in items:
                if not isinstance(sub, cls.ITEMS):
                    raise TypeError(f"unknown program item {sub!r}")
            if isinstance(item, Apply):
                raise TypeError(
                    f"{item!r} outside a Txn: Apply items need the "
                    f"session's open transaction")
            ords = list(range(ordinal, ordinal + len(items)))
            ordinal += len(items)
            units.append(_Unit(txn, items, ords))
        return units

    def _admit(self, session: Session) -> None:
        detail = self._open(session)
        session.state = READY
        now = self.dbs[session.home].clock.now()
        session.admission_wait = now - session.submitted_at
        session.ready_since = now
        self._admitted.append(session)
        self._event("admit", session, detail)

    def _retire(self, session: Session, state: str) -> None:
        session.state = state
        self._admitted.remove(session)
        self._close(session)
        self._event(state, session, session.error or "")
        if self._admission_q:
            self._admit(self._admission_q.pop(0))

    # -- the event loop --------------------------------------------------

    def run(self, strict: bool = True) -> dict:
        """Run every session to completion; returns the fairness
        report.  ``strict`` raises :class:`SessionFailedError` if any
        session exhausted its retry budget."""
        while not all(s.finished for s in self.sessions):
            if self._run_ready():
                continue
            sleeper = self._next_sleeper()
            if sleeper is None:
                raise SchedStalledError(
                    "unfinished sessions but nothing runnable: "
                    + ", ".join(f"{s.name}={s.state}" for s in self.sessions
                                if not s.finished))
            clock = self.dbs[sleeper.home].clock
            clock.advance(max(0.0, sleeper.wake_time - clock.now()))
        failed = [s for s in self.sessions if s.state == FAILED]
        if strict and failed:
            raise SessionFailedError(
                "; ".join(f"{s.name}: {s.error}" for s in failed))
        return self.fairness_report()

    def _run_ready(self) -> bool:
        """Wake due sleepers, then run one slice of a ready session;
        False when nobody is ready."""
        self._wake_sleepers()
        ready = [s for s in self._admitted if s.state == READY]
        if ready:
            self._run_slice(self._pick(ready))
        return bool(ready)

    def _wake_sleepers(self) -> None:
        for session in self._admitted:
            if session.state == SLEEPING:
                now = self.dbs[session.home].clock.now()
                if session.wake_time <= now:
                    session.state = READY
                    session.ready_since = now

    def _next_sleeper(self) -> Session | None:
        """The sleeping session closest to its wake-up, measured on its
        own home clock (None if nobody sleeps)."""
        sleepers = [s for s in self._admitted if s.state == SLEEPING]
        return min(sleepers, default=None,
                   key=lambda s: (s.wake_time
                                  - self.dbs[s.home].clock.now(), s.sid))

    def _pick(self, ready: list[Session]) -> Session:
        """Seeded random choice with a starvation guard: any session
        runnable for longer than ``fairness_bound`` simulated seconds
        (on its home clock) preempts the lottery, oldest wait first.
        Otherwise the lottery runs among the ready sessions homed on
        the database furthest behind, by when it can next work (its
        clock, or later while its drives write a queued flush:
        :meth:`~repro.db.database.Database.ready_at`) — the laggiest
        timeline runs next, which keeps the databases advancing
        together; with one database that is every ready session.

        With ``cluster_commits`` (the default), sessions whose next
        request is ``p_commit`` are held back while any other ready
        session is not at its own commit gate, readers included — the
        classic group-commit delay, expressed as scheduling policy (a
        commit goes when every ready session is waiting to commit, or
        when the starvation guard says so).  Writes from every
        session accumulate in the buffer cache, then the commits run
        back-to-back: the first committer's flush sweeps all of them in
        one sorted pass, the rest find their pages already clean, and
        the batched commit records share a single status force.  The
        starvation guard bounds the delay.

        The choice is :meth:`_choose`'s; what is counted here, whatever
        it chose, is every overdue session it passed over — the number
        the ``starved`` verdict is read from."""
        now = [db.clock.now() for db in self.dbs]
        overdue = [s for s in ready
                   if now[s.home] - s.ready_since >= self.fairness_bound]
        chosen = self._choose(ready, overdue)
        for s in overdue:
            if s is not chosen:
                s.passed_over += 1
                if s.passed_over > s.max_passed_over:
                    s.max_passed_over = s.passed_over
        return chosen

    def _choose(self, ready: list[Session],
                overdue: list[Session]) -> Session:
        if overdue:
            return min(overdue, key=lambda s: (s.ready_since, s.sid))
        homes = {s.home for s in ready}
        if len(homes) > 1:
            behind = min(homes, key=lambda i: (self.dbs[i].ready_at(), i))
            ready = [s for s in ready if s.home == behind]
        ordered = sorted(ready, key=lambda s: s.sid)
        if self.cluster_commits:
            gated = [s for s in ordered if self._at_commit_gate(s)]
            if self._draining:
                # Drain mode: finish the whole commit burst back-to-back
                # before any session starts its next transaction —
                # otherwise the first committer's successor slices would
                # outrank the remaining gated commits and the batch
                # would trickle out one commit at a time.
                if gated:
                    ordered = gated
                else:
                    self._draining = False
            elif gated and len(gated) == len(ordered):
                self._draining = True
                ordered = gated
            elif gated:
                ordered = [s for s in ordered if not self._at_commit_gate(s)]
        return ordered[self.rng.randrange(len(ordered))]

    @staticmethod
    def _at_commit_gate(session: Session) -> bool:
        """True when the session's next request is the ``p_commit`` of
        a committing Txn (aborts are not gated: they force their status
        record immediately, so delaying them batches nothing)."""
        unit = session.units[session.unit_idx]
        return (unit.txn is not None and not unit.txn.abort
                and session.phase == len(unit.items))

    def _step_while_parked(self, index: int, deadline: float) -> None:
        """One scheduling step on behalf of a lock waiter parked on
        database ``index``: run another session's request if any is
        ready, else advance a clock toward the next wake-up (or burn
        the waiter's own clock toward its timeout)."""
        if self._run_ready():
            return
        sleeper = self._next_sleeper()
        if sleeper is not None:
            clock = self.dbs[sleeper.home].clock
            now, target = clock.now(), sleeper.wake_time
            if sleeper.home == index:
                # same timeline: never sleep past the waiter's timeout.
                target = min(target, deadline)
            if target > now:
                clock.advance(target - now)
                return
        # Nothing runnable at all: the waiter's timeout is the only
        # event left, so jump straight to it (plus one quantum so the
        # deadline test is unambiguous) instead of burning quanta.
        self.stats.idle_advances += 1
        clock = self.dbs[index].clock
        clock.advance(max(self.wait_quantum,
                          deadline + self.wait_quantum - clock.now()))

    # -- slices ----------------------------------------------------------

    def _resolve(self, session: Session, value):
        if isinstance(value, Ref):
            if value.ordinal not in session.values:
                raise SchedStalledError(
                    f"{session.name}: Ref({value.ordinal}) before its "
                    f"request completed")
            return session.values[value.ordinal]
        return value

    def _next_request(self, session: Session) -> tuple:
        """The ``(label, op, args, kwargs, ordinal)`` of the session's
        next request, given its unit/phase counters.  ``op`` is what
        :meth:`_dispatch` takes; ``label`` names the slice in the
        trace."""
        unit = session.units[session.unit_idx]
        if unit.txn is None:
            index = 0
        elif session.phase == -1:
            return "p_begin", "p_begin", (), {}, None
        elif session.phase == len(unit.items):
            verb = "p_abort" if unit.txn.abort else "p_commit"
            return verb, verb, (), {}, None
        else:
            index = session.phase
        item, ordinal = unit.items[index], unit.ordinals[index]
        if isinstance(item, DirectOp):
            label = "__apply__" if isinstance(item, Apply) else item.label
            return label, item, (), {}, ordinal
        args = tuple(self._resolve(session, a) for a in item.args)
        kwargs = {k: self._resolve(session, v) for k, v in item.kwargs.items()}
        return item.method, item.method, args, kwargs, ordinal

    def _run_slice(self, session: Session) -> None:
        """Dispatch one request of ``session`` — the scheduler's unit
        of interleaving."""
        unit = session.units[session.unit_idx]
        label, op, args, kwargs, ordinal = self._next_request(session)
        self.stats.slices += 1
        session.slices += 1
        if self._last_ran is not session:
            self.stats.context_switches += 1
        self._last_ran = session
        home_clock = self.dbs[session.home].clock
        if session.state == READY:
            waited = home_clock.now() - session.ready_since
            if waited > session.max_ready_wait:
                session.max_ready_wait = waited
        session.passed_over = 0
        session.state = RUNNING
        self._running.append(session)
        self._event("slice", session, label)
        # The context switch, once per database: point its per-xid
        # accountant at this session's transaction there (or at no
        # one), and swap in the session's span stack on its tracer.
        traced = []
        for index, db in enumerate(self.dbs):
            db.obs.tx.activate(self.xid_on(session, index))
            tracer = db.obs.tracer
            if tracer.enabled:
                old_stack = tracer.swap_stack(
                    session.span_stacks.setdefault(index, []))
                traced.append((tracer, old_stack, tracer.span(
                    "sched.slice", session=session.name, method=label)))
        try:
            for _, _, span in traced:
                span.__enter__()
            try:
                result = self._dispatch(session, op, args, kwargs)
            finally:
                for _, _, span in reversed(traced):
                    span.__exit__(None, None, None)
        except (DeadlockError, LockTimeoutError) as exc:
            self._handle_victim(session, unit, exc)
            return
        finally:
            self._running.pop()
            for tracer, old_stack, _ in traced:
                tracer.swap_stack(old_stack)
            if session.state == RUNNING:
                session.state = READY
                session.ready_since = home_clock.now()
        if ordinal is not None:
            session.values[ordinal] = result
        self._advance_pc(session, unit)

    def _dispatch(self, session: Session, op, args: tuple, kwargs: dict):
        """Issue one request: ``op`` is a ``p_*`` method name, or the
        program item itself for a direct operation.  A request goes
        through the link (:meth:`~repro.cache.link.SessionLink.request`):
        with a session cache it answers ``p_stat``, a read-only
        ``p_open`` and its descriptor's seeks, reads and close without
        the server when it may."""
        link = session.link
        if isinstance(op, Apply):
            link.note_renaming()    # it may change a name behind the link
            return op.fn(self.server.fs, link.tx())
        return link.request(op, *args, **kwargs)

    def _advance_pc(self, session: Session, unit: _Unit) -> None:
        if unit.txn is not None and session.phase < len(unit.items):
            session.phase += 1
            return
        if (unit.txn is not None and not unit.txn.abort
                and self.commit_hook is not None):
            self._call_commit_hook(session, unit.txn.tag)
        unit.attempt = 0
        session.unit_idx += 1
        session.phase = -1
        if session.unit_idx >= len(session.units):
            self._retire(session, DONE)

    def _handle_victim(self, session: Session, unit: _Unit, exc) -> None:
        """Deadlock-victim (or lock-timeout) recovery: abort the open
        transaction, roll the unit back, back off (capped exponential,
        simulated seconds), and retry the unit from its beginning."""
        self._event("victim", session, type(exc).__name__)
        self._abort_open(session)
        for ordinal in unit.ordinals:
            session.values.pop(ordinal, None)
        session.phase = -1
        unit.attempt += 1
        if unit.attempt > self.max_retries:
            session.error = (f"retry budget exhausted after "
                             f"{self.max_retries} attempts: {exc}")
            self._retire(session, FAILED)
            return
        self.stats.retries += 1
        session.retries += 1
        backoff = min(self.backoff_cap,
                      self.backoff_base * (2 ** (unit.attempt - 1)))
        self.stats.backoff_seconds.observe(backoff)
        session.state = SLEEPING
        session.wake_time = self.dbs[session.home].clock.now() + backoff
        self._event("retry", session,
                    f"attempt={unit.attempt} backoff={backoff:.6f}")

    # -- tracing / reporting --------------------------------------------

    def _event(self, kind: str, session: Session, detail: str = "") -> None:
        """Append ``(home_time, kind, session_name, detail)`` to the
        deterministic event trace."""
        now = self.dbs[session.home].clock.now()
        self.trace.append((round(now, 9), kind, session.name, detail))

    def trace_hash(self) -> str:
        """SHA-256 over the event trace — the determinism gate: two
        runs with the same seed, programs and databases must produce
        the same hash."""
        blob = json.dumps(self.trace, separators=(",", ":")).encode()
        return hashlib.sha256(blob).hexdigest()

    def fairness_report(self) -> dict:
        """Per-session scheduling statistics plus the starvation
        verdict.  ``max_ready_wait_s`` — the longest any session sat
        runnable-but-not-run — is a latency: with more overdue sessions
        than one bound's worth of slices it grows with the queue (one
        commit slice per session ahead).  What the guard can promise,
        and ``starved`` judges, is the order of that queue: an overdue
        session is passed over only for sessions overdue longer, so
        never as many times as there are sessions."""
        rows = [s.report_row() for s in self.sessions]
        max_ready_wait = max((r["max_ready_wait_s"] for r in rows),
                             default=0.0)
        max_park = max((r["max_park_s"] for r in rows), default=0.0)
        max_passed_over = max((r["max_passed_over"] for r in rows),
                              default=0)
        return {
            "seed": self.seed,
            "nshards": len(self.dbs),
            "sessions": rows,
            "max_ready_wait_s": max_ready_wait,
            "max_park_s": max_park,
            "fairness_bound_s": self.fairness_bound,
            "max_passed_over": max_passed_over,
            "starved": bool(rows) and max_passed_over >= len(rows),
            "slices": self.stats.slices,
            "context_switches": self.stats.context_switches,
            "lock_parks": self.stats.lock_parks,
            "retries": self.stats.retries,
            "idle_advances": self.stats.idle_advances,
        }

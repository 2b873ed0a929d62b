"""Two-phase locking with deadlock detection.

"A standard database two-phase locking protocol [GRAY76] allows
concurrent access to files while preventing simultaneous changes from
interfering with one another."  Locks are table-granularity (POSTGRES
4.0.1 locked relations), shared or exclusive, held until commit or
abort.  When waiting would close a cycle in the waits-for graph, the
requester is chosen as the deadlock victim and its transaction raises
:class:`DeadlockError`.  The graph is read off the lock table at each
check — every queued waiter waits on the incompatible holders and the
incompatible waiters ahead of it — and is never stored, so an edge
cannot outlive the hold it names.

Queueing is FIFO without barging: a new request conflicts not only
with incompatible *holders* but with incompatible waiters queued ahead
of it, so a stream of shared requests cannot starve a parked exclusive
waiter.  The one exception is the S→X upgrade, which considers only
holders — an upgrader waiting behind a queued X waiter that is itself
waiting on the upgrader's S hold would be a queueing-induced deadlock,
not a data one.  Two upgraders still deadlock honestly (each waits on
the other's S hold) and the waits-for cycle check picks exactly one
victim.

A wait times out on a stall, not on its length: ``timeout_s`` is how
long the set of transactions a request waits for may stay the same.
A holder releasing, or a waiter ahead being granted or leaving,
restarts the clock, so a waiter keeps its place in a queue that moves
however long the queue is.  A request whose blockers never change
fails at ``timeout_s`` — the only way out of a deadlock no one lock
manager can see (a cross-shard cycle).

*How* a transaction waits is pluggable (:attr:`LockManager.
wait_strategy`): the default parks the calling thread on a condition
variable and measures wall seconds (lock waits are thread scheduling,
not simulated I/O); the multi-session scheduler (:mod:`repro.sched`)
installs a strategy that parks the waiting session and runs other
sessions' requests until the lock frees — which is what lets lock waits
advance simulated time and land in per-xid accounting.
"""

from __future__ import annotations

import threading
import time as _time
from dataclasses import dataclass, field
from typing import Hashable

from repro.db.transactions import Transaction
from repro.errors import DeadlockError, LockTimeoutError
from repro.obs.registry import MetricSpec

SHARED = "S"
EXCLUSIVE = "X"

METRICS = (
    MetricSpec("lock.waits", "counter", "waits",
               "Blocking lock acquisitions (counted once per acquire "
               "that had to wait, however many wait rounds it took).",
               "repro.db.locks"),
    MetricSpec("lock.wait_seconds", "histogram", "seconds",
               "Seconds per blocking lock acquisition — wall seconds "
               "under the default thread wait strategy, simulated "
               "seconds under a sim-clock strategy (the multi-session "
               "scheduler's parked waits).",
               "repro.db.locks"),
    MetricSpec("lock.deadlocks", "counter", "txns",
               "Transactions chosen as deadlock victims (the waits-for "
               "graph closed a cycle through them).",
               "repro.db.locks"),
    MetricSpec("lock.timeouts", "counter", "txns",
               "Lock acquisitions abandoned after no progress for "
               "`timeout_s`: the transactions the request waited for "
               "stayed the same that long.",
               "repro.db.locks"),
)


@dataclass
class LockStats:
    """Session-lifetime contention counters (the metric families above
    mirror the obs-pushed series; these plain integers stay readable
    without an Observability bundle, e.g. from a bare unit test)."""

    waits: int = 0
    deadlocks: int = 0
    timeouts: int = 0


@dataclass
class _Waiter:
    """One queued request; identity matters (the queue may hold several
    entries for one xid only transiently, never for the same request)."""

    xid: int
    mode: str


@dataclass
class _LockState:
    """Per-resource lock bookkeeping."""

    holders: dict[int, str] = field(default_factory=dict)  # xid -> mode
    waiters: list[_Waiter] = field(default_factory=list)   # FIFO queue


@dataclass(frozen=True)
class LockHandle:
    """Recorded on the transaction for release at commit/abort."""

    resource: Hashable
    mode: str


class ThreadWaitStrategy:
    """The default wait path: park the calling thread on the lock
    manager's condition variable, timeout in wall-clock seconds.

    A strategy's clock is :meth:`now`; the lock manager keeps
    ``ctx["deadline"]`` on it, moving it whenever the queue ahead
    moves."""

    def now(self) -> float:
        return _time.monotonic()

    def start(self, lm: "LockManager", xid: int, resource: Hashable,
              mode: str) -> dict:
        return {"start": self.now()}

    def wait_round(self, lm: "LockManager", ctx: dict) -> bool:
        """One bounded wait; True → re-check blockers, False → the
        deadline passed.  Called (and returns) holding ``lm._cond``."""
        remaining = ctx["deadline"] - _time.monotonic()
        if remaining <= 0:
            return False
        lm._cond.wait(timeout=remaining)
        return _time.monotonic() < ctx["deadline"]

    def finish(self, lm: "LockManager", ctx: dict, xid: int) -> float:
        """Wait is over (granted or failed); returns elapsed seconds."""
        return _time.monotonic() - ctx["start"]


class LockManager:
    """Table-level S/X lock manager with waits-for deadlock detection
    and FIFO (no-barging) queueing."""

    def __init__(self, timeout_s: float = 10.0) -> None:
        self._mutex = threading.Lock()
        self._cond = threading.Condition(self._mutex)
        self._locks: dict[Hashable, _LockState] = {}
        #: seconds a request may wait with the queue ahead not moving.
        self.timeout_s = timeout_s
        self.stats = LockStats()
        #: how blocked acquisitions wait (see module docstring).
        self.wait_strategy = ThreadWaitStrategy()
        #: the session's Observability bundle (set by Database).
        self.obs = None

    # -- acquisition -------------------------------------------------------

    def acquire(self, tx: Transaction, resource: Hashable,
                mode: str = SHARED) -> None:
        """Acquire ``mode`` on ``resource`` for ``tx``, blocking as
        needed.  Re-acquisition and S→X upgrade are supported."""
        if mode not in (SHARED, EXCLUSIVE):
            raise ValueError(f"bad lock mode {mode!r}")
        with self._cond:
            state = self._locks.setdefault(resource, _LockState())
            held = state.holders.get(tx.xid)
            if held == EXCLUSIVE or held == mode:
                return  # already strong enough
            upgrading = held == SHARED
            entry = _Waiter(tx.xid, mode)
            queued = False
            ctx = None
            strategy = self.wait_strategy
            # Waiters whose sessions are suspended beneath the caller on
            # the cooperative scheduler's stack cannot acquire until
            # control unwinds *through* the caller — queueing behind
            # them would be a stack-induced false dependency, so the
            # strategy may exempt them from the no-barge rule (empty
            # under real threads, where every waiter can always run).
            suspended = getattr(strategy, "suspended_xids", None)
            waiting_on = None
            stalled = False
            try:
                while True:
                    exempt = suspended() if suspended is not None else ()
                    blockers = self._blockers(state, tx.xid, mode,
                                              upgrading, entry, exempt)
                    if not blockers:
                        break
                    if blockers != waiting_on:
                        # The first look, or the queue ahead moved.  A
                        # cycle can only close as a transaction starts
                        # waiting on someone new, so this is where one
                        # is looked for; and the stall clock restarts.
                        if self._cycle_from(tx.xid, blockers):
                            self.stats.deadlocks += 1
                            if self.obs is not None:
                                self.obs.lock_deadlock(tx.xid)
                            raise DeadlockError(
                                f"transaction {tx.xid} chosen as deadlock "
                                f"victim requesting {mode} on {resource!r} "
                                f"held by {self._holders_text(state)}; "
                                f"waiting for {sorted(blockers)}")
                        waiting_on = blockers
                        if not queued:
                            state.waiters.append(entry)
                            queued = True
                        if ctx is None:
                            ctx = strategy.start(self, tx.xid, resource, mode)
                        ctx["deadline"] = strategy.now() + self.timeout_s
                    elif stalled:
                        self.stats.timeouts += 1
                        if self.obs is not None:
                            self.obs.lock_timeout(tx.xid)
                        raise LockTimeoutError(
                            f"transaction {tx.xid} timed out waiting for "
                            f"{mode} on {resource!r} held by "
                            f"{self._holders_text(state)}: the queue "
                            f"ahead did not move for {self.timeout_s}s")
                    stalled = not strategy.wait_round(self, ctx)
                if mode == EXCLUSIVE:
                    state.holders[tx.xid] = EXCLUSIVE
                else:
                    state.holders.setdefault(tx.xid, SHARED)
                tx.held_locks.append(LockHandle(resource,
                                                state.holders[tx.xid]))
            finally:
                if queued:
                    try:
                        state.waiters.remove(entry)
                    except ValueError:
                        pass
                if not state.holders and not state.waiters:
                    del self._locks[resource]   # a victim leaves no entry
                if ctx is not None:
                    elapsed = strategy.finish(self, ctx, tx.xid)
                    self.stats.waits += 1
                    if self.obs is not None:
                        self.obs.lock_wait(tx.xid, elapsed)
                    # Our departure may unblock queued requests that
                    # were ordered behind this entry.
                    self._cond.notify_all()

    def _holders_text(self, state: _LockState) -> str:
        """Current holders as ``{xid: mode}`` for actionable error
        messages (retry/backoff logs name the transactions to wait out)."""
        return ("{" + ", ".join(f"{xid}:{m}"
                                for xid, m in sorted(state.holders.items()))
                + "}") if state.holders else "{}"

    def _blockers(self, state: _LockState, xid: int, mode: str,
                  upgrading: bool, entry: _Waiter,
                  exempt=()) -> set[int]:
        """Transactions this request must wait for: incompatible
        holders, plus — FIFO, no barging — incompatible waiters queued
        ahead of it.  An S→X upgrade considers only holders (see module
        docstring); ``exempt`` waiter xids (stack-suspended sessions
        under the cooperative scheduler) are skipped too."""
        blockers = set()
        for holder, held_mode in state.holders.items():
            if holder == xid:
                continue
            if mode == EXCLUSIVE or held_mode == EXCLUSIVE:
                blockers.add(holder)
        if not upgrading:
            for waiter in state.waiters:
                if waiter is entry:
                    break
                if waiter.xid == xid or waiter.xid in exempt:
                    continue
                if mode == EXCLUSIVE or waiter.mode == EXCLUSIVE:
                    blockers.add(waiter.xid)
        return blockers

    def _cycle_from(self, start: int, blockers: set[int]) -> bool:
        """Would ``start`` waiting on ``blockers`` close a cycle?  DFS
        over the waits-for graph as the lock table has it now: every
        other queued waiter waits on what :meth:`_blockers` says it
        must, exemptions aside (an upgrader on holders only)."""
        edges: dict[int, set[int]] = {}
        for state in self._locks.values():
            for entry in state.waiters:
                if entry.xid != start:
                    edges.setdefault(entry.xid, set()).update(self._blockers(
                        state, entry.xid, entry.mode,
                        state.holders.get(entry.xid) == SHARED, entry))
        stack = list(blockers)
        seen = set()
        while stack:
            node = stack.pop()
            if node == start:
                return True
            if node in seen:
                continue
            seen.add(node)
            stack.extend(edges.get(node, ()))
        return False

    # -- release -------------------------------------------------------------

    def release_all(self, tx: Transaction) -> None:
        """Release every lock ``tx`` holds — the shrink phase of 2PL,
        run only at commit/abort."""
        with self._cond:
            for handle in tx.held_locks:
                state = self._locks.get(handle.resource)
                if state is not None:
                    state.holders.pop(tx.xid, None)
                    if not state.holders and not state.waiters:
                        del self._locks[handle.resource]
            tx.held_locks.clear()
            self._cond.notify_all()

    # -- introspection ----------------------------------------------------------

    def holders(self, resource: Hashable) -> dict[int, str]:
        with self._mutex:
            state = self._locks.get(resource)
            return dict(state.holders) if state else {}

    def waiter_xids(self, resource: Hashable) -> list[int]:
        """Queued waiter xids in FIFO order (introspection for tests
        and the scheduler's fairness report)."""
        with self._mutex:
            state = self._locks.get(resource)
            return [w.xid for w in state.waiters] if state else []

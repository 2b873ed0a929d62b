"""Two-phase locking with deadlock detection.

"A standard database two-phase locking protocol [GRAY76] allows
concurrent access to files while preventing simultaneous changes from
interfering with one another."  Locks are table-granularity (POSTGRES
4.0.1 locked relations), shared or exclusive, held until commit or
abort.  Waiters are tracked in a waits-for graph; when acquiring a lock
would close a cycle, the requester is chosen as the deadlock victim and
its transaction raises :class:`DeadlockError`.

Queueing is FIFO without barging: a new request conflicts not only
with incompatible *holders* but with incompatible waiters queued ahead
of it, so a stream of shared requests cannot starve a parked exclusive
waiter.  The one exception is the S→X upgrade, which considers only
holders — an upgrader waiting behind a queued X waiter that is itself
waiting on the upgrader's S hold would be a queueing-induced deadlock,
not a data one.  Two upgraders still deadlock honestly (each waits on
the other's S hold) and the waits-for cycle check picks exactly one
victim.

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
               "Lock acquisitions abandoned because the configured "
               "timeout elapsed before the lock was granted.",
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
    manager's condition variable, timeout in wall-clock seconds."""

    def start(self, lm: "LockManager", xid: int, resource: Hashable,
              mode: str) -> dict:
        now = _time.monotonic()
        return {"start": now, "deadline": now + lm.timeout_s}

    def wait_round(self, lm: "LockManager", ctx: dict) -> bool:
        """One bounded wait; True → re-check blockers, False → timed
        out.  Called (and returns) holding ``lm._cond``."""
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
        # waits-for edges: xid -> set of xids it waits on
        self._waits_for: dict[int, set[int]] = {}
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
            # Waiters whose sessions are suspended beneath the caller on
            # the cooperative scheduler's stack cannot acquire until
            # control unwinds *through* the caller — queueing behind
            # them would be a stack-induced false dependency, so the
            # strategy may exempt them from the no-barge rule (empty
            # under real threads, where every waiter can always run).
            suspended = getattr(self.wait_strategy, "suspended_xids", None)
            try:
                while True:
                    exempt = suspended() if suspended is not None else ()
                    blockers = self._blockers(state, tx.xid, mode,
                                              upgrading, entry, exempt)
                    if not blockers:
                        break
                    # Would waiting close a cycle in the waits-for graph?
                    self._waits_for[tx.xid] = blockers
                    if self._cycle_from(tx.xid):
                        self.stats.deadlocks += 1
                        if self.obs is not None:
                            self.obs.lock_deadlock(tx.xid)
                        raise DeadlockError(
                            f"transaction {tx.xid} chosen as deadlock "
                            f"victim requesting {mode} on {resource!r} "
                            f"held by {self._holders_text(state)}; "
                            f"waiting for {sorted(blockers)}")
                    if not queued:
                        state.waiters.append(entry)
                        queued = True
                    if ctx is None:
                        ctx = self.wait_strategy.start(self, tx.xid,
                                                       resource, mode)
                    if not self.wait_strategy.wait_round(self, ctx):
                        # Last look before giving up: a sim-clock
                        # strategy may have advanced straight to the
                        # deadline while the release that frees us
                        # happened on the way.
                        exempt = (suspended() if suspended is not None
                                  else ())
                        if not self._blockers(state, tx.xid, mode,
                                              upgrading, entry, exempt):
                            break
                        self.stats.timeouts += 1
                        if self.obs is not None:
                            self.obs.lock_timeout(tx.xid)
                        raise LockTimeoutError(
                            f"transaction {tx.xid} timed out waiting for "
                            f"{mode} on {resource!r} held by "
                            f"{self._holders_text(state)} after "
                            f"{self.timeout_s}s")
            finally:
                if queued:
                    try:
                        state.waiters.remove(entry)
                    except ValueError:
                        pass
                self._waits_for.pop(tx.xid, None)
                if ctx is not None:
                    elapsed = self.wait_strategy.finish(self, ctx, tx.xid)
                    self.stats.waits += 1
                    if self.obs is not None:
                        self.obs.lock_wait(tx.xid, elapsed)
                    # Our departure may unblock queued requests that
                    # were ordered behind this entry.
                    self._cond.notify_all()
            if mode == EXCLUSIVE:
                state.holders[tx.xid] = EXCLUSIVE
            else:
                state.holders.setdefault(tx.xid, SHARED)
            tx.held_locks.append(LockHandle(resource, state.holders[tx.xid]))

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

    def _cycle_from(self, start: int) -> bool:
        """DFS over the waits-for graph looking for a cycle through
        ``start``."""
        stack = list(self._waits_for.get(start, ()))
        seen = set()
        while stack:
            node = stack.pop()
            if node == start:
                return True
            if node in seen:
                continue
            seen.add(node)
            stack.extend(self._waits_for.get(node, ()))
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
            self._waits_for.pop(tx.xid, None)
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

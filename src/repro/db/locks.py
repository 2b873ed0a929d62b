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

The process is single-threaded, so a request that must wait can only
wait if something else runs while it does.  That something is the
multi-session scheduler (:mod:`repro.sched`): it installs a
:attr:`LockManager.wait_strategy` that parks the waiting session and
runs other sessions' requests until the lock frees, so a lock wait
spends simulated seconds and lands in per-xid accounting.  With no
strategy installed nobody could release the holders, and a request
that would wait raises :class:`LockTimeoutError` at once (after the
deadlock check), leaving no queue entry behind.

Under the scheduler a parked session is suspended on its call stack
beneath every session that ran while it waited, and cannot take a lock
it waits for, finish, or release its own holds until they all return.
So a request that would wait, even transitively, on a transaction of a
session suspended beneath it closes a cycle too (the session waits
for the requester to return), and the requester is the victim at
once — not ``timeout_s`` later, having run every other session it
could and then waited out the rest with nothing runnable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable

from repro.db.transactions import Transaction
from repro.errors import DeadlockError, LockTimeoutError
from repro.obs.registry import (HistogramValue, counter, histogram,
                                metric_stats)

SHARED = "S"
EXCLUSIVE = "X"


@metric_stats("lock")
class LockStats:
    """Session-lifetime contention counters."""

    waits: int = counter(
        "waits", "Blocking lock acquisitions (counted once per acquire "
        "that had to wait, however many wait rounds it took).")
    wait_seconds: HistogramValue = histogram(
        "seconds", "Simulated seconds per blocking lock acquisition (a "
        "session parked in the multi-session scheduler while "
        "others ran).")
    deadlocks: int = counter(
        "txns", "Transactions chosen as deadlock victims (the waits-for "
        "graph closed a cycle through them; under the scheduler "
        "a session suspended beneath the requester waits on "
        "it).")
    timeouts: int = counter(
        "txns", "Lock acquisitions abandoned after no progress for "
        "`timeout_s`: the transactions the request waited for "
        "stayed the same that long (at once when no scheduler "
        "could run them).")


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


class LockManager:
    """Table-level S/X lock manager with waits-for deadlock detection
    and FIFO (no-barging) queueing."""

    def __init__(self, timeout_s: float = 10.0) -> None:
        self._locks: dict[Hashable, _LockState] = {}
        #: seconds a request may wait with the queue ahead not moving.
        self.timeout_s = timeout_s
        self.stats = LockStats()
        #: how blocked acquisitions wait — ``now``, ``start``,
        #: ``wait_round``, ``finish``, optionally ``suspended_xids`` —
        #: installed by a scheduler; None fails them at once.
        self.wait_strategy = None
        #: the session's Observability bundle (set by Database).
        self.obs = None

    # -- acquisition -------------------------------------------------------

    def acquire(self, tx: Transaction, resource: Hashable,
                mode: str = SHARED) -> None:
        """Acquire ``mode`` on ``resource`` for ``tx``, waiting through
        the installed strategy as needed.  Re-acquisition and S→X
        upgrade are supported."""
        if mode not in (SHARED, EXCLUSIVE):
            raise ValueError(f"bad lock mode {mode!r}")
        state = self._locks.setdefault(resource, _LockState())
        held = state.holders.get(tx.xid)
        if held == EXCLUSIVE or held == mode:
            return  # already strong enough
        upgrading = held == SHARED
        entry = _Waiter(tx.xid, mode)
        queued = False
        ctx = None
        strategy = self.wait_strategy
        # Waiters whose sessions are suspended beneath the caller on the
        # scheduler's stack cannot acquire until control unwinds
        # *through* the caller — queueing behind them would be a
        # stack-induced false dependency, so the strategy may exempt
        # them from the no-barge rule.
        suspended = getattr(strategy, "suspended_xids", None)
        waiting_on = None
        stalled = False
        try:
            while True:
                # Only waiters queued ahead and a cycle check read the
                # exemptions: a request with no one ahead does not ask.
                ahead = bool(state.waiters) and state.waiters[0] is not entry
                exempt = suspended() if suspended is not None and ahead else ()
                blockers = self._blockers(state, tx.xid, mode, upgrading,
                                          entry, exempt)
                if not blockers:
                    break
                if blockers != waiting_on:
                    # The first look, or the queue ahead moved.  A cycle
                    # can only close as a transaction starts waiting on
                    # someone new, so this is where one is looked for;
                    # and the stall clock restarts.
                    if suspended is not None and not ahead:
                        exempt = suspended()
                    if self._cycle_from(tx.xid, blockers, exempt):
                        self.stats.deadlocks += 1
                        raise DeadlockError(
                            f"transaction {tx.xid} chosen as deadlock "
                            f"victim requesting {mode} on {resource!r} "
                            f"held by {self._holders_text(state)}; "
                            f"waiting for {sorted(blockers)}")
                    if strategy is None:
                        raise self._timed_out(
                            tx.xid, f"cannot wait for {mode} on "
                            f"{resource!r}", state,
                            "no scheduler is installed to run them")
                    waiting_on = blockers
                    if not queued:
                        state.waiters.append(entry)
                        queued = True
                    if ctx is None:
                        ctx = strategy.start(self, tx.xid, resource, mode)
                    ctx["deadline"] = strategy.now() + self.timeout_s
                elif stalled:
                    raise self._timed_out(
                        tx.xid, f"timed out waiting for {mode} on "
                        f"{resource!r}", state,
                        f"the queue ahead did not move for {self.timeout_s}s")
                stalled = not strategy.wait_round(self, ctx)
            if mode == EXCLUSIVE:
                state.holders[tx.xid] = EXCLUSIVE
            else:
                state.holders.setdefault(tx.xid, SHARED)
            tx.held_locks.append(LockHandle(resource, state.holders[tx.xid]))
        finally:
            if queued:
                state.waiters.remove(entry)
            if not state.holders and not state.waiters:
                del self._locks[resource]   # a victim leaves no entry
            if ctx is not None:
                elapsed = strategy.finish(self, ctx, tx.xid)
                self.stats.waits += 1
                self.stats.wait_seconds.observe(elapsed)
                if self.obs is not None:
                    self.obs.lock_wait(tx.xid, elapsed)

    def _timed_out(self, xid: int, what: str, state: _LockState,
                   why: str) -> LockTimeoutError:
        """Count one lock timeout of ``xid``; the error names the
        holders."""
        self.stats.timeouts += 1
        return LockTimeoutError(f"transaction {xid} {what} held by "
                                f"{self._holders_text(state)}: {why}")

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

    def _cycle_from(self, start: int, blockers: set[int],
                    suspended) -> bool:
        """Would ``start`` waiting on ``blockers`` close a cycle?  DFS
        over the waits-for graph as the lock table has it now: every
        other queued waiter waits on what :meth:`_blockers` says it
        must, exemptions aside (an upgrader on holders only), and each
        ``suspended`` xid (a session beneath ``start``'s on the
        scheduler's stack) waits on ``start``."""
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
            if node == start or node in suspended:
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
        for handle in tx.held_locks:
            state = self._locks.get(handle.resource)
            if state is not None:
                state.holders.pop(tx.xid, None)
                if not state.holders and not state.waiters:
                    del self._locks[handle.resource]
        tx.held_locks.clear()

    # -- introspection ----------------------------------------------------------

    def holders(self, resource: Hashable) -> dict[int, str]:
        state = self._locks.get(resource)
        return dict(state.holders) if state else {}

    def waiter_xids(self, resource: Hashable) -> list[int]:
        """Queued waiter xids in FIFO order (introspection for tests
        and the scheduler's fairness report)."""
        state = self._locks.get(resource)
        return [w.xid for w in state.waiters] if state else []

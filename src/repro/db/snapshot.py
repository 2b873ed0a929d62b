"""Visibility rules: the current view and time travel.

Every stored record carries ``(xmin, xmax)``.  A snapshot decides, from
those two xids and the transaction status file, whether the record is
part of the database state being viewed:

- :class:`CurrentSnapshot` — the view a running transaction sees: rows
  inserted by committed transactions (or by itself) and not deleted by
  a committed transaction (or by itself).
- :class:`AsOfSnapshot` — the paper's fine-grained time travel: "All
  transactions that had committed as of that time will be visible, so
  the file system state will be exactly the same as it was at that
  moment."  A record is visible as of time T iff its inserter committed
  at or before T and its deleter (if any) had not committed by T.

Because the no-overwrite manager keeps superseded records in place
(until the vacuum cleaner archives them), time travel needs no extra
data structures — only these predicates.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.db.transactions import TransactionManager
from repro.db.tuples import INVALID_XID


class Snapshot(ABC):
    """Decides record visibility from an (xmin, xmax) header."""

    @abstractmethod
    def is_visible(self, xmin: int, xmax: int) -> bool: ...


class CurrentSnapshot(Snapshot):
    """The view of transaction ``xid`` over current state."""

    __slots__ = ("_tm", "_xid")

    def __init__(self, tm: TransactionManager, xid: int) -> None:
        self._tm = tm
        self._xid = xid

    def is_visible(self, xmin: int, xmax: int) -> bool:
        # Was the record inserted, as far as we are concerned?
        if xmin != self._xid and not self._tm.is_committed(xmin):
            return False
        # Has it been deleted?
        if xmax == INVALID_XID:
            return True
        if xmax == self._xid:
            return False  # we deleted it ourselves
        return not self._tm.is_committed(xmax)


class AsOfSnapshot(Snapshot):
    """The historical view as of simulated time ``when``."""

    __slots__ = ("_tm", "when")

    def __init__(self, tm: TransactionManager, when: float) -> None:
        self._tm = tm
        self.when = float(when)

    def is_visible(self, xmin: int, xmax: int) -> bool:
        t_in = self._tm.commit_time(xmin)
        if t_in is None or t_in > self.when:
            return False
        if xmax == INVALID_XID:
            return True
        t_out = self._tm.commit_time(xmax)
        return t_out is None or t_out > self.when


class IntervalSnapshot(Snapshot):
    """POSTQUEL's two-time form ``table[T1, T2]``: every record version
    that was part of some committed state at any instant in [T1, T2].
    Unlike the point snapshots, this can yield *several* versions of
    one logical record — that is the point: it answers "what did this
    look like over the period"."""

    __slots__ = ("_tm", "t1", "t2")

    def __init__(self, tm: TransactionManager, t1: float, t2: float) -> None:
        if t2 < t1:
            t1, t2 = t2, t1
        self._tm = tm
        self.t1 = float(t1)
        self.t2 = float(t2)

    def is_visible(self, xmin: int, xmax: int) -> bool:
        t_in = self._tm.commit_time(xmin)
        if t_in is None or t_in > self.t2:
            return False
        if xmax == INVALID_XID:
            return True
        t_out = self._tm.commit_time(xmax)
        return t_out is None or t_out > self.t1


class BootstrapSnapshot(Snapshot):
    """Sees every committed record; used while opening a database
    before any transaction exists (catalog reads during recovery)."""

    __slots__ = ("_tm",)

    def __init__(self, tm: TransactionManager) -> None:
        self._tm = tm

    def is_visible(self, xmin: int, xmax: int) -> bool:
        if not self._tm.is_committed(xmin):
            return False
        return xmax == INVALID_XID or not self._tm.is_committed(xmax)

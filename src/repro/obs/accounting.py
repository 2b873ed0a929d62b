"""Per-transaction I/O accounting.

The paper's cost story is per-operation (Table 3's nine operations,
Table 4's per-call breakdown); the natural unit inside the data manager
is the transaction.  :class:`TxAccountant` attributes device reads and
writes, buffer hits and misses, lock waits, and status-file forces to
the transaction that incurred them, so ``repro.bench.report`` can
print where each xid's time went.

Attribution is by *current transaction*: :meth:`begin` (called from
``Database.begin``) marks the xid current, and every charge site
(buffer cache, lock manager, transaction manager) calls :meth:`charge`,
which books to the current xid — or drops the charge on the floor when
no transaction is open (bootstrap reads, benchmark cache flushes).
Sessions interleaved by the scheduler take turns being current
(:meth:`activate`).  ``Database.commit`` keeps the xid current through
the commit-time page force and status append, so a transaction's
durability cost lands on it, not on the next one.

Charges are plain dict increments against the simulated counters —
they never advance the simulated clock, so accounting is always on and
benchmark numbers are unchanged by it.
"""

from __future__ import annotations

#: every per-transaction cost field, in report column order.
FIELDS = (
    "buffer_hits",        # buffer-cache hits
    "buffer_misses",      # buffer-cache misses (each paid device time)
    "device_read_ops",    # device read operations (batched run = 1 op)
    "device_pages_read",  # pages transferred by those reads
    "device_write_ops",   # device write operations (batched run = 1 op)
    "device_pages_written",  # pages transferred by those writes
    "lock_waits",         # times the transaction blocked on a lock
    "lock_wait_seconds",  # simulated seconds spent parked on a lock
    "status_forces",      # forced status-file appends this xid triggered
    "client_cache_hits",  # chunks later served from a client cache that
                          # this xid's device reads originally filled
)


class TxAccountant:
    """Books per-xid cost rows to the current xid."""

    def __init__(self) -> None:
        #: the transaction charges book to (None: nobody pays).
        self._xid: int | None = None
        #: xid -> {field: value}; insertion order = begin order.
        self._rows: dict[int, dict[str, float]] = {}

    # -- transaction lifecycle ------------------------------------------

    def begin(self, xid: int) -> None:
        self._xid = xid
        self._rows.setdefault(xid, dict.fromkeys(FIELDS, 0))

    def end(self, xid: int) -> None:
        if self._xid == xid:
            self._xid = None

    def activate(self, xid: int | None) -> None:
        """Make ``xid`` the current transaction (``None`` deactivates).
        The scheduler calls this at every context switch so charges land
        on the session being advanced, not on whichever session last
        called :meth:`begin` — the begin/end protocol alone cannot tell
        interleaved sessions apart."""
        self._xid = xid
        if xid is not None:
            self._rows.setdefault(xid, dict.fromkeys(FIELDS, 0))

    def current_xid(self) -> int | None:
        return self._xid

    # -- charging --------------------------------------------------------

    def charge(self, field: str, amount: float = 1) -> None:
        """Book ``amount`` to the current transaction (no-op outside a
        transaction)."""
        xid = self._xid
        if xid is None:
            return
        self._rows[xid][field] += amount

    def charge_io(self, ops_field: str, ops: float,
                  pages_field: str, pages: float) -> None:
        """Book one I/O op-count/page-count pair in a single call — the
        device hot path charges two fields per operation, and fusing
        them halves the row lookups."""
        xid = self._xid
        if xid is None:
            return
        row = self._rows[xid]
        row[ops_field] += ops
        row[pages_field] += pages

    def charge_xid(self, xid: int, field: str, amount: float = 1) -> None:
        """Book to an explicit xid — used where the payer is known
        directly (the lock manager knows which transaction waited)."""
        row = self._rows.get(xid)
        if row is None:
            row = self._rows[xid] = dict.fromkeys(FIELDS, 0)
        row[field] += amount

    # -- reading ---------------------------------------------------------

    def row(self, xid: int) -> dict[str, float]:
        return dict(self._rows.get(xid) or dict.fromkeys(FIELDS, 0))

    def breakdown(self) -> dict[int, dict[str, float]]:
        """Every accounted transaction's cost row, in begin order."""
        return {xid: dict(row) for xid, row in self._rows.items()}

    def reset(self) -> None:
        self._rows.clear()

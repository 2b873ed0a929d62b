"""The transaction manager and the status file.

The POSTGRES no-overwrite manager "obviates the need for a conventional
write-ahead log, speeding recovery": committing a transaction requires
only that its commit state be recorded durably in "a special status
file".  Crash recovery is then *reading that file* — "no special log
processing is required at crash recovery time"; records stamped by
transactions with no commit record are simply invisible.

The status file here is an append-only log of commit/abort records,
persisted through the root device's metadata region (so every commit
charges one forced block write near the front of the disk — the head
movement real POSTGRES paid).  Transaction ids are never reused; a
high-water mark is forced periodically so a crash cannot resurrect an
old xid.

Neither POSTGRES 4.0.1 nor Inversion supports nested transactions: "a
single application program may only have one transaction active at any
time" — :class:`TransactionManager` enforces one active transaction per
session object, and :class:`repro.core.library.InversionClient` exposes
exactly the paper's ``p_begin``/``p_commit``/``p_abort``.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Callable

from repro.devices.base import DeviceManager
from repro.errors import RecoveryError, TransactionError
from repro.obs.registry import (HistogramValue, counter, gauge, histogram,
                                metric_stats)
from repro.obs.tracing import NO_SPAN
from repro.sim.clock import SimClock
from repro.sim.disk import drain, queued, settled, unfinished

IN_PROGRESS = "in_progress"
COMMITTED = "committed"
ABORTED = "aborted"
PREPARED = "prepared"
"""Two-phase commit limbo: the transaction's data pages and its ``P``
record are durable, but the commit decision belongs to a cross-shard
coordinator.  A prepared transaction is invisible (``is_committed`` is
False) and keeps its locks until the decision arrives — possibly after
a crash, via :meth:`TransactionManager.resolve_in_doubt`."""

STATUS_TAG = "pg_status"
XID_HWM_TAG = "pg_xid_hwm"
XID_HWM_STRIDE = 64

FIRST_NORMAL_XID = 2
BOOTSTRAP_XID = 1
"""xid stamped on catalog bootstrap rows; always considered committed
at time 0."""


@dataclass
class _TxRecord:
    state: str
    start_time: float
    commit_time: float | None = None
    #: global transaction id while PREPARED (``<coordinator>.<xid>``).
    gid: str | None = None


#: what :meth:`TransactionManager._load` keeps before anything is
#: parsed: no bytes, the bootstrap record, no committed xid.
_NOTHING_PARSED = (b"", {BOOTSTRAP_XID: _TxRecord(COMMITTED, 0.0, 0.0)},
                   BOOTSTRAP_XID, 0)

#: tokens per status record, its kind letter and xid included.
_ARITY = {"C": 4, "A": 3, "P": 4}


def _format_record(xid: int, rec: _TxRecord) -> str:
    """The status-record grammar, written: ``C xid start commit``,
    ``A xid start`` or ``P xid gid start``, by ``rec``'s state."""
    if rec.state == COMMITTED:
        return f"C {xid} {rec.start_time!r} {rec.commit_time!r}"
    if rec.state == PREPARED:
        return f"P {xid} {rec.gid} {rec.start_time!r}"
    return f"A {xid} {rec.start_time!r}"


def _parse_record(tokens: list[str], i: int) -> tuple[int, _TxRecord, int]:
    """The same grammar, read: the record starting at ``tokens[i]``, as
    ``(xid, record, index past it)``.  Raises IndexError when the
    tokens end inside the record, ValueError on anything else."""
    kind = tokens[i]
    if kind not in _ARITY:
        raise ValueError(f"unknown record kind {kind!r}")
    end = i + _ARITY[kind]
    if end > len(tokens):
        raise IndexError(f"{kind} record cut short")
    xid = int(tokens[i + 1])
    if kind == "C":
        rec = _TxRecord(COMMITTED, float(tokens[i + 2]), float(tokens[i + 3]))
    elif kind == "A":
        rec = _TxRecord(ABORTED, float(tokens[i + 2]))
    else:
        rec = _TxRecord(PREPARED, float(tokens[i + 3]), gid=tokens[i + 2])
    return xid, rec, end


@metric_stats("txn")
class TxStats:
    """Force accounting for the write-path bench: how many synchronous
    metadata writes commits actually paid, and how many commit records
    each one carried."""

    status_forces: int = counter(
        "ops", "Forced status-file appends (one meta-region block write "
        "plus a device flush each — the per-commit cost group "
        "commit amortizes).")
    hwm_forces: int = counter(
        "ops", "Forced xid high-water-mark writes, kept separate from "
        "commit forces.")
    hwm_floor_forces: int = counter(
        "ops", "Of txn.hwm_forces, those begin paid on its own: it found "
        "no headroom below the durable mark (the hard floor).")
    commits_recorded: int = counter("txns", "C records durably appended.")
    aborts_recorded: int = counter("txns", "A records durably appended.")
    prepares_recorded: int = counter(
        "txns", "P (two-phase-commit prepare) records durably appended.")
    group_batches: int = counter(
        "ops", "Status forces that carried more than one commit record.")
    max_group: int = gauge(
        "txns", "Largest number of commit records carried by one force.")
    group_closes: int = counter(
        "ops", "Commit groups closed: one commit sweep and one status "
        "force each (with no window, one per writing commit).")
    group_sweep_pages: int = counter(
        "pages", "Dirty pages written by group-closing sweeps.  TxAccountant "
        "books a close's sweep and force to the transaction current "
        "when the group closed (a committer, a preparer), and to "
        "nobody when none is (begin, close).")
    group_size: HistogramValue = histogram(
        "txns", "Commit records per closed group.")
    durable_lag_seconds: HistogramValue = histogram(
        "seconds", "Per commit record forced by a group close: from its "
        "pre-commit until its group is on the medium (the end of "
        "the last request the close queued, or the clock).  "
        "Booked at a later close or flush, once that end is "
        "final (the request in flight): reads the drive serves "
        "ahead of it before then push it back "
        "(disk.deferred_seconds), and the lag includes them.")

    def commits_per_force(self) -> float:
        """Average commit records per forced status append — 1.0 is the
        paper's one-force-per-commit behaviour; group commit raises it."""
        if self.status_forces == 0:
            return 0.0
        return self.commits_recorded / self.status_forces


@dataclass
class Transaction:
    """A client-visible transaction handle."""

    xid: int
    start_time: float
    state: str = IN_PROGRESS
    #: lock handles released at commit/abort (two-phase locking).
    held_locks: list = field(default_factory=list)
    #: callbacks run on abort (catalog cache invalidation, etc.).
    abort_hooks: list[Callable[[], None]] = field(default_factory=list)
    #: True once the transaction wrote anything (read-only commits skip
    #: the page force and the status write).
    wrote: bool = False

    def require_active(self) -> None:
        if self.state != IN_PROGRESS:
            raise TransactionError(f"transaction {self.xid} is {self.state}")


@contextmanager
def atomic(owner):
    """``with atomic(db) as tx: ...`` — begin, run the body, commit.

    ``owner`` is anything with ``begin()`` / ``commit(tx)`` /
    ``abort(tx)`` (a :class:`~repro.db.database.Database`, an
    ``InversionFS``).  The one rule for a failure: if the body or the
    commit raises while ``tx`` is still in progress, abort it and
    re-raise; if ``tx`` is already past that (a commit that failed
    after marking it committed), re-raise the error as it is — an abort
    there could only fail, hiding it."""
    tx = owner.begin()
    try:
        yield tx
        owner.commit(tx)
    except BaseException:
        if tx.state == IN_PROGRESS:
            owner.abort(tx)
        raise


class TransactionManager:
    """Allocates xids, records commit state, answers visibility calls.

    A writing commit is *enqueue, then release* (DESIGN.md, "Commit
    protocol"): :meth:`commit` queues the ``C`` record — the transaction
    is now visible in memory and may drop its locks — and the record
    becomes durable when its *group closes*: one commit sweep
    (:attr:`sweep`), one forced append of every queued record, then the
    work that waited for the force.  Data-then-status holds per group,
    and records reach the file in lock-release order, so none precedes
    one it depends on.  ``group_commit_window`` (simulated seconds) is
    how long a group stays open: with the default 0.0 it closes inside
    :meth:`commit` (the paper's protocol); otherwise once the window
    has elapsed (checked at the next begin/commit), on
    :meth:`flush_commits`, and before any ``P`` or ``C`` forced outside
    the queue, never for an ``A``.  A crash loses the open group.  A
    close nobody waits for — a window-expired group, a resolved ``C`` —
    is written by the drives behind the clock; everything else, and
    :meth:`flush_commits`, waits for them.  An expired group waits for
    the drives too: it stays open, collecting commits, until they have
    written the last one, so no begin or commit drains for it."""

    def __init__(self, device: DeviceManager, clock: SimClock,
                 group_commit_window: float = 0.0) -> None:
        self._device = device
        self._clock = clock
        self.group_commit_window = group_commit_window
        self.stats = TxStats()
        #: the session's Observability bundle (set by Database).
        self.obs = None
        self._records: dict[int, _TxRecord] = {
            BOOTSTRAP_XID: _TxRecord(COMMITTED, 0.0, 0.0),
        }
        self._next_xid = FIRST_NORMAL_XID
        self._durable_hwm = FIRST_NORMAL_XID
        self._recovered_in_progress = 0
        self._recovered_in_doubt = 0
        self._torn_tail = 0
        #: the open group: queued (xid, record-text) pairs, in
        #: lock-release order, and what waits for their force.
        self._pending: list[tuple[int, str]] = []
        self._batch_deadline: float | None = None
        self._after_force: list[Callable[[], None]] = []
        #: closed groups whose lag is not booked yet (:meth:`_book_lags`).
        self._unbooked: list[tuple[list, list[float]]] = []
        #: the commit sweep, ``fn() -> pages written``: the database
        #: binds ``BufferCache.flush_all``.
        self.sweep: Callable[[], int] | None = None
        #: ``fn() -> DiskModels`` the sweep and the force charge: the
        #: database binds :meth:`~repro.db.database.Database.drives`.
        #: A close nobody waits for runs behind the clock on them.
        self.drives: Callable[[], list] = list
        #: highest committed xid whose C record is durable on the status
        #: file — the horizon replication lag is measured against (a
        #: queued group-commit record is visible but not yet durable, so
        #: it does not advance this).
        self._max_durable_committed = 0
        #: (status file up to its last newline, the records parsed from
        #: it, the highest xid and the highest committed xid it names)
        #: as of the last :meth:`refresh`; a manager that never
        #: refreshes keeps nothing.
        self._parsed = _NOTHING_PARSED
        self._load()
        #: ``_next_xid`` when the last group closed: the xids handed
        #: out since size the next close's hwm top-up.
        self._xid_at_close = self._next_xid

    # -- persistence ----------------------------------------------------

    @staticmethod
    def _parse_line(line: str) -> list[tuple[int, _TxRecord]]:
        """Parse one status-file line, which may carry several records
        (a group-commit force appends all its ``C`` records as one
        line); raises on anything left over or malformed.  A later
        ``C``/``A`` for the same xid supersedes its ``P`` (the
        coordinator's decision resolved the in-doubt transaction)."""
        tokens = line.split()
        out: list[tuple[int, _TxRecord]] = []
        i = 0
        while i < len(tokens):
            xid, rec, i = _parse_record(tokens, i)
            out.append((xid, rec))
        return out

    @staticmethod
    def _parse_torn_tail(line: str) -> tuple[list[tuple[int, _TxRecord]],
                                             int]:
        """Parse the final, newline-less line left by a crash mid-append.
        Records wholly before the tear are durable and kept; the last
        record is always discarded — without the terminating newline its
        final token may itself be truncated (``0.25`` torn to ``0.2``
        still parses), so it cannot be trusted.  Discarding is safe:
        the transaction's data pages were forced before the append, and
        a commit record that never became durable means the transaction
        is presumed aborted.  That holds for a ``P`` record too: the
        2PC coordinator only records its commit decision *after* every
        prepare force returned.

        Returns (kept records, highest xid glimpsed) — the glimpsed xid
        includes the discarded record, so even a torn tail keeps its
        xid from being reissued."""
        tokens = line.split()
        out: list[tuple[int, _TxRecord]] = []
        max_glimpsed = 0
        i = 0
        while i < len(tokens):
            try:
                xid, rec, i = _parse_record(tokens, i)
            except IndexError:
                # The record the tear cut short: salvage its xid if
                # readable.
                try:
                    max_glimpsed = max(max_glimpsed, int(tokens[i + 1]))
                except (IndexError, ValueError):
                    pass
                break
            except ValueError:
                break
            out.append((xid, rec))
        if out:
            max_glimpsed = max(max_glimpsed, out[-1][0])
        return out[:-1], max_glimpsed

    def _load(self, keep: bool = False) -> None:
        """Read the status file into the record map.  Lines up to the
        last newline that the previous kept load parsed are not parsed
        again (:attr:`_parsed`), as long as the file still starts with
        them; ``keep`` keeps this load's for the next.  A torn tail is
        parsed every time and never kept."""
        raw = self._device.read_meta(STATUS_TAG) or b""
        prefix, kept, max_seen, max_committed = self._parsed
        if not raw.startswith(prefix):
            prefix, kept, max_seen, max_committed = _NOTHING_PARSED
        records = dict(kept)
        end = raw.rfind(b"\n") + 1
        for line in raw[len(prefix):end].decode(
                "ascii", errors="replace").split("\n"):
            if not line:
                continue
            try:
                parsed = self._parse_line(line)
            except (IndexError, ValueError) as exc:
                raise RecoveryError(
                    f"corrupt status record {line!r}") from exc
            for xid, rec in parsed:
                records[xid] = rec
                max_seen = max(max_seen, xid)
                if rec.state == COMMITTED and xid > max_committed:
                    max_committed = xid
        if keep:
            self._parsed = (raw[:end], records, max_seen, max_committed)
            records = dict(records)
        self._records = records
        tail = raw[end:].decode("ascii", errors="replace")
        if tail:
            self._torn_tail = 1
            parsed, glimpsed = self._parse_torn_tail(tail)
            max_seen = max(max_seen, glimpsed)
            for xid, rec in parsed:
                self._records[xid] = rec
                max_seen = max(max_seen, xid)
                if rec.state == COMMITTED and xid > max_committed:
                    max_committed = xid
        self._max_durable_committed = max_committed
        hwm_raw = self._device.read_meta(XID_HWM_TAG)
        hwm = int(hwm_raw.decode("ascii")) if hwm_raw else FIRST_NORMAL_XID
        self._next_xid = max(max_seen + 1, hwm)
        self._durable_hwm = hwm
        # xids below the high-water mark with no status record belong to
        # transactions that were in progress (or read-only) at a crash:
        # they are presumed aborted by the visibility rules.
        self._recovered_in_progress = sum(
            1 for xid in range(FIRST_NORMAL_XID, max_seen + 1)
            if xid not in self._records)
        # Prepared transactions with no later C/A record are *in doubt*:
        # their fate belongs to the 2PC coordinator's decision log, and
        # cluster-level recovery must resolve them before serving reads.
        self._recovered_in_doubt = sum(
            1 for rec in self._records.values() if rec.state == PREPARED)
        # Force the high-water mark ahead of need — begin() then
        # allocates from headroom instead of stalling on a stride
        # boundary.
        if self._durable_hwm - self._next_xid < XID_HWM_STRIDE:
            self._force_hwm()

    def _force_hwm(self, ahead: int = XID_HWM_STRIDE) -> None:
        """Durably advance the xid high-water mark ``ahead`` xids past
        the next xid.  Called ahead of need (at load, and by
        piggybacking on status forces and group closes when headroom
        runs low), so the hard floor in ``begin`` almost never pays
        this on the allocation path."""
        hwm = self._next_xid + ahead
        self._device.sync_write_meta(XID_HWM_TAG, str(hwm).encode("ascii"))
        self._durable_hwm = hwm
        self.stats.hwm_forces += 1

    # -- group commit ----------------------------------------------------

    def _append_status(self, records: list[tuple[int, str]],
                       ncommits: int, naborts: int | None = None) -> None:
        """Durably append ``records`` as one forced multi-record line.
        ``naborts`` defaults to the non-commit remainder; prepare
        forces pass 0 so P records are counted in their own family."""
        if not records:
            return
        if naborts is None:
            naborts = len(records) - ncommits
        obs = self.obs
        line = " ".join(text for _, text in records) + "\n"
        span = obs.span("txn.status_force", records=len(records),
                        commits=ncommits) \
            if obs is not None and obs.tracer.enabled else NO_SPAN
        with span:
            self._device.sync_append_meta(STATUS_TAG, line.encode("ascii"))
        if obs is not None:
            obs.tx.charge("status_forces")
        self.stats.status_forces += 1
        self.stats.commits_recorded += ncommits
        self.stats.aborts_recorded += naborts
        self.stats.prepares_recorded += len(records) - ncommits - naborts
        if ncommits > self.stats.max_group:
            self.stats.max_group = ncommits
        if ncommits > 1:
            self.stats.group_batches += 1
        for xid, text in records:
            if text.startswith("C ") and xid > self._max_durable_committed:
                self._max_durable_committed = xid
        # The head is already parked in the metadata region: top up the
        # hwm here when headroom runs low, keeping the force out of
        # begin()'s allocation path.
        if self._durable_hwm - self._next_xid < XID_HWM_STRIDE // 4:
            self._force_hwm()

    def _own_record(self, xid: int) -> _TxRecord:
        """``xid``'s record, to be changed in place: one the last load
        parsed is copied first, so what the next refresh keeps is what
        the file says (on a replica a shipped record can share its xid
        with a local read-only transaction)."""
        rec = self._records[xid]
        if self._parsed[1].get(xid) is rec:
            rec = self._records[xid] = replace(rec)
        return rec

    def _precommit(self, tx: Transaction, after_force) -> None:
        """Stamp ``tx`` committed (visible in memory); queue its record."""
        rec = self._own_record(tx.xid)
        rec.state = COMMITTED
        rec.commit_time = self._clock.now()
        if tx.wrote:
            if not self._pending:
                self._batch_deadline = (rec.commit_time
                                        + self.group_commit_window)
            self._pending.append((tx.xid, _format_record(tx.xid, rec)))
            if after_force is not None:
                self._after_force.append(after_force)

    def _close_group(self, last: Transaction | None = None,
                     after_force=None) -> int:
        """Close the open group: sweep, force every queued record in
        one append, run what waited for it.  ``last`` is a committer
        with no window: it joins between sweep and force, so it is
        stamped once its pages are out, as the paper's protocol has it.
        Returns the records forced."""
        if last is None and not self._pending:
            return 0
        with self.obs.span("txn.group_close") if self.obs else NO_SPAN:
            if self.sweep is not None:
                self.stats.group_sweep_pages += self.sweep()
            if last is not None:
                self._precommit(last, after_force)
            pending, self._pending = self._pending, []
            after, self._after_force = self._after_force, []
            self._batch_deadline = None
            self._append_status(pending, len(pending))
            self._top_up_hwm()
        self.stats.group_closes += 1
        self.stats.group_size.observe(len(pending))
        self._unbooked.append(
            (unfinished(self.drives()),
             [self._records[xid].commit_time for xid, _ in pending]))
        self._book_lags()
        for fn in after:
            fn()
        return len(pending)

    def _book_lags(self) -> None:
        """Book each closed group's durability lag once the requests
        still pending at its close are settled (a read served ahead of
        one pushes its end back until then): to the last one's end, or
        to the close if none was pending.  Run at each close and flush,
        so a group is booked by the next one's close at the latest."""
        waiting = []
        for requests, commit_times in self._unbooked:
            if not settled(self.drives(), requests):
                waiting.append((requests, commit_times))
                continue
            durable = max([r.end for r in requests] or [self._clock.now()])
            for commit_time in commit_times:
                self.stats.durable_lag_seconds.observe(durable - commit_time)
        self._unbooked = waiting

    def _top_up_hwm(self) -> None:
        """At a group close, with the head in the metadata region: keep
        twice the xids handed out since the last close as headroom, so
        read-only begins between closes do not reach the hard floor.
        While that is 16 or fewer, :meth:`_append_status`'s top-up has
        left at least that much already."""
        used = self._next_xid - self._xid_at_close
        self._xid_at_close = self._next_xid
        if self._durable_hwm - self._next_xid < 2 * used:
            self._force_hwm(max(XID_HWM_STRIDE, 4 * used))

    def _maybe_close_group(self) -> None:
        """Close a group whose window has expired, once every drive has
        written what it was handed: until then the group stays open and
        collects commits, so no caller drains for the last flush and
        at most one is in flight.  Its committers returned at
        pre-commit, so the drives write it behind the clock
        (:func:`repro.sim.disk.queued`)."""
        now = self._clock.now()
        if self._batch_deadline is None or now < self._batch_deadline:
            return
        drives = self.drives()
        if any(drive.busy_until > now for drive in drives):
            return
        with queued(drives):
            self._close_group()

    def flush_commits(self) -> int:
        """Close the open group now (close and checkpoint call this;
        benchmarks call it to end a batch) and wait until every queued
        write is on the medium.  Returns the number of commit records
        forced."""
        forced = self._close_group()
        drain(self.drives())
        self._book_lags()
        return forced

    def pending_commit_xids(self) -> list[int]:
        """xids committed in memory whose status records are still
        queued (not yet durable) — the crash explorer uses this to
        compute which commits a crash may legitimately lose."""
        return [xid for xid, _ in self._pending]

    # -- transaction lifecycle --------------------------------------------

    def begin(self) -> Transaction:
        self._maybe_close_group()
        if self._next_xid >= self._durable_hwm:
            # Hard floor: never hand out an xid at or above the
            # durable high-water mark — after a crash it could be
            # reissued and resurrect invisible records.  The
            # ahead-of-need forcing keeps this branch cold.
            self.stats.hwm_floor_forces += 1
            self._force_hwm()
        xid = self._next_xid
        self._next_xid += 1
        start = self._clock.now()
        self._records[xid] = _TxRecord(IN_PROGRESS, start)
        return Transaction(xid=xid, start_time=start)

    def commit(self, tx: Transaction,
               after_force: Callable[[], None] | None = None) -> None:
        """Pre-commit ``tx`` onto the open group; ``after_force`` runs
        once that group's force has returned (physical drops).  The caller
        may now release the locks; with no window the group has closed."""
        tx.require_active()
        self._maybe_close_group()
        if tx.wrote and self.group_commit_window <= 0.0:
            self._close_group(tx, after_force)
        else:
            self._precommit(tx, after_force)
        tx.state = COMMITTED

    def abort(self, tx: Transaction) -> None:
        tx.require_active()
        self._decide(tx, commit=False)

    def _decide(self, tx: Transaction, commit: bool) -> None:
        """Stamp ``tx`` and force its final record at once, past the
        queue: an abort, or the decision on a prepared transaction."""
        rec = self._own_record(tx.xid)
        rec.gid = None
        if commit:
            self._close_group()
            rec.commit_time = self._clock.now()
        rec.state = COMMITTED if commit else ABORTED
        if tx.wrote:
            self._append_status([(tx.xid, _format_record(tx.xid, rec))],
                                int(commit))
        tx.state = rec.state
        if not commit:
            for hook in tx.abort_hooks:
                hook()

    # -- two-phase commit -------------------------------------------------

    def prepare(self, tx: Transaction, gid: str) -> None:
        """2PC phase one: durably record that this shard can commit
        ``tx`` whenever the coordinator of global transaction ``gid``
        says so.  The caller must have forced the transaction's dirty
        pages first (data-then-status, exactly like :meth:`commit`).
        The ``P`` record is forced immediately — never queued behind
        the group-commit window — because the coordinator's decision
        depends on it being durable; the open group is closed first
        so the status file stays in lock-release order."""
        tx.require_active()
        if " " in gid or "\n" in gid:
            raise TransactionError(f"malformed gid {gid!r}")
        self._close_group()
        rec = self._own_record(tx.xid)
        rec.state = PREPARED
        rec.gid = gid
        if tx.wrote:
            self._append_status([(tx.xid, _format_record(tx.xid, rec))],
                                0, 0)
        tx.state = PREPARED

    def resolve_prepared(self, tx: Transaction, commit: bool) -> None:
        """2PC phase two for a live prepared transaction: force the
        final ``C``/``A`` record per the coordinator's decision.  The
        commit record bypasses the group-commit queue (closing the open
        group first) — the decision is already durable on the
        coordinator, so delaying the local record would only widen the
        in-doubt window.  Nobody waits for a commit's record, though
        (the decision it carries is durable already): the drives write
        it behind the clock."""
        if tx.state != PREPARED:
            raise TransactionError(
                f"transaction {tx.xid} is {tx.state}, not prepared")
        with queued(self.drives() if commit else ()):
            self._decide(tx, commit)

    def resolve_in_doubt(self, xid: int, commit: bool) -> None:
        """Recovery-time resolution of an in-doubt transaction (one
        whose ``P`` record survived a crash with no final record).  The
        cluster recovery consults the coordinator's decision log and
        calls this; there is no live :class:`Transaction` object."""
        rec = self._records.get(xid)
        if rec is None or rec.state != PREPARED:
            state = "unknown" if rec is None else rec.state
            raise TransactionError(
                f"transaction {xid} is {state}, not in doubt")
        self._decide(Transaction(xid, rec.start_time, wrote=True), commit)

    def in_doubt(self) -> dict[int, str]:
        """xid → gid for every prepared transaction awaiting its
        coordinator's decision (in-memory or recovered from a ``P``
        record)."""
        return {xid: rec.gid for xid, rec in self._records.items()
                if rec.state == PREPARED and rec.gid is not None}

    # -- visibility queries ---------------------------------------------------

    def state(self, xid: int) -> str:
        rec = self._records.get(xid)
        if rec is None:
            # An xid we have no record of: it was in progress at a crash
            # and never committed — treated as aborted ("any changes
            # that were not committed before a system crash are
            # automatically detected and ignored").
            return ABORTED
        return rec.state

    def is_committed(self, xid: int) -> bool:
        return self.state(xid) == COMMITTED

    def commit_time(self, xid: int) -> float | None:
        rec = self._records.get(xid)
        if rec is None or rec.state != COMMITTED:
            return None
        return rec.commit_time

    # -- recovery ----------------------------------------------------------------

    def max_recorded_time(self) -> float:
        """The latest start/commit instant in the status file — a
        reopened database must resume its clock beyond this so new
        commits sort after all recorded history."""
        latest = 0.0
        for rec in self._records.values():
            latest = max(latest, rec.start_time, rec.commit_time or 0.0)
        return latest

    def rebind_device(self, device: DeviceManager) -> None:
        """Point the status file at a different device manager — the
        seam that lets the testkit interpose a fault-injecting proxy
        between the transaction manager and stable storage."""
        self._device = device

    # -- replication ------------------------------------------------------

    def durable_committed_xid(self) -> int:
        """Highest committed xid whose record is durable on the status
        file.  On a primary this is the horizon a replica can catch up
        to; on a replica (whose status file is byte-shipped from the
        primary) it is the published read horizon.  Local read-only
        transactions never touch it — they append no record."""
        return self._max_durable_committed

    def refresh(self) -> None:
        """Re-read the status file from the device, replacing the
        in-memory record map — the replica apply loop's visibility
        advance (:mod:`repro.replica`).  Every commit/abort/prepare the
        primary forced since the last refresh becomes visible here in
        one step; duplicate records in the file (a replayed sync round
        re-appends its status lines) collapse because records land in a
        dict keyed by xid, which is what makes re-applying a feed round
        idempotent."""
        if self._pending:
            raise TransactionError(
                "refresh() with queued group-commit records — a "
                "replica never commits writers, so nothing should "
                "be pending")
        live = {xid: rec for xid, rec in self._records.items()
                if rec.state == IN_PROGRESS}
        old_next = self._next_xid
        self._recovered_in_progress = 0
        self._recovered_in_doubt = 0
        self._torn_tail = 0
        self._batch_deadline = None
        self._load(keep=True)
        # Local in-progress (read-only) transactions survive the
        # reload; a shipped record for the same xid wins — it is the
        # primary's, and a colliding local transaction wrote nothing
        # so its visibility outcome is unchanged either way.
        for xid, rec in live.items():
            self._records.setdefault(xid, rec)
        if old_next > self._next_xid:
            self._next_xid = old_next

    def recovery_report(self) -> dict[str, int]:
        """Statistics from the last load — how many transactions in the
        status file were committed/aborted, how many were presumed
        aborted for lack of a record, and whether the status file ended
        in a torn (partially-written) record.  Recovery itself already
        happened inside :meth:`_load`; it is 'essentially instantaneous'
        because it is only this file read.  The crash-schedule explorer
        (:mod:`repro.testkit.explorer`) consumes this after every
        simulated crash."""
        committed = sum(1 for r in self._records.values() if r.state == COMMITTED)
        aborted = sum(1 for r in self._records.values() if r.state == ABORTED)
        return {"committed": committed, "aborted": aborted,
                "presumed_aborted": self._recovered_in_progress,
                "in_doubt": self._recovered_in_doubt,
                "torn_tail": self._torn_tail,
                "next_xid": self._next_xid}

"""The replica: applies the feed, serves read-only traffic, promotes.

A :class:`ReplicaServer` is a complete Inversion stack (its own
database directory, devices, buffer cache, transaction manager, clock)
that follows a primary's :class:`~repro.replica.feed.PrimaryFeed` and
answers read RPCs at a published **xid horizon** — the highest
committed transaction whose status record it has applied.

Sync protocol (one *round*)::

    entries, next_cursor, more = feed.pull(cursor, batch)   # ship
    apply the entries to the local devices, one sweep        # replay
    per segment between drop / rename / meta entries
    refresh the frames the round touched, drop the catalog
    caches, re-read the status file                          # advance
    durably save next_cursor on the local root device        # restart
    feed.ack(replica_id, next_cursor)                        # ack

The buffer cache survives a round: a shipped page image replaces a
resident frame's bytes in place, a created, dropped or renamed relation
loses its frames, and every other frame stays warm — the round's
entries name every page it rewrote.  The ack lets the primary trim its
log to the slowest replica's cursor, and the replica forgets the
entries it retained for a promotion below the feed's new base.

The cursor is saved only *after* the whole round applied, so a replica
that dies mid-round re-pulls the same round on reconnect.  That is safe
because apply is **idempotent**: create/drop/rename/extend install a
state rather than perform an action (guards make re-execution a no-op),
page writes re-write the same bytes, and a re-appended status line
collapses in :meth:`~repro.db.transactions.TransactionManager.refresh`
because records land in a dict keyed by xid.

Read-only enforcement sits at the RPC boundary: mutating methods raise
:class:`~repro.errors.ReplicaReadOnlyError` until :meth:`promote` lifts
the restriction.  Local read transactions are safe — a transaction that
writes nothing appends nothing to the status file (``tx.wrote`` gates
every status append), so the shipped status file stays byte-identical
to the primary's.
"""

from __future__ import annotations

import os

from repro.core.filesystem import InversionFS
from repro.core.protocol import VERBS, WRITE
from repro.core.server import InversionServer
from repro.db.buffer import sweep_runs
from repro.db.catalog import OID_HWM_TAG
from repro.db.database import Database
from repro.db.page import PAGE_HEAP, Page
from repro.errors import ReplicaError, ReplicaReadOnlyError
from repro.replica.backup import clone_database
from repro.replica.feed import FeedEntry, PrimaryFeed, ReplStats
from repro.sim.clock import SimClock

#: metadata tag holding the replica's durable feed cursor (on the
#: replica's own root device — never shipped anywhere).
REPL_CURSOR_TAG = "repl_cursor"

#: feed entries per sync round.
DEFAULT_BATCH_ENTRIES = 256


class ReplicaServer(InversionServer):
    """A promotable read-only replica behind the ordinary RPC surface.

    Construction goes through :meth:`seed` (base backup from a live
    primary) or :meth:`reopen` (restart from an existing replica
    directory, resuming at the durable cursor)."""

    def __init__(self, fs: InversionFS, feed: PrimaryFeed | None,
                 replica_id: str, cursor: int,
                 batch_entries: int = DEFAULT_BATCH_ENTRIES,
                 staleness_xids: int | None = None) -> None:
        super().__init__(fs)
        self.db = fs.db
        self.feed = feed
        self.replica_id = replica_id
        self.cursor = cursor
        self.batch_entries = batch_entries
        #: bounded-staleness contract: when set, a read arriving while
        #: the replica is more than this many xids behind the primary's
        #: durable horizon triggers a catch-up sync before being served.
        self.staleness_xids = staleness_xids
        self.read_only = True
        self.stats: ReplStats = feed.stats if feed is not None else ReplStats()
        #: entries applied since this replica was seeded/reopened,
        #: retained so a promotion can seed its own feed with them and
        #: surviving followers resume from their cursors un-reseeded;
        #: those below the feed's base are dropped after each ack.
        self._retained: list[FeedEntry] = []
        self._retain_base = cursor

    # -- construction -----------------------------------------------------

    @classmethod
    def seed(cls, feed: PrimaryFeed, replica_path: str, replica_id: str,
             clock: SimClock | None = None,
             batch_entries: int = DEFAULT_BATCH_ENTRIES,
             staleness_xids: int | None = None) -> "ReplicaServer":
        """Checkpoint the primary, take a base backup at the feed's
        current position, and return a caught-up replica."""
        feed.checkpoint()
        cursor = feed.next_seq
        db = clone_database(feed.db, replica_path, clock=clock)
        fs = InversionFS.attach(db)
        replica = cls(fs, feed, replica_id, cursor,
                      batch_entries=batch_entries,
                      staleness_xids=staleness_xids)
        db.obs.metrics.mirror_all(replica.stats)
        replica._save_cursor()
        feed.ack(replica_id, cursor)
        return replica

    @classmethod
    def reopen(cls, feed: PrimaryFeed | None, replica_path: str,
               replica_id: str, clock: SimClock | None = None,
               batch_entries: int = DEFAULT_BATCH_ENTRIES,
               staleness_xids: int | None = None) -> "ReplicaServer":
        """Restart a replica from its directory, resuming at the
        durable cursor — never rescanning from zero."""
        db = Database.open(replica_path, clock=clock)
        fs = InversionFS.attach(db)
        root = db.switch.get(db.switch.default_name)
        raw = root.read_meta(REPL_CURSOR_TAG)
        if raw is None:
            raise ReplicaError(
                f"{replica_path} has no saved feed cursor — not a replica")
        replica = cls(fs, feed, replica_id, int(raw.decode("ascii")),
                      batch_entries=batch_entries,
                      staleness_xids=staleness_xids)
        db.obs.metrics.mirror_all(replica.stats)
        return replica

    def rebind_feed(self, feed: PrimaryFeed) -> None:
        """Follow a different primary (after a failover promoted a
        sibling).  The cursor carries over — feed positions are global
        entry sequence numbers, and the promoted primary seeded its
        feed with the entries it had applied."""
        self.feed = feed
        self.stats = feed.stats
        self.db.obs.metrics.mirror_all(self.stats)

    # -- the apply loop ---------------------------------------------------

    def _apply_round(self, entries: list[FeedEntry]) -> None:
        """Replay a round as segments split at ``drop``, ``rename`` and
        ``meta`` entries, each of which applies alone, in feed order."""
        segment: list[FeedEntry] = []
        for entry in entries:
            if entry.kind in ("drop", "rename", "meta"):
                self._apply_segment(segment)
                segment = []
                self._apply_entry(entry)
            else:
                segment.append(entry)
        self._apply_segment(segment)

    def _apply_segment(self, entries: list[FeedEntry]) -> None:
        """One sweep over a run of ``create`` / ``extend`` / ``page`` /
        ``append`` entries: the creates and extends in feed order, then
        each page's last image once — heap pages before index pages, in
        the commit sweep's own order and runs
        (:func:`~repro.db.buffer.sweep_runs` says why) — then one forced
        append per status tag, holding the segment's records in feed
        order.  No record reaches the medium before every page it could
        make visible, and a page image of a transaction whose record
        has not is invisible, as on the primary between its sweep and
        its force."""
        switch = self.db.switch
        pages: dict[tuple, bytes] = {}
        appends: dict[tuple, list[bytes]] = {}
        for entry in entries:
            if entry.kind == "page":
                pages[(entry.dev, entry.a, entry.b)] = entry.payload
            elif entry.kind == "append":
                appends.setdefault((entry.dev, entry.a), []).append(
                    entry.payload)
            else:
                self._apply_entry(entry)
        for dev_name, relname, pageno in pages:
            dev = switch.get(dev_name)
            while dev.nblocks(relname) <= pageno:
                dev.extend(relname)
        images = [(key, data, Page(data).flags & PAGE_HEAP)
                  for key, data in pages.items()]
        for dev_name, relname, start, datas in sweep_runs(switch, images):
            switch.get(dev_name).write_pages(relname, start, datas)
        for (dev_name, tag), records in appends.items():
            # Re-appending on replay leaves duplicate records in the
            # file; they collapse at refresh() because records land in
            # a dict keyed by xid.
            switch.get(dev_name).sync_append_meta(tag, b"".join(records))

    def _apply_entry(self, entry: FeedEntry) -> None:
        """Replay one durable mutation.  Every branch is *ensure*
        semantics, so re-executing a half-applied round converges."""
        dev = self.db.switch.get(entry.dev)
        kind = entry.kind
        if kind == "create":
            if not dev.relation_exists(entry.a):
                dev.create_relation(entry.a)
        elif kind == "drop":
            if dev.relation_exists(entry.a):
                dev.drop_relation(entry.a)
        elif kind == "rename":
            # The device contract makes a replayed rename (src already
            # gone, dst present) a completed no-op.
            dev.rename_relation(entry.a, entry.b)
        elif kind == "extend":
            while dev.nblocks(entry.a) <= entry.b:
                dev.extend(entry.a)
        elif kind == "meta":
            dev.sync_write_meta(entry.a, entry.payload)
            if entry.a == OID_HWM_TAG:      # promoted, allocate past it
                catalog = self.db.catalog
                catalog._next_oid = max(catalog._next_oid, int(entry.payload))
        else:
            raise ReplicaError(f"unknown feed entry kind {kind!r}")

    def _post_apply(self, entries: list[FeedEntry]) -> None:
        """Advance visibility after a round.  The buffer cache follows
        the round's own entries: a shipped page image replaces a
        resident frame's bytes in place (a page not resident stays
        out), a created, dropped or renamed relation loses the frames
        under every name the entry mentions, and extend / meta / append
        entries touch no frame.  A read-only replica never dirties a
        frame; one that is dirty anyway could later be written back
        over a shipped page, so the round refuses it rather than
        discard it."""
        buffers = self.db.buffers
        dirty = buffers.dirty_pages()
        if dirty:
            dev, rel, pageno = dirty[0]
            raise ReplicaError(
                f"replica {self.replica_id} holds a dirty frame "
                f"({dev!r}, {rel!r}, {pageno}): a read-only replica "
                f"never writes a page")
        for entry in entries:
            kind = entry.kind
            if kind == "page":
                buffers.install(entry.dev, entry.a, entry.b, entry.payload)
            elif kind in ("create", "drop", "rename"):
                buffers.drop_relation(entry.dev, entry.a)
                if kind == "rename":
                    buffers.drop_relation(entry.dev, entry.b)
        self._advance()

    def _advance(self) -> None:
        """Drop both catalog caches (shipped pages changed pg_class and
        pg_index underneath them, and a round's entries do not say
        which rows moved), re-read the shipped status file, and resume
        the local clock past the newly visible history so local reads
        and a future promotion sort after it.  Client caches holding
        leases here drop everything: a round does not say which files
        it changed."""
        db = self.db
        db.catalog.invalidate_cache()
        db.tm.refresh()
        if self.leases is not None:
            self.leases.bump_all()
        resume_at = db.tm.max_recorded_time()
        if db.clock.now() < resume_at:
            db.clock.advance(resume_at - db.clock.now() + 1e-9)

    def _save_cursor(self) -> None:
        root = self.db.switch.get(self.db.switch.default_name)
        root.sync_write_meta(REPL_CURSOR_TAG,
                             str(self.cursor).encode("ascii"))
        self.stats.cursor_saves += 1

    def sync_round(self) -> tuple[int, bool]:
        """One pull/apply/save/ack round.  Returns (entries applied,
        more pending)."""
        if self.feed is None:
            raise ReplicaError(f"replica {self.replica_id} has no feed")
        entries, next_cursor, more = self.feed.pull(self.cursor,
                                                    self.batch_entries)
        if entries:
            self._apply_round(entries)
            self._post_apply(entries)
            self._retained.extend(entries)
            self.cursor = next_cursor
            self._save_cursor()
            self.stats.rounds += 1
            self.stats.entries_shipped += len(entries)
            self.stats.pages_shipped += sum(
                1 for e in entries if e.kind == "page")
            self.stats.bytes_shipped += sum(e.nbytes for e in entries)
        self.feed.ack(self.replica_id, self.cursor)
        # No follower can ask a promoted self for an entry below the
        # feed's base: every follower acked at least that far.
        drop = self.feed.base_seq - self._retain_base
        if drop > 0:
            del self._retained[:drop]
            self._retain_base = self.feed.base_seq
        self._sample_lag()
        return len(entries), more

    def sync(self) -> int:
        """Catch up fully: rounds until the feed has nothing more.
        Returns total entries applied."""
        total = 0
        while True:
            applied, more = self.sync_round()
            total += applied
            if not more:
                return total

    def _sample_lag(self) -> None:
        feed = self.feed
        primary_xid = feed.durable_horizon()
        replica_xid = self.horizon()
        self.stats.lag_xids = max(0, primary_xid - replica_xid)
        if primary_xid > replica_xid:
            ptime = feed.db.tm.commit_time(primary_xid)
            rtime = feed.db.tm.commit_time(replica_xid)
            if ptime is not None and rtime is not None:
                self.stats.lag_seconds = max(0.0, ptime - rtime)
        else:
            self.stats.lag_seconds = 0.0

    # -- reads ------------------------------------------------------------

    def horizon(self) -> int:
        """The published read horizon: the highest committed xid whose
        shipped status record this replica has applied."""
        return self.db.tm.durable_committed_xid()

    def dispatch(self, session_id: int, method: str, *args, **kwargs):
        # A read-only replica serves the protocol's transaction-control
        # and read verbs: ``p_begin``/``p_commit`` give clients a stable
        # multi-read snapshot; such transactions write nothing, so they
        # never touch the shipped status file.  ``p_query`` is a write
        # verb wholesale — POSTQUEL can mutate.
        verb = VERBS.get(method)
        if self.read_only and verb is not None:
            if verb.kind == WRITE:
                raise ReplicaReadOnlyError(
                    f"replica {self.replica_id} is read-only: {method!r} "
                    f"mutates (promote first, or route to the primary)")
            self.stats.replica_reads += 1
            if (self.staleness_xids is not None and self.feed is not None
                    and not self.in_transaction(session_id)):
                lag = self.feed.durable_horizon() - self.horizon()
                if lag > self.staleness_xids:
                    self.stats.staleness_syncs += 1
                    self.sync()
        return super().dispatch(session_id, method, *args, **kwargs)

    # -- promotion --------------------------------------------------------

    def promote(self) -> PrimaryFeed:
        """Become the primary.  If the old feed is still reachable (its
        durable log survives the primary process), a final catch-up
        round drains it first — the replica then recovers to exactly
        the state a local restart of the crashed primary would reach.
        Returns the new :class:`PrimaryFeed` this server now exports;
        surviving followers :meth:`rebind_feed` to it and resume from
        their cursors."""
        if not self.read_only:
            raise ReplicaError(f"{self.replica_id} is already a primary")
        followers: dict[str, int] = {}
        if self.feed is not None:
            self.sync()
            # The new feed trims to the slowest follower, so it must
            # know every follower's cursor before the first one acks.
            followers = {rid: cursor for rid, cursor
                         in self.feed.acked.items()
                         if rid != self.replica_id}
            self.feed = None
        self.read_only = False
        self.stats.promotions += 1
        new_feed = PrimaryFeed.attach(self.db, stats=self.stats,
                                      base_seq=self._retain_base,
                                      log=list(self._retained))
        new_feed.acked.update(followers)
        # Complete any vacuum relation swap the shipped journal left
        # half-done — the same replay Database.open performs — and only
        # now, through the tapped devices: the media is the log, so
        # what recovery writes here must reach the followers too, or
        # they keep the old relations and an armed journal.
        from repro.db.vacuum import replay_rename_journal
        root = self.db.switch.get(self.db.switch.default_name)
        if replay_rename_journal(self.db.switch, root):
            self.db.buffers.invalidate_all(write_dirty=False)
            self._advance()
        return new_feed

    # -- lifecycle --------------------------------------------------------

    def close(self) -> None:
        self.db.close()

    @property
    def path(self) -> str:
        return os.path.abspath(self.db.path)

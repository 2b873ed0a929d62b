"""The primary side of log shipping: the committed-delta feed.

The no-overwrite storage manager already *is* a replication log: commit
order is data-then-status, records of uncommitted transactions are
invisible, and the status file is append-only.  So a replica that
re-applies the primary's durable device writes **in the order they were
performed** inherits the primary's crash-consistency argument wholesale
— any prefix of the feed is a state the primary itself could have
crashed into, and the transaction status file decides visibility at
that point.

:class:`FeedTapDevice` is an interposing device-manager proxy (the same
switch-wrap seam the fault-injection testkit uses) that records every
*successful* durable mutation — page writes, metadata writes and
appends, relation create/drop/rename/extend — into the
:class:`PrimaryFeed` log, payload included, so a feed entry is
self-contained and replayable without touching the primary again.

:class:`PrimaryFeed` hands the log out in **batched, restartable sync
rounds**: a replica pulls from its cursor (a plain entry sequence
number), applies the batch, durably saves the advanced cursor on its
own root device, and acks.  Because the cursor is saved only after the
whole round applied, a replica that dies mid-round simply re-pulls the
same round — apply is idempotent (see :mod:`repro.replica.server`) —
and never rescans from zero.

Everything here is **off by default**: no ``PrimaryFeed.attach``, no
tap, no overhead, byte-identical benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.devices.base import DeviceManager, DeviceProxy
from repro.errors import FeedGapError
from repro.obs.registry import counter, gauge, metric_stats


@metric_stats("repl")
class ReplStats:
    """Plain counters, mirrored into every member's metrics registry by
    their owner (the hot paths keep integer bumps)."""

    rounds: int = counter(
        "ops", "Sync rounds completed (one pull + apply + durable "
        "cursor save + ack).")
    entries_shipped: int = counter(
        "ops", "Feed entries shipped to replicas across all rounds.")
    pages_shipped: int = counter(
        "pages", "Page-write entries shipped (the data volume of the "
        "no-overwrite feed).")
    bytes_shipped: int = counter(
        "bytes", "Payload bytes shipped to replicas (page images + "
        "status/meta blobs + entry headers).")
    cursor_saves: int = counter(
        "ops", "Durable replica-cursor writes (one forced meta write "
        "per applied round).")
    lag_xids: int = gauge(
        "xids", "Primary durable commit horizon minus the slowest "
        "replica's published horizon, at last sample.")
    lag_seconds: float = gauge(
        "seconds", "Commit-time gap (simulated seconds) between the "
        "primary's horizon transaction and the slowest "
        "replica's, at last sample.", default=0.0)
    promotions: int = counter(
        "ops", "Replicas promoted to primary after a failover.")
    replica_reads: int = counter(
        "calls", "RPC requests served by read-only replicas.")
    staleness_syncs: int = counter(
        "ops", "Reads that exceeded the bounded-staleness contract and "
        "triggered a catch-up sync round before being served.")


#: per-entry bookkeeping overhead charged on the wire (seq + kind +
#: names), so create/rename entries are not free.
ENTRY_HEADER_BYTES = 24


@dataclass(frozen=True)
class FeedEntry:
    """One durable mutation, self-contained and replay-exact.

    ======== ============== ========================== ===========
    kind     a              b                          payload
    ======== ============== ========================== ===========
    create   relname        —                          —
    drop     relname        —                          —
    rename   src relname    dst relname                —
    extend   relname        target pageno (int)        —
    page     relname        pageno (int)               page image
    meta     tag            —                          blob
    append   tag            —                          appended bytes
    ======== ============== ========================== ===========
    """

    seq: int
    dev: str
    kind: str
    a: str
    b: object = None
    payload: bytes | None = None

    @property
    def nbytes(self) -> int:
        n = ENTRY_HEADER_BYTES + len(self.a)
        if isinstance(self.b, str):
            n += len(self.b)
        if self.payload is not None:
            n += len(self.payload)
        return n


class PrimaryFeed:
    """The committed-delta feed of one primary database.

    The log keeps every entry since ``base_seq``, the slowest acked
    replica cursor: each :meth:`ack` trims below it (a promoted replica
    seeds the log with the entries it applied and the followers'
    cursors, so surviving followers resume without a re-seed).
    ``pull`` is read-only and side-effect-free on the primary: entries
    carry their payloads, so a round never races vacuum's relation
    swaps or drops."""

    def __init__(self, db, stats: ReplStats | None = None,
                 base_seq: int = 0, log: list | None = None) -> None:
        self.db = db
        self.stats = stats or ReplStats()
        self.base_seq = base_seq
        self.log: list[FeedEntry] = log if log is not None else []
        #: replica id -> highest acked cursor, for lag and trimming.
        self.acked: dict[str, int] = {}

    # -- wiring ----------------------------------------------------------

    @classmethod
    def attach(cls, db, stats: ReplStats | None = None,
               base_seq: int = 0, log: list | None = None) -> "PrimaryFeed":
        """Interpose :class:`FeedTapDevice` over every device of ``db``
        and return the feed.  This is the *only* way replication state
        enters a database — never called at defaults."""
        feed = cls(db, stats=stats, base_seq=base_seq, log=log)
        db.wrap_devices(lambda inner: FeedTapDevice(inner, feed))
        return feed

    @property
    def next_seq(self) -> int:
        return self.base_seq + len(self.log)

    def _record(self, dev: str, kind: str, a: str, b=None,
                payload: bytes | None = None) -> None:
        self.log.append(FeedEntry(self.next_seq, dev, kind, a, b, payload))

    # -- the ship/ack protocol --------------------------------------------

    def pull(self, cursor: int, max_entries: int
             ) -> tuple[list[FeedEntry], int, bool]:
        """One sync round: up to ``max_entries`` entries starting at
        ``cursor``.  Returns ``(entries, next_cursor, more)``; ``more``
        tells the replica to keep pulling before publishing itself as
        caught up."""
        if cursor < self.base_seq:
            raise FeedGapError(
                f"cursor {cursor} below feed base {self.base_seq}: "
                f"re-seed the replica from a new base backup")
        if cursor > self.next_seq:
            raise FeedGapError(
                f"cursor {cursor} ahead of feed end {self.next_seq}: "
                f"the replica followed a longer history than this "
                f"primary (promote the most caught-up replica)")
        lo = cursor - self.base_seq
        entries = self.log[lo:lo + max_entries]
        next_cursor = cursor + len(entries)
        return entries, next_cursor, next_cursor < self.next_seq

    def ack(self, replica_id: str, cursor: int) -> None:
        """Record a replica's durable cursor and trim the log to the
        slowest acked one, so the log holds only what some replica has
        yet to apply."""
        self.acked[replica_id] = cursor
        self.trim()

    def trim(self) -> int:
        """Drop entries every known replica has acked.  Returns the
        number dropped.  A replica that reconnects below the new base
        gets :class:`FeedGapError` and must re-seed."""
        if not self.acked:
            return 0
        floor = min(self.acked.values())
        drop = max(0, floor - self.base_seq)
        if drop:
            del self.log[:drop]
            self.base_seq = floor
        return drop

    # -- horizons ----------------------------------------------------------

    def durable_horizon(self) -> int:
        """Highest committed xid durable on the primary's status file —
        what a fully caught-up replica will publish."""
        return self.db.tm.durable_committed_xid()

    def checkpoint(self) -> None:
        """Force everything volatile down to the devices (and hence
        into the feed): dirty buffer pages, queued group-commit records,
        device-private caches.  A base backup is taken right after."""
        self.db.buffers.flush_all()
        self.db.tm.flush_commits()
        self.db.switch.flush_all()


class FeedTapDevice(DeviceProxy):
    """Interposing proxy recording every successful durable mutation
    into the feed log, payload included; reads and everything else are
    :class:`DeviceProxy`'s delegation.

    Ordering note for the failover testkit: the fault-injecting
    :class:`~repro.testkit.faults.FaultyDevice` wraps *outside* this tap
    (``wrap_devices`` stacks proxies), so a write the simulated crash
    suppressed never reaches the tap — the feed only ever contains
    writes that reached the media, exactly like a physical log."""

    def __init__(self, inner: DeviceManager, feed: PrimaryFeed) -> None:
        super().__init__(inner)
        self.feed = feed

    def create_relation(self, relname: str) -> None:
        self.inner.create_relation(relname)
        self.feed._record(self.name, "create", relname)

    def drop_relation(self, relname: str) -> None:
        self.inner.drop_relation(relname)
        self.feed._record(self.name, "drop", relname)

    def rename_relation(self, src: str, dst: str) -> None:
        self.inner.rename_relation(src, dst)
        self.feed._record(self.name, "rename", src, dst)

    def extend(self, relname: str) -> int:
        pageno = self.inner.extend(relname)
        self.feed._record(self.name, "extend", relname, pageno)
        return pageno

    def write_pages(self, relname: str, start: int,
                    datas: list[bytes]) -> None:
        self.inner.write_pages(relname, start, datas)
        for pageno, data in enumerate(datas, start):
            self.feed._record(self.name, "page", relname, pageno,
                              bytes(data))

    def sync_write_meta(self, tag: str, data: bytes) -> None:
        self.inner.sync_write_meta(tag, data)
        self.feed._record(self.name, "meta", tag, payload=bytes(data))

    def sync_append_meta(self, tag: str, data: bytes) -> None:
        self.inner.sync_append_meta(tag, data)
        self.feed._record(self.name, "append", tag, payload=bytes(data))

    def describe(self) -> dict[str, object]:
        row = self.inner.describe()
        row["feed_tap"] = True
        return row

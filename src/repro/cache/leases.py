"""Server-side lease/epoch bookkeeping for client caches.

Inversion's remote protocol is strictly request/response, so cache
invalidation piggybacks on it: the server keeps a per-object *epoch*
(a version counter) for every name and file object a mutation touches,
and every subscribed session has a notice channel that accumulates
``(kind, key, epoch)`` invalidation notices.  A client drains its
channel after every RPC and polls it before serving anything from
cache, so a stale entry is dropped before the next use — the
NFS/HopsFS lease idea without a callback wire.

Ordering is the whole correctness story, and it has two halves:

- **Visibility before notices.**  Bumps raised inside a transaction are
  *queued* against its xid and only emitted once
  :meth:`~repro.core.filesystem.InversionFS.commit` has made the
  mutation visible (:meth:`flush_tx`).  Emitting at mutation time would
  let another session re-read (and re-cache) the *old* committed value
  between the notice and the commit, re-poisoning its cache with no
  further notice to drop it.  Aborted transactions flush too — a
  spurious notice merely drops a valid entry (over-invalidation is
  always safe); a missing one is a stale read.
- **Drop before fill.**  Clients compare the invalidation sequence
  number around every RPC and skip caching that RPC's result when a
  notice arrived while it was in flight (see
  :class:`~repro.cache.client.ClientCache`).

Channels are bounded: past :data:`MAX_PENDING` undrained notices a
channel collapses to a single ``("all", "", epoch)`` flush marker —
the client loses precision, never correctness.  Revocation (session
disconnect, cluster in-doubt recovery) removes the channel entirely;
:meth:`poll` then returns ``None`` and the client must drop its whole
cache and stop serving.

Everything here is plain dict work: no device I/O, no simulated-clock
advance — which is what keeps crash-write boundaries and benchmark
timings byte-identical whether or not leases are enabled.
"""

from __future__ import annotations

from repro.obs.registry import counter, metric_stats

#: epochs live in 32-bit serial-number space (RFC 1982 style), so the
#: counter can run forever; compare with :func:`epoch_newer`.
EPOCH_MODULUS = 2 ** 32

#: undrained notices a channel holds before collapsing to one
#: ``("all", "", epoch)`` flush marker.
MAX_PENDING = 1024


def normalize_path(path: str) -> str:
    """Canonical form of a path — mirrors
    :func:`repro.core.naming.split_path` (empty components dropped), so
    ``/a//b/`` and ``/a/b`` hit the same cache key."""
    return "/" + "/".join(p for p in path.split("/") if p)


def epoch_newer(a: int, b: int) -> bool:
    """Is epoch ``a`` newer than ``b`` in serial-number arithmetic?
    Correct across wraparound as long as the two are within half the
    modulus of each other (channels bound the drift far tighter)."""
    return (a - b) % EPOCH_MODULUS < EPOCH_MODULUS // 2 and a != b


@metric_stats("cache")
class LeaseStats:
    """Lease-manager lifetime counters."""

    lease_bumps: int = counter(
        "ops", "Object-epoch bumps emitted by committed (or aborted, "
        "conservatively) mutations.")
    lease_notices: int = counter(
        "msgs", "Invalidation notices appended to subscribed sessions' "
        "channels (one bump fans out to every subscriber).")
    lease_grants: int = counter(
        "ops", "Name-resolution grants piggybacked on p_open/p_creat "
        "replies (they pre-fill the client's path cache).")
    lease_revocations: int = counter(
        "ops", "Session lease revocations: disconnects, explicit "
        "revoke_all sweeps, and cluster in-doubt recovery.")


class _Channel:
    """One subscriber's pending-notice queue."""

    __slots__ = ("pending",)

    def __init__(self) -> None:
        self.pending: list[tuple] = []

    def append(self, notice: tuple, epoch: int) -> None:
        if self.pending and self.pending[0][0] == "all":
            # An undrained full-flush marker makes everything behind it
            # redundant (the client clears every tier applying it, and
            # grants in a non-quiet batch are ignored anyway) — just
            # keep the marker's epoch current.
            self.pending = [("all", "", epoch)]
            return
        if len(self.pending) >= MAX_PENDING:
            # Precision exhausted: collapse to one full-flush marker.
            self.pending = [("all", "", epoch)]
            return
        self.pending.append(notice)


class LeaseManager:
    """Per-server epoch registry and notice fan-out.

    Keys are two-space: ``("name", path)`` for namespace mutations
    (create, unlink, rename, mkdir, rmdir) and ``("oid", fileid)`` for
    data/attribute mutations (writes, fileatt updates/removals).  The
    two spaces are independent on purpose — a rename moves a name but
    leaves the object's attributes and chunks valid, and every cached
    att/chunk access routes through a path-tier lookup first, so no
    cross-tier cascade is needed.
    """

    def __init__(self) -> None:
        #: global epoch counter (mod :data:`EPOCH_MODULUS`).
        self.epoch = 0
        #: ``(kind, key)`` -> epoch of its last bump.
        self.epochs: dict[tuple, int] = {}
        self._channels: dict[int, _Channel] = {}
        #: xid -> ordered {(kind, key): True} of bumps queued until the
        #: transaction's visibility point (dict = dedup + order).
        self._tx_pending: dict[int, dict[tuple, bool]] = {}
        self.stats = LeaseStats()

    # -- subscription ----------------------------------------------------

    def subscribe(self, session_id: int) -> None:
        """Open (or reset) the session's notice channel."""
        self._channels[session_id] = _Channel()

    def subscribed(self, session_id: int) -> bool:
        return session_id in self._channels

    def poll(self, session_id: int) -> list[tuple] | None:
        """Drain the session's pending notices.  ``None`` means the
        session holds no lease (never subscribed, or revoked): the
        caller must drop its entire cache and stop serving."""
        channel = self._channels.get(session_id)
        if channel is None:
            return None
        out = channel.pending
        channel.pending = []
        return out

    def revoke(self, session_id: int) -> bool:
        """Drop the session's channel (disconnect/crash path)."""
        if self._channels.pop(session_id, None) is None:
            return False
        self.stats.lease_revocations += 1
        return True

    def revoke_all(self) -> int:
        """Expire every outstanding lease (cluster in-doubt recovery)."""
        return sum(1 for sid in list(self._channels) if self.revoke(sid))

    # -- bumps -----------------------------------------------------------

    def bump_name(self, path: str, tx=None) -> None:
        self._bump("name", normalize_path(path), tx)

    def bump_oid(self, fileid: int, tx=None) -> None:
        self._bump("oid", fileid, tx)

    def bump_all(self, tx=None) -> None:
        """Conservative global invalidation — used for POSTQUEL queries,
        whose mutation statements bypass the file-system hooks."""
        self._bump("all", "", tx)

    def _bump(self, kind: str, key, tx) -> None:
        if tx is not None:
            # Queue until the transaction's visibility point; flush_tx
            # (called from fs.commit/abort/finish_prepared) emits.
            self._tx_pending.setdefault(tx.xid, {})[(kind, key)] = True
            return
        self._emit(kind, key)

    def flush_tx(self, xid: int) -> None:
        """Emit every bump queued under ``xid`` — call *after* the
        transaction's outcome is durable/visible."""
        pending = self._tx_pending.pop(xid, None)
        if not pending:
            return
        for kind, key in pending:
            self._emit(kind, key)

    def _emit(self, kind: str, key) -> None:
        self.epoch = (self.epoch + 1) % EPOCH_MODULUS
        self.epochs[(kind, key)] = self.epoch
        self.stats.lease_bumps += 1
        notice = (kind, key, self.epoch)
        for channel in self._channels.values():
            channel.append(notice, self.epoch)
            self.stats.lease_notices += 1

    # -- grants ----------------------------------------------------------

    def grant(self, session_id: int, path: str, fileid: int) -> None:
        """Piggyback a name→oid resolution on an open/creat reply: the
        session may pre-fill its path cache without a stat RPC.  Clients
        only trust a grant from a notice batch that carried no
        invalidations (the resolution could predate an in-flight
        mutation's notice in wall order)."""
        channel = self._channels.get(session_id)
        if channel is None:
            return
        channel.append(("grant", normalize_path(path), fileid, self.epoch),
                       self.epoch)
        self.stats.lease_grants += 1

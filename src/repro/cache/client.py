"""Client-side cache tiers: path→oid resolution, fileatt, chunk data.

:class:`ClientCache` is the session-local half of the lease protocol in
:mod:`repro.cache.leases`.  It keeps four bounded LRU tiers:

- ``paths``   — name→oid resolutions (cuts server B-tree descents),
- ``negative``— names known absent (ENOENT caching for failed lookups),
- ``atts``    — fileatt rows keyed by oid,
- ``chunks``  — chunk payloads keyed by ``(oid, chunkno)``.

All tiers serve only *auto-commit* traffic: inside an explicit
transaction the client always goes to the server (the server's own
snapshot isolation is the correctness story there), and in-transaction
results are never cached (they may be rolled back) — the link refuses
both.

Coherence rules, and who enforces each:

1. **Poll before serve** — the lease channel is drained and its
   notices applied before any tier is consulted.  Enforced by
   :meth:`repro.cache.link.SessionLink.ready`, the only doorway to the
   lookups below; nothing else in ``src/`` calls them.
2. **Drop before fill** — a reply is cached only if :attr:`inval_seq`
   did not move while its request was in flight; a notice that raced
   the request means the reply may predate the writer's commit.
   Enforced by the link too: ``call`` notes the sequence number on the
   way out and every fill goes through its check.
3. **Grants only from quiet batches** — :meth:`apply_notices` ignores
   piggybacked name grants when the same batch carried any
   invalidation (the grant could be staler than the notice).
   Enforced here.
4. **Revocation is terminal** — once :meth:`revoke` runs (server
   forgot/expired the lease, or the session disconnected) every tier
   is dropped and the cache refuses to serve or fill again.  Enforced
   here.

This class is therefore storage plus rules 3–4: tiers, LRU bounds,
notice application.  *When* to look and *when* to fill is
:mod:`repro.cache.link`.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.core.chunks import CHUNK_SIZE
from repro.obs.registry import counter, metric_stats

from repro.cache.leases import normalize_path


@metric_stats("cache")
class CacheStats:
    """Lifetime counters for one cache (or a set of caches sharing one
    registry — the scheduler and the sharded client deliberately share
    a single instance across sessions/shards so the mirrored metric
    reflects the whole run)."""

    hits: dict = counter(
        "ops", "Client-cache hits served without a server RPC, by tier "
        "(att, negative, chunk, seek, and open: a read-only open "
        "outside a transaction, or a write-mode open inside one, "
        "answered with a link-local descriptor).", labels=("tier",))
    misses: dict = counter(
        "ops", "Cache-eligible requests that still went to the server, "
        "by tier (att, chunk).", labels=("tier",))
    invalidations: int = counter(
        "ops", "Cache entries dropped by lease invalidation notices.")
    evictions: int = counter(
        "ops", "Cache entries evicted by the LRU capacity bound.")

    def hit(self, tier: str) -> None:
        self.hits[tier] = self.hits.get(tier, 0) + 1

    def miss(self, tier: str) -> None:
        self.misses[tier] = self.misses.get(tier, 0) + 1


class ClientCache:
    """Bounded, lease-coherent cache for one server session.

    ``leases`` is the server's :class:`~repro.cache.leases.LeaseManager`
    (the simulation stands in for the wire: polls model piggybacked
    reply payloads, not extra messages).  ``session_id`` must already be
    subscribed.
    """

    def __init__(self, leases, session_id: int,
                 max_paths: int = 128, max_chunks: int = 64,
                 stats: CacheStats | None = None) -> None:
        self.leases = leases
        self.session_id = session_id
        self.max_paths = max(1, int(max_paths))
        self.max_chunks = max(1, int(max_chunks))
        self.stats = stats if stats is not None else CacheStats()
        #: normalized path -> oid.
        self._paths: OrderedDict[str, int] = OrderedDict()
        #: normalized path -> ENOENT message to re-raise.
        self._negative: OrderedDict[str, str] = OrderedDict()
        #: oid -> FileAtt.
        self._atts: OrderedDict[int, object] = OrderedDict()
        #: (oid, chunkno) -> (payload bytes, owner xid or None).
        self._chunks: OrderedDict[tuple[int, int], tuple] = OrderedDict()
        #: bumped once per applied invalidation notice; the link
        #: compares it around each request (drop-before-fill).
        self.inval_seq = 0
        self.revoked = False

    # -- lease protocol ---------------------------------------------------

    def poll(self) -> None:
        """Drain this session's lease channel and apply what arrived
        (the link does so after every request and before serving from
        any tier)."""
        if self.revoked:
            return
        notices = self.leases.poll(self.session_id)
        if notices is None:
            self.revoke()
            return
        if notices:
            self.apply_notices(notices)

    def apply_notices(self, notices: list[tuple]) -> None:
        quiet = True
        for notice in notices:
            if notice[0] != "grant":
                quiet = False
                self._apply_invalidation(notice)
        if quiet:
            for notice in notices:
                if notice[0] == "grant":
                    _, path, oid, _epoch = notice
                    self.fill_path(path, oid)

    def _apply_invalidation(self, notice: tuple) -> None:
        kind, key, _epoch = notice
        self.inval_seq += 1
        if kind == "all":
            dropped = (len(self._paths) + len(self._negative)
                       + len(self._atts) + len(self._chunks))
            self._paths.clear()
            self._negative.clear()
            self._atts.clear()
            self._chunks.clear()
            self.stats.invalidations += dropped
        elif kind == "name":
            # Prefix drop: a directory rename/remove changes existence
            # for the whole subtree with a single notice on the dir.
            prefix = key + "/"
            for tier in (self._paths, self._negative):
                for path in [p for p in tier
                             if p == key or p.startswith(prefix)]:
                    del tier[path]
                    self.stats.invalidations += 1
        elif kind == "oid":
            if self._atts.pop(key, None) is not None:
                self.stats.invalidations += 1
            for ck in [c for c in self._chunks if c[0] == key]:
                del self._chunks[ck]
                self.stats.invalidations += 1

    def revoke(self) -> None:
        """Server forgot or expired this session's lease: drop
        everything and never serve again."""
        self.revoked = True
        self._paths.clear()
        self._negative.clear()
        self._atts.clear()
        self._chunks.clear()

    # -- lookups (LRU touch on hit) ---------------------------------------

    def lookup_oid(self, path: str) -> int | None:
        if self.revoked:
            return None
        oid = self._paths.get(normalize_path(path))
        if oid is not None:
            self._paths.move_to_end(normalize_path(path))
        return oid

    def lookup_negative(self, path: str) -> str | None:
        if self.revoked:
            return None
        msg = self._negative.get(normalize_path(path))
        if msg is not None:
            self._negative.move_to_end(normalize_path(path))
        return msg

    def lookup_att(self, oid: int):
        if self.revoked:
            return None
        att = self._atts.get(oid)
        if att is not None:
            self._atts.move_to_end(oid)
        return att

    # -- fills ------------------------------------------------------------

    def _bound_lru(self, tier: OrderedDict, cap: int) -> None:
        while len(tier) > cap:
            tier.popitem(last=False)
            self.stats.evictions += 1

    def fill_path(self, path: str, oid: int) -> None:
        if self.revoked:
            return
        path = normalize_path(path)
        self._negative.pop(path, None)
        self._paths[path] = oid
        self._paths.move_to_end(path)
        self._bound_lru(self._paths, self.max_paths)

    def fill_negative(self, path: str, message: str) -> None:
        if self.revoked:
            return
        path = normalize_path(path)
        self._paths.pop(path, None)
        self._negative[path] = message
        self._negative.move_to_end(path)
        self._bound_lru(self._negative, self.max_paths)

    def fill_att(self, oid: int, att) -> None:
        if self.revoked:
            return
        self._atts[oid] = att
        self._atts.move_to_end(oid)
        self._bound_lru(self._atts, self.max_paths)

    def fill_read(self, oid: int, pos: int, data: bytes,
                  owner: int | None = None) -> None:
        """Cache the fully-covered chunks of a read reply.  A chunk is
        cached only when the reply spans it completely (or it runs to
        the file's cached size) — partial coverage would need server
        merges the protocol doesn't have.  Requires the att to already
        be cached: serve-side EOF clamping needs an authoritative
        size.  A ``p_pread`` reply brings its own, which the link fills
        first (:meth:`repro.cache.link.SessionLink.read`)."""
        if self.revoked or not data:
            return
        att = self._atts.get(oid)
        if att is None:
            return
        end = pos + len(data)
        first = pos // CHUNK_SIZE
        last = (end - 1) // CHUNK_SIZE
        for chunkno in range(first, last + 1):
            chunk_start = chunkno * CHUNK_SIZE
            if chunk_start < pos:
                continue
            chunk_end = chunk_start + CHUNK_SIZE
            if chunk_end > end and end < att.size:
                continue
            payload = data[chunk_start - pos:chunk_end - pos]
            self._chunks[(oid, chunkno)] = (payload, owner)
            self._chunks.move_to_end((oid, chunkno))
        self._bound_lru(self._chunks, self.max_chunks)

    # -- chunk serving ----------------------------------------------------

    def serve_read(self, oid: int, pos: int, length: int):
        """Serve a read entirely from cached chunks, or return ``None``.
        Returns ``(data, owners)`` on a hit, where ``owners`` is the
        list of owner xids (one per chunk served) for per-transaction
        accounting.  Needs the att cached (size clamps the request and
        detects EOF); negative lengths mean read-to-EOF, matching the
        server."""
        if self.revoked:
            return None
        att = self._atts.get(oid)
        if att is None:
            return None
        size = att.size
        if pos >= size:
            return (b"", []) if length is not None else None
        if length is None or length < 0:
            length = size - pos
        end = min(pos + length, size)
        if end <= pos:
            return (b"", [])
        pieces: list[bytes] = []
        owners: list = []
        for chunkno in range(pos // CHUNK_SIZE, (end - 1) // CHUNK_SIZE + 1):
            entry = self._chunks.get((oid, chunkno))
            if entry is None:
                return None
            payload, owner = entry
            chunk_start = chunkno * CHUNK_SIZE
            lo = max(pos, chunk_start) - chunk_start
            hi = min(end, chunk_start + CHUNK_SIZE) - chunk_start
            if hi > len(payload):
                # The cached payload is shorter than the request needs
                # (tail chunk cached before the file grew — the grow
                # bump should have dropped it, but stay conservative).
                return None
            pieces.append(payload[lo:hi])
            owners.append(owner)
            self._chunks.move_to_end((oid, chunkno))
        self._atts.move_to_end(oid)
        return b"".join(pieces), owners

"""One session's doorway to one server, cache in front.

A :class:`SessionLink` is a server connection plus — optionally — the
:class:`~repro.cache.client.ClientCache` that fronts it, and it is the
only code that decides when that cache may answer.  The remote client
wraps one link with the network charge and its batching, the sharded
client holds one per shard, and a scheduler session holds one; none of
them consults a cache tier or compares an ``inval_seq`` itself.

What the link enforces, so that no caller has to remember it:

- **Poll before serve** — :meth:`ready` drains the lease channel
  before any tier is consulted, and refuses inside an explicit
  transaction (transactional traffic always reaches the server and is
  never cached) or once the lease is revoked.
- **Drain after every exchange** — :meth:`call` applies piggybacked
  notices whether the request succeeded or failed.
- **Drop before fill** — :meth:`call` notes ``inval_seq`` on the way
  out; a reply is cached only if no invalidation landed while it was
  in flight (under the scheduler a lock park lets other sessions
  commit mid-request).
- **Accounting** — hits and misses by tier, and every cache-served
  chunk charged to the transaction that paid for the device read.

Where a file position lives is *not* the link's business: reads are
``(oid, pos, length)`` in and ``data`` out, and each stack keeps its
own idea of ``pos``.
"""

from __future__ import annotations

from repro.errors import FileNotFoundError_


class SessionLink:
    """``transport(conn, method, *args, **kwargs)`` carries one request
    (default: the server's own ``dispatch``); ``cache_factory(server,
    conn)`` builds the session's cache (default: no cache)."""

    def __init__(self, server, cache_factory=None, transport=None) -> None:
        self.server = server
        self.conn = server.connect()
        self.cache = (cache_factory(server, self.conn)
                      if cache_factory is not None else None)
        self._send = transport if transport is not None else server.dispatch
        obs = server.fs.db.obs
        self._acct = obs.tx if obs is not None else None
        #: the cache's ``inval_seq`` when the last request left.
        self._sent_seq = 0

    def close(self) -> None:
        self.server.disconnect(self.conn)
        if self.cache is not None:
            self.cache.revoke()

    # -- the session's transaction ---------------------------------------

    def tx(self):
        """The session's open explicit transaction, or None."""
        return self.server.session_tx(self.conn)

    def xid(self) -> int | None:
        tx = self.tx()
        return None if tx is None else tx.xid

    # -- requests ----------------------------------------------------------

    def call(self, method: str, *args, **kwargs):
        cache = self.cache
        if cache is None:
            return self._send(self.conn, method, *args, **kwargs)
        self._sent_seq = cache.inval_seq
        try:
            return self._send(self.conn, method, *args, **kwargs)
        finally:
            if not cache.revoked:
                cache.poll()

    def ready(self):
        """The cache, if it may serve right now; else None."""
        cache = self.cache
        if cache is None or cache.revoked:
            return None
        if self.server.session_tx(self.conn) is not None:
            return None
        cache.poll()
        return None if cache.revoked else cache

    def _fillable(self) -> bool:
        """May the reply that just arrived be cached?"""
        cache = self.cache
        return (not cache.revoked and cache.inval_seq == self._sent_seq
                and self.server.session_tx(self.conn) is None)

    # -- served verbs ------------------------------------------------------

    @staticmethod
    def _refuse_absent(cache, path) -> None:
        """A known-absent name fails without a request, with the ENOENT
        the server gave when it was learnt."""
        msg = cache.lookup_negative(path)
        if msg is not None:
            cache.stats.hit("negative")
            raise FileNotFoundError_(msg)

    def _call_named(self, cache, method: str, path, *rest):
        """One request addressed by a name; an ENOENT reply is
        remembered."""
        try:
            return self.call(method, path, *rest)
        except FileNotFoundError_ as exc:
            if self._fillable():
                cache.fill_negative(path, str(exc))
            raise

    def stat(self, path, timestamp=None):
        """``p_stat``: from the att tier or a negative entry, else from
        the server — caching either outcome."""
        cache = self.ready() if timestamp is None else None
        if cache is None:
            return self.call("p_stat", path, timestamp)
        self._refuse_absent(cache, path)
        oid = cache.lookup_oid(path)
        if oid is not None:
            att = cache.lookup_att(oid)
            if att is not None:
                cache.stats.hit("att")
                return att
        cache.stats.miss("att")
        att = self._call_named(cache, "p_stat", path, timestamp)
        if self._fillable():
            cache.fill_path(path, att.file)
            cache.fill_att(att.file, att)
        return att

    def open(self, fname, mode, timestamp=None) -> tuple:
        """``p_open`` → ``(fd, oid)`` (the library's p_open never
        creates, so a negative entry answers it).  ``oid`` is the
        resolution the server granted on the reply, or None when the
        cache does not know it."""
        cache = self.ready() if timestamp is None else None
        if cache is None:
            return self.call("p_open", fname, mode, timestamp), None
        self._refuse_absent(cache, fname)
        fd = self._call_named(cache, "p_open", fname, mode, timestamp)
        return fd, cache.lookup_oid(fname)

    def seek_hit(self) -> bool:
        """May a SEEK_SET be absorbed client-side right now?  Counts
        the hit if so."""
        cache = self.ready()
        if cache is None:
            return False
        cache.stats.hit("seek")
        return True

    def read_hit(self, oid: int, pos: int, length: int):
        """``length`` bytes of ``oid`` at ``pos`` entirely from cached
        chunks, or None (go to the server)."""
        cache = self.ready()
        if cache is None:
            return None
        served = cache.serve_read(oid, pos, length)
        if served is None:
            cache.stats.miss("chunk")
            return None
        data, owners = served
        for owner in owners:
            cache.stats.hit("chunk")
            if owner is not None and self._acct is not None:
                self._acct.charge_xid(owner, "client_cache_hits")
        return data

    def read_fill(self, oid: int, pos: int, data) -> None:
        """Cache the reply of the read request that just returned
        ``data`` for ``oid`` at ``pos``, stamped with the xid that paid
        for it."""
        if data and self.cache is not None and self._fillable():
            self.cache.fill_read(oid, pos, bytes(data),
                                 self.server.session_last_xid(self.conn))

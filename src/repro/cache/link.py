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

**Link-local descriptors.**  A read-only ``p_open`` with no timestamp,
outside a transaction, of a name the cache resolves sends nothing: the
link hands out a descriptor of its own and records its path and
position (NFS keeps no open state on the server either).  A server
that bounds its staleness (a replica with ``staleness_xids``) checks
its lag on each request, and a catch-up invalidates this cache, so
there every read-only open is sent; the descriptor is still the link's
when the reply leaves the name cached, with the server's behind it,
untouched until it is closed.  For those descriptors a position *is*
the link's business:

- a ``SEEK_SET`` inside ``[0, MAX_FILE_SIZE]`` and the ``p_close`` are
  answered here (the close of a server descriptor behind it is sent);
- a ``p_read`` outside a transaction is served from the chunk tier of
  the oid the cache resolves the path to now, or is one ``p_pread(path,
  pos, length)`` — the open-by-path, seek and read a server descriptor's
  read runs.  On a link with a read-ahead window (the remote client's
  ``read_batch_chunks``) a miss after the open or a read fetches that
  many times ``length``; the rest waits on the descriptor for the next
  read, until any invalidation notice arrives;
- any other use (a write, ``SEEK_CUR`` / ``SEEK_END``, an out-of-range
  seek, a read inside a transaction) first *materializes* it: the real
  ``p_open`` (unless the server's descriptor is already behind it) and
  ``p_lseek`` are sent, and from then on every call is forwarded to
  that server descriptor, so replies and errors are the server's.

A server descriptor is addressed by its path, not by the file it
resolved at its open: every auto-commit read opens the path afresh.  So
is a link-local one, which is why it keeps no oid.
"""

from __future__ import annotations

from repro.core.constants import (MAX_FILE_SIZE, O_RDONLY, SEEK_SET,
                                  TYPE_DIRECTORY)
from repro.core.protocol import CLOSES, USES, VERBS
from repro.errors import FileNotFoundError_


class _Local:
    """A link-local descriptor: the path it names, the position, the
    server descriptor behind it (None until the server opened one) and
    whether calls are forwarded to it, and its read-ahead."""

    __slots__ = ("path", "pos", "fd", "forward", "ahead", "buf")

    def __init__(self, path: str, fd) -> None:
        self.path = path
        self.pos = 0
        self.fd = fd
        self.forward = False
        #: may the next miss read ahead?  After the open and a read, as
        #: the remote client's read-only descriptors do; not after a seek.
        self.ahead = True
        #: (offset, bytes read ahead, EOF right after them, the cache's
        #: ``inval_seq`` when they arrived), or None.
        self.buf = None


class SessionLink:
    """``transport(conn, method, *args, **kwargs)`` carries one request
    (default: the server's own ``dispatch``); ``cache_factory(server,
    conn)`` builds the session's cache (default: no cache);
    ``read_ahead`` is how many times what a read asked for a miss on a
    link-local descriptor fetches (default: exactly what was asked)."""

    def __init__(self, server, cache_factory=None, transport=None,
                 read_ahead: int = 1) -> None:
        self.server = server
        self.read_ahead = read_ahead
        self.conn = server.connect()
        self.cache = (cache_factory(server, self.conn)
                      if cache_factory is not None else None)
        self._send = transport if transport is not None else server.dispatch
        obs = server.fs.db.obs
        self._acct = obs.tx if obs is not None else None
        #: the cache's ``inval_seq`` when the last request left.
        self._sent_seq = 0
        #: link-local descriptor -> its state.  Numbered -1, -2, … so
        #: they never meet a server descriptor.
        self._local: dict[int, _Local] = {}
        self._next_local = -1

    def close(self) -> None:
        self._local.clear()
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

    def open(self, fname, mode=O_RDONLY, timestamp=None):
        """``p_open`` (the library's p_open never creates, so a negative
        entry answers it): a link-local descriptor when it may be one,
        else the server's."""
        cache = self.ready() if timestamp is None else None
        if cache is None:
            return self.call("p_open", fname, mode, timestamp)
        self._refuse_absent(cache, fname)
        bounded = self._bounded()
        if mode != O_RDONLY or (cache.lookup_oid(fname) is None
                                and not bounded):
            return self._call_named(cache, "p_open", fname, mode, timestamp)
        if not bounded:
            cache.stats.hit("open")
            return self._hold(fname, None)
        fd = self._call_named(cache, "p_open", fname, mode, timestamp)
        if self.ready() is None or cache.lookup_oid(fname) is None:
            return fd
        return self._hold(fname, fd)

    def _bounded(self) -> bool:
        """Does the server bound its staleness?  Then every open must
        reach it: it checks its lag on each request, and a catch-up
        invalidates this cache."""
        return getattr(self.server, "staleness_xids", None) is not None

    def _hold(self, fname, fd) -> int:
        """A new link-local descriptor for ``fname``, with the server's
        descriptor ``fd`` (or None) behind it."""
        local, self._next_local = self._next_local, self._next_local - 1
        self._local[local] = _Local(fname, fd)
        return local

    def owns(self, fd) -> bool:
        """Is ``fd`` a link-local descriptor?"""
        return isinstance(fd, int) and fd in self._local

    def release(self, fd):
        """Forget the link-local descriptor ``fd``: the server descriptor
        behind it, if any, which the caller closes."""
        return self._local.pop(fd).fd

    def request(self, method: str, *args, **kwargs):
        """One verb as a session program issues it: with no cache, one
        request.  With one, its arguments are bound to the verb's
        parameters first (so positional and keyword forms are one
        request), and ``p_stat`` and ``p_open`` go through the rules
        above, a descriptor verb on a link-local descriptor through
        :meth:`_on_local`, and anything else — a malformed call
        included, which the server refuses — one request.  The lease
        channel is drained before it leaves: a name grant riding on the
        reply is trusted only if its batch holds no invalidation, so
        older notices must not share that batch."""
        if self.cache is None:
            return self.call(method, *args, **kwargs)
        verb = VERBS.get(method)
        try:
            bound = None if verb is None else verb.bind(*args, **kwargs)
        except TypeError:
            bound = None
        if bound is not None:
            if method == "p_stat":
                return self.stat(*bound)
            if method == "p_open":
                return self.open(*bound)
            if verb.fd in (USES, CLOSES) and self.owns(bound[0]):
                return self._on_local(method, *bound)
        self.ready()
        return self.call(method, *args, **kwargs)

    def _on_local(self, method: str, fd, *rest):
        """A descriptor verb on the link-local descriptor ``fd``."""
        if method == "p_close":
            fd = self.release(fd)
            return None if fd is None else self.call("p_close", fd)
        local = self._local[fd]
        if not local.forward:
            if method == "p_lseek":
                offset_high, offset_low, whence = rest
                offset = (offset_high << 32) | (offset_low & 0xFFFFFFFF)
                if whence == SEEK_SET and 0 <= offset <= MAX_FILE_SIZE:
                    self.cache.stats.hit("seek")
                    local.pos = offset
                    local.ahead = False
                    return offset
            elif method == "p_read" and self.tx() is None:
                data = self._read(local, *rest)
                local.pos += len(data)
                local.ahead = True
                return data
            local.buf = None
            if local.fd is None:
                local.fd = self.call("p_open", local.path, O_RDONLY, None)
            if local.pos:
                self.call("p_lseek", local.fd, local.pos >> 32,
                          local.pos & 0xFFFFFFFF, SEEK_SET)
            local.forward = True
        return self.call(method, local.fd, *rest)

    def _read(self, local: _Local, length):
        """An auto-commit read at the descriptor's position: from its
        read-ahead, from the chunk tier of the oid the cache resolves its
        path to now, or one ``p_pread``, whose reply fills that tier and
        the read-ahead if no invalidation landed while it was in
        flight."""
        cache = self.ready()
        sized = isinstance(length, int) and length > 0
        buf, local.buf = local.buf, None
        if buf is not None and sized and cache is not None:
            start, data, at_eof, seq = buf
            if (start == local.pos and cache.inval_seq == seq
                    and (at_eof or len(data) >= length)):
                piece = data[:length]
                local.buf = (start + len(piece), data[len(piece):], at_eof,
                             seq)
                return piece
        oid = None if cache is None else cache.lookup_oid(local.path)
        att = None if oid is None else cache.lookup_att(oid)
        if att is not None and att.type == TYPE_DIRECTORY:
            oid = None      # the server refuses to read a directory
        if oid is not None and sized:
            served = cache.serve_read(oid, local.pos, length)
            if served is not None:
                data, owners = served
                for owner in owners:
                    cache.stats.hit("chunk")
                    if owner is not None and self._acct is not None:
                        self._acct.charge_xid(owner, "client_cache_hits")
                return data
            cache.stats.miss("chunk")
        want = length * self.read_ahead if sized and local.ahead else length
        data = self.call("p_pread", local.path, local.pos, want)
        if not data or not self._fillable():
            return data[:length] if sized else data
        if oid is not None:
            cache.fill_read(oid, local.pos, bytes(data),
                            self.server.session_last_xid(self.conn))
        if want == length:
            return data
        piece = data[:length]
        local.buf = (local.pos + len(piece), data[len(piece):],
                     len(data) < want, self.cache.inval_seq)
        return piece

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
  transaction (every write reaches the server, and nothing a
  transaction reads is served or cached) or once the lease is revoked.
- **Drain after every exchange** — :meth:`call` applies piggybacked
  notices whether the request succeeded or failed.
- **Drop before fill** — :meth:`call` notes ``inval_seq`` on the way
  out; a reply is cached only if no invalidation landed while it was
  in flight (under the scheduler a lock park lets other sessions
  commit mid-request).
- **Accounting** — hits and misses by tier, and every cache-served
  chunk charged to the transaction that paid for the device read.

**The descriptor table.**  Every descriptor the session holds through
the link is one :class:`Descriptor` in :attr:`SessionLink.fds`, keyed
by the number the caller holds: the path (when known), the mode, the
position, the server's descriptor and where it stands (None =
unknown), the sequential-read streak, one read-ahead buffer, the write
buffer, and three flags — ``plain`` (a write-mode open learnt that it
names a plain file), ``forward`` (calls go to the server's descriptor)
and ``pwrote`` (a link-local write-mode descriptor sent its
``p_pwrite``).  A descriptor the remote client opened on the server is
keyed by the server's number and forwards from the start; the link's
own are below.  One rule governs every read-ahead buffer: it is served
(:meth:`~SessionLink.take_ahead`, the one routine that compares a
buffer's offset with a position) only at the position it starts at
and under the stamp it was filled under — the drops the link's owner
declared (:meth:`~SessionLink.drop_read_ahead`) and the invalidation
notices its cache applied, counted when the request that fetched it
left.  The queue of calls waiting to ride the next request
(:attr:`~SessionLink.riders`) sits beside the table: dropping a write
rider leaves its descriptor's server position unknown.

**Link-local descriptors.**  A read-only ``p_open`` with no timestamp,
outside a transaction, of a name the cache resolves sends nothing: the
link hands out a descriptor of its own, numbered -1, -2, … so it never
meets a server's (NFS keeps no open state on the server either).  A
server that bounds its staleness (a replica with ``staleness_xids``)
checks its lag on each request, and a catch-up invalidates this cache,
so there every read-only open is sent; the descriptor is still the
link's when the reply leaves the name cached, with the server's behind
it, untouched until it is closed.  Until it forwards:

- a ``SEEK_SET`` inside ``[0, MAX_FILE_SIZE]`` and the ``p_close`` are
  answered here (the close of a server descriptor behind it is sent);
- a ``p_read`` outside a transaction is served from the read-ahead,
  from the chunk tier of the oid the cache resolves the path to now, or
  is one ``p_pread(path, pos, length)`` — the open-by-path, seek and
  read a server descriptor's read runs.  Its reply brings the att the
  read found, from the read's own snapshot (NFSv3's post-op
  attributes), so a miss after an invalidation fills the att tier and
  then the chunk tier, and the next ``p_stat`` is a hit.  On a link
  with a read-ahead window (the remote client's ``read_batch_chunks``)
  a miss while the streak runs fetches that many times ``length``;
- any other use (a write, ``SEEK_CUR`` / ``SEEK_END``, an out-of-range
  seek, a read inside a transaction) first *materializes* it: the real
  ``p_open`` with its mode (unless the server's descriptor is already
  behind it) and ``p_lseek`` are sent, and from then on calls go to
  that server descriptor, so replies and errors are the server's.

A write-mode ``p_open`` (``O_WRONLY`` or ``O_RDWR``, no timestamp) is
the link's too when it is inside an explicit transaction that has sent
no verb that may change a name (any write but ``p_write`` and
``p_pwrite``; :meth:`~SessionLink.note_renaming` for an operation the
link does not see), of a name the polled cache resolves and holds no
negative entry for, on a server that does not bound its staleness.  The
library's ``p_open`` only resolves the name, under the transaction's
read-committed snapshot and taking no lock, so it would find what the
cache holds.  On that descriptor ``SEEK_SET`` seeks and the close are
the link's; its first write inside a transaction is one
``p_pwrite(path, pos, data)``, sent at the write (so the exclusive lock
is taken on the same call as a server descriptor's write), the
open-by-path, seek, write and close of a descriptor opened ``O_RDWR``;
any other use — a read, ``SEEK_CUR`` / ``SEEK_END``, a second write, a
write outside a transaction — materializes it.

A server descriptor is addressed by its path, not by the file it
resolved at its open: every auto-commit read opens the path afresh.  So
is a link-local one, which is why it keeps no oid.
"""

from __future__ import annotations

from repro.core.constants import (MAX_FILE_SIZE, O_RDONLY, O_RDWR,
                                  O_WRONLY, SEEK_SET, TYPE_DIRECTORY)
from repro.core.protocol import CLOSES, USES, VERBS, WRITE
from repro.errors import FileNotFoundError_

#: the verbs that may change a name: every write but the two that only
#: write a file's bytes.
_RENAMING = frozenset(name for name, verb in VERBS.items()
                      if verb.kind == WRITE
                      and name not in ("p_write", "p_pwrite"))


class Descriptor:
    """One descriptor of the session (see the module docstring)."""

    __slots__ = ("path", "mode", "pos", "fd", "srv_pos", "streak", "buf",
                 "wbuf", "plain", "forward", "pwrote")

    def __init__(self, path, fd, mode: int, forward: bool) -> None:
        self.path = path
        #: the mode it was opened with (a server descriptor behind it
        #: is opened with it).
        self.mode = mode
        self.pos = 0
        #: the server's descriptor (None until the server opened one)
        #: and where it stands (None: unknown).
        self.fd = fd
        self.srv_pos = None if fd is None else 0
        #: consecutive sequential reads: a read-only descriptor is read
        #: from the top, so its first read already counts; a seek or a
        #: drop ends the streak.
        self.streak = 1 if self.readonly else 0
        #: (offset, bytes read ahead, EOF right after them, stamp), or
        #: None.
        self.buf = None
        #: (start offset, buffered bytes, absorbed call count), or None.
        self.wbuf = None
        self.plain = False
        self.forward = forward
        #: a link-local write-mode descriptor sent its one ``p_pwrite``.
        self.pwrote = False

    @property
    def readonly(self) -> bool:
        return not self.mode & (O_WRONLY | O_RDWR)


class SessionLink:
    """``transport(conn, method, *args, **kwargs)`` carries one request
    (default: the server's own ``dispatch``); ``cache_factory(server,
    conn)`` builds the session's cache (default: no cache);
    ``read_ahead`` is how many times what a read asked for a miss
    while the streak runs fetches (default: exactly what was asked)."""

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
        #: the descriptor table, and the next link-local number.
        self.fds: dict[int, Descriptor] = {}
        self._next_local = -1
        #: (method, args) of the calls waiting to ride the next request,
        #: which the transport dispatches ahead of it.
        self.riders: list[tuple[str, tuple]] = []
        #: read-ahead drops declared so far (half of a buffer's stamp).
        self._drops = 0
        #: xid of the last transaction in which a verb that may change
        #: a name was sent (or the owner ran an operation the link does
        #: not see, :meth:`note_renaming`).
        self._renamed_in = None

    def close(self) -> None:
        self.fds.clear()
        self.riders.clear()
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
            if method in _RENAMING:
                self.note_renaming()
            if not cache.revoked:
                cache.poll()

    def note_renaming(self) -> None:
        """The session's open transaction may have changed a name: until
        it ends, every write-mode open is sent."""
        self._renamed_in = self.xid()

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

    # -- the descriptor table ----------------------------------------------

    def record(self, fd) -> Descriptor | None:
        """The table's record of ``fd``, if it has one."""
        return self.fds.get(fd) if isinstance(fd, int) else None

    def track(self, fd, path, mode: int):
        """Enter the server's descriptor ``fd`` (an open's reply) in the
        table; its record, or None when the reply is no descriptor."""
        if not isinstance(fd, int):
            return None
        self.fds[fd] = Descriptor(path, fd, mode, forward=True)
        return self.fds[fd]

    def stamp(self):
        """What a read-ahead buffer filled now is good under: the drops
        declared so far and the cache's invalidations."""
        cache = self.cache
        if cache is None:
            return self._drops
        return self._drops, cache.inval_seq, cache.revoked

    def drop_read_ahead(self) -> None:
        """Every descriptor's read-ahead dies: the owner knows a call of
        its own may have changed what some position holds."""
        self._drops += 1

    def take_ahead(self, rec: Descriptor, length):
        """The next ``length`` bytes at ``rec``'s position, from its
        read-ahead, or None; either way the buffer is spent unless it
        served.  It serves only at the position it starts at, under the
        stamp it was filled under (the lease channel drained first),
        and when it holds ``length`` bytes or ends at EOF."""
        buf, rec.buf = rec.buf, None
        if buf is None or not isinstance(length, int) or length <= 0:
            return None
        if self.cache is not None:
            self.cache.poll()
        start, data, at_eof, stamp = buf
        if (start != rec.pos or stamp != self.stamp()
                or not (at_eof or len(data) >= length)):
            return None
        piece = data[:length]
        rec.pos += len(piece)
        rec.buf = (rec.pos, data[len(piece):], at_eof, stamp)
        return piece

    def keep_ahead(self, rec: Descriptor, data, length, want, stamp):
        """``data`` arrived for a read of ``length`` at ``rec``'s
        position that asked ``want``, under ``stamp`` (taken before the
        request left): the caller's piece.  What it fetched beyond the
        piece is the read-ahead, ending at EOF if the reply fell short
        of what it asked."""
        piece = data if want == length else data[:length]
        rec.pos += len(piece)
        rec.streak += 1
        if want != length:
            rec.buf = (rec.pos, data[len(piece):], len(data) < want, stamp)
        return piece

    def seek_set(self, rec: Descriptor, offset: int) -> bool:
        """Absorb a ``SEEK_SET`` to ``offset``: False (nothing done) when
        the server must answer it, since only it refuses an offset
        outside ``[0, MAX_FILE_SIZE]``."""
        if not 0 <= offset <= MAX_FILE_SIZE:
            return False
        rec.pos = offset
        rec.streak = 0
        rec.buf = None
        if not rec.forward:
            self.cache.stats.hit("seek")
        return True

    def materialize(self, rec: Descriptor, pos: int | None = None) -> None:
        """From now on ``rec``'s calls go to a server descriptor: open
        one with its mode (unless it is behind it already) and bring it
        to ``pos`` (default: the position)."""
        if rec.forward:
            return
        pos = rec.pos if pos is None else pos
        if rec.fd is None:
            rec.fd = self.call("p_open", rec.path, rec.mode, None)
            rec.srv_pos = 0
        if rec.srv_pos != pos:
            self.call("p_lseek", rec.fd, pos >> 32, pos & 0xFFFFFFFF,
                      SEEK_SET)
            rec.srv_pos = pos
        rec.forward = True

    def pwrite(self, rec: Descriptor, pos: int, data):
        """Write ``data`` at ``pos`` through ``rec`` as one ``p_pwrite``
        when it is the link's write-mode descriptor writing for the
        first time inside a transaction: the reply, or None (nothing
        sent) when the write needs the server's descriptor."""
        if (rec.forward or rec.readonly or rec.pwrote
                or self.tx() is None):
            return None
        result = self.call("p_pwrite", rec.path, pos, data)
        rec.pwrote = True
        return result

    def drop_write_riders(self) -> None:
        """Take the queued ``p_write`` riders off the queue: where their
        descriptors' server sides then stand is unknown."""
        kept = []
        for method, args in self.riders:
            if method != "p_write":
                kept.append((method, args))
            elif args[0] in self.fds:
                self.fds[args[0]].srv_pos = None
        self.riders = kept

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
        if timestamp is None and mode in (O_WRONLY, O_RDWR):
            local = self._open_writable_locally(fname, mode)
            if local is not None:
                return local
        cache = self.ready() if timestamp is None else None
        if cache is None:
            return self.call("p_open", fname, mode, timestamp)
        self._refuse_absent(cache, fname)
        bounded = self._bounded()
        if mode != O_RDONLY or (cache.lookup_oid(fname) is None
                                and not bounded):
            return self._call_named(cache, "p_open", fname, mode, timestamp)
        if bounded:
            fd = self._call_named(cache, "p_open", fname, mode, timestamp)
            if self.ready() is None or cache.lookup_oid(fname) is None:
                return fd
        else:
            cache.stats.hit("open")
            fd = None
        return self._local(fname, fd, mode)

    def _local(self, fname, fd, mode) -> int:
        """A link-local descriptor, with the server's (if any) behind
        it."""
        local, self._next_local = self._next_local, self._next_local - 1
        self.fds[local] = Descriptor(fname, fd, mode, forward=False)
        return local

    def _open_writable_locally(self, fname, mode):
        """A write-mode open inside a transaction that has sent no verb
        that may change a name, of a name the polled cache resolves: a
        link-local descriptor, or None.  The library's ``p_open`` only
        resolves the name, under the transaction's read-committed
        snapshot and taking no lock, so there it finds what the cache
        holds."""
        cache, tx = self.cache, self.tx()
        if (cache is None or cache.revoked or tx is None
                or self._renamed_in == tx.xid or self._bounded()):
            return None
        cache.poll()
        if (cache.revoked or cache.lookup_negative(fname) is not None
                or cache.lookup_oid(fname) is None):
            return None
        cache.stats.hit("open")
        return self._local(fname, None, mode)

    def _bounded(self) -> bool:
        """Does the server bound its staleness?  Then every open must
        reach it: it checks its lag on each request, and a catch-up
        invalidates this cache."""
        return getattr(self.server, "staleness_xids", None) is not None

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
            if (verb.fd in (USES, CLOSES)
                    and self.record(bound[0]) is not None):
                return self._on_local(method, *bound)
        self.ready()
        return self.call(method, *args, **kwargs)

    def _on_local(self, method: str, fd, *rest):
        """A descriptor verb on the link-local descriptor ``fd``."""
        rec = self.fds[fd]
        if method == "p_close":
            del self.fds[fd]
            return None if rec.fd is None else self.call("p_close", rec.fd)
        if not rec.forward:
            if method == "p_lseek":
                offset_high, offset_low, whence = rest
                offset = (offset_high << 32) | (offset_low & 0xFFFFFFFF)
                if whence == SEEK_SET and self.seek_set(rec, offset):
                    return offset
            elif (method == "p_read" and rec.readonly
                    and self.tx() is None):
                piece = self.take_ahead(rec, *rest)
                return piece if piece is not None else self.read(rec, *rest)
            elif method == "p_write":
                written = self.pwrite(rec, rec.pos, *rest)
                if written is not None:
                    rec.pos += written
                    return written
            self.materialize(rec)
        return self.call(method, rec.fd, *rest)

    def read(self, rec: Descriptor, length):
        """An auto-commit read at a link-local descriptor's position
        that its read-ahead could not answer: from the chunk tier of
        the oid the cache resolves its path to now, or one ``p_pread``.
        Its reply brings the att the read found
        (:meth:`~repro.core.server.InversionServer.pread_att`); if no
        invalidation landed while it was in flight and the att is of
        the file the cache resolves the path to now, it fills the att
        tier and then that file's chunk tier.  The reply also fills the
        read-ahead."""
        cache = self.ready()
        sized = isinstance(length, int) and length > 0
        oid = None if cache is None else cache.lookup_oid(rec.path)
        att = None if oid is None else cache.lookup_att(oid)
        if att is not None and att.type == TYPE_DIRECTORY:
            oid = None      # the server refuses to read a directory
        if oid is not None and sized:
            served = cache.serve_read(oid, rec.pos, length)
            if served is not None:
                data, owners = served
                for owner in owners:
                    cache.stats.hit("chunk")
                    if owner is not None and self._acct is not None:
                        self._acct.charge_xid(owner, "client_cache_hits")
                return self.keep_ahead(rec, data, length, length, None)
            cache.stats.miss("chunk")
        want = length * self.read_ahead if sized and rec.streak else length
        stamp = self.stamp()
        data = self.call("p_pread", rec.path, rec.pos, want)
        if cache is not None and self._fillable():
            oid = cache.lookup_oid(rec.path)
            att = self.server.pread_att(self.conn)
            if att is not None and att.file == oid:
                cache.fill_att(oid, att)
            if data and oid is not None:
                cache.fill_read(oid, rec.pos, bytes(data),
                                self.server.session_last_xid(self.conn))
        return self.keep_ahead(rec, data, length, want, stamp)

"""Remote client: the "special library" linked by network applications.

"Client/server communication was via TCP/IP over a 10 Mbit/sec
Ethernet" and the paper's evaluation concludes that this protocol "is
much too heavy-weight": each 1 MB test pays 3–5 seconds of remote
overhead.  :class:`RemoteInversionClient` reproduces that cost
structure: with ``read_batch_chunks == write_batch_chunks == 1`` — the
paper's protocol — every ``p_*`` call (but a read-only close) is one
synchronous request/response exchange through a
:class:`~repro.sim.network.NetworkModel`, with payload sizes derived
from the arguments (so big reads ship big responses, and page-sized
loops pay per-message overhead 128 times per megabyte).  With either
batch size above one the client speaks the light protocol the paper
asked for: calls whose reply it already knows ride the next exchange,
and a small file opens with its bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from hashlib import sha256

from repro.cache.leases import normalize_path
from repro.cache.link import SessionLink
from repro.core.constants import (CHUNK_SIZE, MAX_FILE_SIZE, O_RDWR,
                                  O_WRONLY, SEEK_CUR, SEEK_SET,
                                  TYPE_DIRECTORY)
from repro.core.fileatt import FileAtt
from repro.core.protocol import OPENS, REMOTE, TX, exposes
from repro.core.server import InversionServer
from repro.obs.registry import MetricSpec
from repro.obs.tracing import NO_SPAN
from repro.sim.network import NetworkModel

METRICS = (
    MetricSpec("rpc.client.batched_reads", "counter", "ops",
               "RPCs that fetched more than the caller asked for "
               "(read-ahead window).",
               "repro.core.client"),
    MetricSpec("rpc.client.buffered_reads", "counter", "ops",
               "p_read calls answered from a descriptor's read-ahead "
               "buffer, no RPC at all (EOF included, once a short "
               "batched reply recorded it; a link-local descriptor's "
               "buffer included).",
               "repro.core.client"),
    MetricSpec("rpc.client.batched_writes", "counter", "ops",
               "p_write RPCs that shipped more than one buffered "
               "call's data.",
               "repro.core.client"),
    MetricSpec("rpc.client.buffered_writes", "counter", "ops",
               "p_write calls absorbed into the write buffer, no RPC "
               "at all.",
               "repro.core.client"),
    MetricSpec("rpc.client.riders", "counter", "ops",
               "Calls that sent no message of their own: each rode the "
               "session's next request, ahead of it (read-only closes; "
               "on a batching client also p_begin, SEEK_SET seeks and "
               "in-transaction closes with their buffered writes).",
               "repro.core.client"),
    MetricSpec("rpc.client.filled_opens", "counter", "ops",
               "Read-only p_open exchanges whose reply carried the whole "
               "file and EOF into the read-ahead buffer.",
               "repro.core.client"),
    MetricSpec("rpc.client.unchanged_chunks", "counter", "chunks",
               "Chunks a filled open's reply marked unchanged, 8 bytes "
               "each: the client's copy from its last open of the path "
               "had the same SHA-256 digest at the same index.",
               "repro.core.client"),
)

#: chunks a batching client fetches per read RPC and ships per write
#: RPC: the replicated cluster's clients use it for both.
RPC_BATCH_CHUNKS = 16

_REQ_BASE = 64    # RPC header + method + fixed args
_RESP_BASE = 32   # status + fixed return
_DIGEST_BYTES = 32  # one SHA-256 chunk digest sent with a filled open


def _arg_bytes(args: tuple, kwargs: dict) -> int:
    total = 0
    for value in list(args) + list(kwargs.values()):
        if isinstance(value, (bytes, bytearray)):
            total += len(value)
        elif isinstance(value, str):
            total += len(value)
        else:
            total += 8
    return total


def _result_bytes(result: object) -> int:
    if isinstance(result, FileAtt):
        result = result.to_row()
    if isinstance(result, (bytes, bytearray)):
        return len(result)
    if isinstance(result, str):
        return len(result)
    if isinstance(result, (list, tuple)):
        return sum(_result_bytes(v) for v in result)
    return 8


@exposes(REMOTE)
@dataclass
class RemoteInversionClient:
    """The p_* API, executed over the simulated network.

    Verbs with no client-side logic of their own (transaction control,
    ``p_creat``, the namespace and structural ops, ``p_query``) are not
    written out here: :func:`repro.core.protocol.exposes` generates
    them from the verb table, each one :meth:`_forward`.  Every
    descriptor's state — position, read-ahead, write buffer — is a
    record in the table of the client's
    :class:`~repro.cache.link.SessionLink`; what is written here is the
    protocol's policy over it.

    ``write_behind`` models the library's streaming of consecutive
    ``p_write`` calls: while the server chews on one write, the next
    request is already on the wire, so a sustained write sequence costs
    ``max(network, server)`` per call instead of their sum.  Reads stay
    fully synchronous, exactly the heavyweight behaviour the paper
    complains about.

    ``read_batch_chunks`` (off by default, to keep the paper's measured
    protocol) is the NFS biod read-ahead: once a descriptor's streak
    runs — its second consecutive sequential ``p_read``, or its first
    on one opened ``O_RDONLY`` — a read fetches up to that many
    request-lengths and the following reads are served from the
    descriptor's buffer; a reply shorter than it asked also records
    EOF.  A buffered byte can be stale with respect to *another*
    client's writes; every buffer dies at a transaction boundary, a
    write, a namespace operation of this client, and at a ``p_close``
    or ``p_stat`` that may publish a size its own writes left pending.
    A read-only ``p_open`` on such a client, outside a transaction and
    with no client cache, is one exchange that also reads the file when
    it fits one read-ahead window, the whole file and EOF landing in
    the buffer; it sends the SHA-256 digests of the chunks the client's
    last filled open of the path received (at most
    ``read_batch_chunks`` paths kept), and the server answers each
    chunk that still matches at its index with an 8-byte marker, the
    LBFS trick.

    ``write_batch_chunks`` (off by default) gathers consecutive
    sequential ``p_write`` calls of a descriptor into one ``p_write`` of
    up to that many chunks, shipped before any other request of this
    client, so its own operations observe its writes in program order;
    a descriptor that starts gathering first ships what any descriptor
    of the same path gathered.  A write through a read-only descriptor
    fails at the call.

    **Riders.**  A call whose reply the client already knows, and whose
    effect no other session can see before the session's next
    exchange, sends no message: it queues and rides that exchange,
    ahead of its request, adding its argument bytes to it and costing
    the server its dispatch as before.  If a rider fails on the server,
    the call it rode raises that error, and neither that call nor the
    riders behind it run.  :meth:`close` sends none of them: the
    disconnect aborts the transaction and closes every descriptor.
    These ride:

    - ``p_close`` of a read-only descriptor, on every client.  NFS has
      no close RPC at all.
    - On a client with either batch size above one (the paper's
      protocol keeps one exchange per call):

      - ``p_begin``, when this client's own begin/commit/abort
        bookkeeping says no transaction is open and it has no client
        cache (which would serve reads until the begin arrived).
      - The corrective seek after an absorbed ``SEEK_SET``, which the
        server needs only when the descriptor is next used.
      - ``p_close`` of a written descriptor *inside* a transaction, and
        with it the buffered ``p_write`` calls when each is to a
        descriptor whose write-mode open, inside the transaction,
        learnt it names a plain file, and ends inside the size limit:
        their reply is then the length, and their effect is invisible
        to other sessions before the commit.  Outside a transaction
        that close and its writes stay synchronous: its auto-commit
        publishes the size.

    ``cache_factory`` (off by default; see
    :func:`repro.cache.session_cache_factory`) puts the lease-coherent
    client cache in front of the link, whose rules decide when it
    answers — with link-local descriptors for read-only opens of names
    it holds.
    """

    server: InversionServer
    network: NetworkModel
    write_behind: bool = True
    read_batch_chunks: int = 1
    write_batch_chunks: int = 1
    #: ``cache_factory(server, conn)`` builds the session's client
    #: cache; None = no cache.
    cache_factory: object = None

    def __post_init__(self) -> None:
        self._last_was_write = False
        #: is a transaction open, by this client's own begin / commit /
        #: abort bookkeeping?  None once a reply left it unknown.
        self._in_tx: bool | None = False
        #: RPCs that fetched more than the caller asked for.
        self.batched_reads = 0
        #: p_read calls answered from a read-ahead buffer, no RPC at all.
        self.buffered_reads = 0
        #: p_write RPCs that shipped more than one buffered call's data.
        self.batched_writes = 0
        #: p_write calls absorbed into the write buffer, no RPC at all.
        self.buffered_writes = 0
        #: calls that sent no message of their own (riders).
        self.riders = 0
        #: read-only opens whose reply carried the whole file.
        self.filled_opens = 0
        #: chunks a filled open's reply marked unchanged.
        self.unchanged_chunks = 0
        #: path -> (chunks, their SHA-256 digests) of its last filled
        #: open, least recently opened first.
        self._copies: dict[str, tuple[list, list]] = {}
        # Mirror the counters onto the server database's registry — the
        # client lives outside the Database, so it binds itself.
        self._obs = getattr(getattr(self.server.fs, "db", None), "obs", None)
        if self._obs is not None:
            self._obs.bind_client(self)
        #: the server connection, the descriptor table, the cache in
        #: front of it (if any), and every rule about when it may serve.
        self._link = SessionLink(self.server, self.cache_factory,
                                 self._exchange,
                                 read_ahead=self.read_batch_chunks)
        self._call = self._link.call
        self._cache = self._link.cache

    def close(self) -> None:
        self._flush_writes()
        self._copies.clear()
        self._link.close()      # the disconnect aborts and closes

    @property
    def _batching(self) -> bool:
        """Either batch size above one: the light protocol's riders."""
        return self.read_batch_chunks > 1 or self.write_batch_chunks > 1

    def _ride(self, method: str, *args) -> None:
        """Queue a call whose reply is known to ride the next request."""
        self._link.riders.append((method, args))
        self.riders += 1

    def _seek_server(self, rec, pos: int) -> None:
        """Move the server's descriptor to ``pos``: a rider on a
        batching client, an exchange of its own on the paper's."""
        if self._batching:
            self._ride("p_lseek", rec.fd, pos >> 32, pos & 0xFFFFFFFF, 0)
        else:
            self._call("p_lseek", rec.fd, pos >> 32, pos & 0xFFFFFFFF, 0)
        rec.srv_pos = pos

    def _resync(self, rec) -> None:
        """Bring the server's descriptor to the client's position (after
        a partly consumed read-ahead or an absorbed seek)."""
        if rec.srv_pos != rec.pos:
            self._seek_server(rec, rec.pos)

    def _drop_buffers(self) -> None:
        """Invalidate all read-ahead state (transaction boundaries and
        namespace changes may change what any position holds), and what
        write-mode opens learnt: the server writes through a
        descriptor's path, which may now name another file or none."""
        self._link.drop_read_ahead()
        for rec in self._link.fds.values():
            rec.streak = 0
            rec.plain = False

    # -- write batching ----------------------------------------------------

    def _flush_fd_writes(self, rec, ride: bool = False) -> None:
        """Ship one descriptor's buffered writes as a single ``p_write``
        RPC (with a corrective seek first if the server's descriptor
        has drifted from the buffer's start), or queue it to ride the
        next request."""
        if rec.wbuf is None:
            return
        (start, data, ncalls), rec.wbuf = rec.wbuf, None
        if self._link.pwrite(rec, start, bytes(data)) is None:
            self._link.materialize(rec, start)
            if rec.srv_pos != start:
                self._seek_server(rec, start)
            if ride:
                self._ride("p_write", rec.fd, bytes(data))
            else:
                self._call("p_write", rec.fd, bytes(data))
            rec.srv_pos = start + len(data)
        if ncalls > 1:
            self.batched_writes += 1

    def _flush_writes(self, ride: bool = False) -> None:
        """Ship every descriptor's buffered writes — called before any
        RPC other than an absorbed sequential write, so this client's
        operations observe its writes in program order."""
        for rec in list(self._link.fds.values()):
            self._flush_fd_writes(rec, ride)

    # -- the wire -----------------------------------------------------------

    def _exchange(self, conn: int, method: str, *args, **kwargs):
        """The link's transport: one exchange carrying ``method``.  The
        reply to a leased ``p_pread`` also carries the att the read
        found, and counts its bytes."""
        server = self.server
        if method != "p_pread":
            return self._round_trip(
                method, _arg_bytes(args, kwargs),
                lambda: server.dispatch(conn, method, *args, **kwargs))

        def serve():
            data = server.dispatch(conn, method, *args, **kwargs)
            att = server.pread_att(conn)
            return data, () if att is None else att.to_row()

        return self._round_trip(method, _arg_bytes(args, kwargs), serve)[0]

    def _round_trip(self, method: str, arg_bytes: int, serve):
        """One synchronous request/response over the simulated network:
        the request travels with every queued rider ahead of it, the
        server runs the riders and then ``serve()``, and the response
        returns."""
        riders, self._link.riders = self._link.riders, []
        request = _REQ_BASE + arg_bytes + sum(_arg_bytes(args, {})
                                              for _, args in riders)
        pipelined = (self.write_behind and method == "p_write"
                     and self._last_was_write)
        self._last_was_write = method in ("p_write", "p_lseek")
        self.network.stats.round_trips += 1
        obs = self._obs
        span = obs.tracer.span("rpc.call", method=method) \
            if obs is not None and obs.tracer.enabled else NO_SPAN
        clock = self.network.clock
        with span:
            if pipelined:
                before = clock.now()
            else:
                # The request travels, the server works, the response
                # returns.
                self.network.send(request)
            try:
                for rider, args in riders:
                    self.server.dispatch(self._link.conn, rider, *args)
            except Exception:
                self._in_tx = None      # a begin behind it did not run
                raise
            result = serve()
            if not pipelined:
                self.network.send(_RESP_BASE + _result_bytes(result))
                return result
            response = _RESP_BASE + 8
            net_cost = self.network.cost_round_trip(request, response)
            server_elapsed = clock.now() - before
            self.network.charge_seconds(max(0.0, net_cost - server_elapsed),
                                        messages=2,
                                        payload=request + response)
            return result

    # -- the client API ----------------------------------------------------

    def _forward(self, verb, args: tuple):
        """Body of every generated verb: ship buffered writes first (so
        this client's operations observe its writes in program order),
        drop read-ahead state if the verb can change what any position
        holds, then one exchange carrying every parameter; a descriptor
        the verb opens (``p_creat``) enters the table."""
        if verb.name == "p_abort":
            # The queued writes would only be undone by it, and one the
            # server refuses (a lock conflict) would fail the abort.
            self._link.drop_write_riders()
        self._flush_writes()
        if verb.drops_buffers:
            self._drop_buffers()
        if verb.kind == TX:
            return self._transaction(verb.name)
        result = self._call(verb.name, *args)
        if verb.fd == OPENS:        # p_creat
            named = dict(zip((p.name for p in verb.params), args))
            rec = self._link.track(result, named["path"], named["mode"])
            if rec is not None:
                rec.plain = named["ftype"] != TYPE_DIRECTORY
        return result

    def _transaction(self, method: str) -> None:
        """``p_begin`` / ``p_commit`` / ``p_abort``, keeping the
        client's own account of whether a transaction is open.  A
        ``p_begin`` that account says will succeed rides."""
        # Not with a lease cache: until the begin reached the server,
        # the cache would serve this transaction's reads.
        if (method == "p_begin" and self._in_tx is False and self._batching
                and self._cache is None):
            self._ride(method)
            self._in_tx = True
            return None
        self._in_tx = None      # unknown, should the call raise
        result = self._call(method)
        self._in_tx = method == "p_begin"
        return result

    def p_open(self, fname, mode=0, timestamp=None):
        self._flush_writes()
        readonly = not mode & (O_WRONLY | O_RDWR)
        if (readonly and self.read_batch_chunks > 1 and self._cache is None
                and self._in_tx is False):
            return self._open_filled(fname, mode, timestamp)
        if (not readonly and self._batching and self._cache is None
                and self._in_tx is True and timestamp is None):
            return self._open_writable(fname, mode)
        fd = self._link.open(fname, mode, timestamp)
        rec = self._link.record(fd)
        if rec is None or rec.forward:      # not a link-local descriptor
            self._link.track(fd, fname, mode)
        return fd

    def _open_writable(self, fname, mode):
        """A write-mode open inside a transaction that also learns, in
        the same exchange, whether the file is a directory: only the
        writes of a descriptor known to name a plain file may ride its
        close (a write to a directory fails, and must fail at the
        close)."""
        server, conn = self.server, self._link.conn

        def serve():
            fd = server.dispatch(conn, "p_open", fname, mode, None)
            return fd, server.readable_size(conn, fd) is not None

        fd, plain = self._round_trip(
            "p_open", _arg_bytes((fname, mode, None), {}), serve)
        self._link.track(fd, fname, mode).plain = plain
        return fd

    def _open_filled(self, fname, mode, timestamp):
        """A read-only open that brings a small file along: one exchange
        runs ``p_open`` and, when the server finds the file no longer
        than one read-ahead window, a read of that window on the
        descriptor it returned.  The request carries the digests of the
        client's copy of the path, and the reply only the chunks that
        differ from it.  The bytes and EOF fill the read-ahead buffer;
        ``p_open``'s errors are still ``p_open``'s.  Not inside a
        transaction: there the read would open the descriptor's
        server-side handle at the open, and the handle keeps the size
        it saw, which a later close of another descriptor can grow."""
        window = self.read_batch_chunks * CHUNK_SIZE
        server, conn = self.server, self._link.conn
        held, digests = self._copies.pop(fname, ((), ()))

        def serve():
            fd = server.dispatch(conn, "p_open", fname, mode, timestamp)
            size = server.readable_size(conn, fd)
            if size is None or size > window:
                return fd, None
            data = server.dispatch(conn, "p_read", fd, window)
            return fd, server.compare_chunks(data, digests)

        fd, reply = self._round_trip(
            "p_open", _arg_bytes((fname, mode, timestamp, window), {})
            + _DIGEST_BYTES * len(digests), serve)
        rec = self._link.track(fd, fname, mode)
        if reply is None:
            return fd
        chunks, sums = [], []
        for i, piece in enumerate(reply):
            if piece is None:
                self.unchanged_chunks += 1
                chunks.append(held[i])
                sums.append(digests[i])
            else:
                chunks.append(piece)
                sums.append(sha256(piece).digest())
        self._copies[fname] = (chunks, sums)
        if len(self._copies) > self.read_batch_chunks:
            del self._copies[next(iter(self._copies))]
        data = b"".join(chunks)
        rec.buf = (0, data, True, self._link.stamp())
        rec.srv_pos = len(data)
        self.filled_opens += 1
        return fd

    def p_read(self, fd, length):
        self._flush_writes()
        link = self._link
        rec = link.record(fd)
        if rec is None:
            return self._call("p_read", fd, length)
        piece = link.take_ahead(rec, length)
        if piece is not None:
            self.buffered_reads += 1
            return piece
        if rec.readonly and not rec.forward and link.tx() is None:
            return link.read(rec, length)
        link.materialize(rec)
        self._resync(rec)
        # The first read of a streak fetches exactly what was asked —
        # batching only kicks in once the access pattern has proven
        # sequential, so a lone random read never over-fetches.
        sized = isinstance(length, int) and length > 0
        want = length * self.read_batch_chunks if sized and rec.streak \
            else length
        stamp = link.stamp()
        result = self._call("p_read", rec.fd, want)
        rec.srv_pos = rec.pos + len(result)
        if want != length and len(result) > length:
            self.batched_reads += 1
        return link.keep_ahead(rec, result, length, want, stamp)

    def p_write(self, fd, buf):
        link = self._link
        rec = link.record(fd)
        if rec is None:
            return self._call("p_write", fd, buf)
        # Another descriptor may hold this file's bytes read ahead.
        link.drop_read_ahead()
        rec.streak = 0
        if self.write_batch_chunks > 1 and not rec.readonly:
            return self._gather(rec, buf)
        result = link.pwrite(rec, rec.pos, buf)
        if result is not None:
            rec.pos += result
            return result
        link.materialize(rec)
        self._resync(rec)
        result = self._call("p_write", rec.fd, buf)
        rec.pos += result if isinstance(result, int) else len(buf)
        rec.srv_pos = rec.pos
        return result

    def _gather(self, rec, buf) -> int:
        """Absorb a ``p_write`` into the descriptor's write buffer,
        shipping the buffer once it holds a batch."""
        start, data, ncalls = rec.wbuf or (None, b"", 0)
        if start is not None and start + len(data) == rec.pos:
            data.extend(buf)
            rec.wbuf = (start, data, ncalls + 1)
        else:
            # What was gathered for the same path — here before a seek,
            # or through another descriptor — ships first, in program
            # order; another path's writes are another file's.
            path = normalize_path(rec.path)
            for other in list(self._link.fds.values()):
                if (other.wbuf is not None
                        and normalize_path(other.path) == path):
                    self._flush_fd_writes(other)
            data = bytearray(buf)
            rec.wbuf = (rec.pos, data, 1)
        rec.pos += len(buf)
        self.buffered_writes += 1
        if len(data) >= self.write_batch_chunks * CHUNK_SIZE:
            self._flush_fd_writes(rec)
        return len(buf)

    def p_lseek(self, fd, offset_high, offset_low, whence=0):
        self._flush_writes()
        link = self._link
        rec = link.record(fd)
        if rec is None:
            return self._call("p_lseek", fd, offset_high, offset_low, whence)
        offset = (offset_high << 32) | (offset_low & 0xFFFFFFFF)
        # Absorb the SEEK_SET on a batching client, or where the link
        # answers for the descriptor: the server's descriptor is moved
        # only when it is consulted again.
        if (whence == SEEK_SET and (self._batching or not rec.forward)
                and link.seek_set(rec, offset)):
            return offset
        link.materialize(rec)
        rec.buf = None
        rec.streak = 0
        if whence == SEEK_CUR:  # relative to the *server* position
            self._resync(rec)
        result = self._call("p_lseek", rec.fd, offset_high, offset_low,
                            whence)
        if isinstance(result, int):
            rec.pos = rec.srv_pos = result
        return result

    def p_close(self, fd):
        link = self._link
        rec = link.record(fd)
        if rec is not None and rec.readonly:
            # Nothing to reconcile: the close rides the next request.
            del link.fds[fd]
            if rec.fd is not None:
                self._ride("p_close", rec.fd)
            return None
        # Closing a written descriptor publishes its pending size.
        link.drop_read_ahead()
        if rec is not None and not rec.forward:
            # The link's write-mode descriptor: its gathered run ships
            # (one p_pwrite) and the close is the link's — unless that
            # run was its second write, which opened the server's.
            self._flush_fd_writes(rec)
            if not rec.forward:
                del link.fds[fd]
                return None
        server_fd = fd if rec is None else rec.fd
        if self._in_tx is True and self._batching and rec is not None:
            # Inside a transaction the reconcile is seen at commit, and
            # so are the buffered writes, if the reply of each — its
            # length — is known: to a plain file, inside the size limit.
            self._flush_writes(ride=all(
                r.plain and r.wbuf[0] + len(r.wbuf[1]) <= MAX_FILE_SIZE
                for r in link.fds.values() if r.wbuf is not None))
            del link.fds[fd]
            self._ride("p_close", server_fd)
            return None
        self._flush_writes()
        result = self._call("p_close", server_fd)
        link.fds.pop(fd, None)
        return result

    def p_stat(self, path, timestamp=None):
        self._flush_writes()
        self._link.drop_read_ahead()    # a stat publishes pending sizes
        return self._link.stat(path, timestamp)

    def p_readdir(self, path, timestamp=None, cookie=None, limit=None):
        # Hand-written, not generated: a generated stub would always
        # send cookie= and limit=, 16 request bytes more per unpaged
        # listing.
        self._flush_writes()
        if cookie is None and limit is None:
            return self._call("p_readdir", path, timestamp)
        return self._call("p_readdir", path, timestamp,
                          cookie=cookie, limit=limit)

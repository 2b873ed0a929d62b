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

from repro.cache.link import SessionLink
from repro.core.constants import CHUNK_SIZE, MAX_FILE_SIZE, O_RDWR, O_WRONLY
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
               "p_read calls answered from the client buffer, no RPC "
               "at all (EOF included, once a short batched reply "
               "recorded it).",
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
               "in-transaction closes).",
               "repro.core.client"),
    MetricSpec("rpc.client.filled_opens", "counter", "ops",
               "Read-only p_open exchanges whose reply carried the whole "
               "file and EOF into the read-ahead buffer.",
               "repro.core.client"),
)

#: chunks a batching client fetches per read RPC and ships per write
#: RPC: the replicated cluster's clients use it for both.
RPC_BATCH_CHUNKS = 16

_REQ_BASE = 64    # RPC header + method + fixed args
_RESP_BASE = 32   # status + fixed return


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
    them from the verb table, each one :meth:`_forward`.

    ``write_behind`` models the library's streaming of consecutive
    ``p_write`` calls: while the server chews on one write, the next
    request is already on the wire, so a sustained write sequence costs
    ``max(network, server)`` per call instead of their sum.  Reads stay
    fully synchronous — the client needs each reply before it can
    continue, which is exactly the heavyweight behaviour the paper
    complains about.

    ``read_batch_chunks`` is the sequential-read counterpart (off by
    default to preserve the paper's measured protocol; the replicated
    cluster's clients use :data:`RPC_BATCH_CHUNKS`).  With it on, once a descriptor issues
    its second consecutive sequential ``p_read`` — or its first, on a
    descriptor opened ``O_RDONLY``: the usual start-of-file read-ahead
    — the client fetches up to that many request-lengths in a single
    RPC and serves the following reads from the returned buffer, the
    NFS biod read-ahead trick, paying the per-message stack overhead
    once per window instead of once per chunk.  A batched reply shorter
    than it asked for also records EOF, so the read that finds it is
    answered from the buffer too.  Like NFS client caching, a buffered
    byte or EOF can be stale with respect to *another* client's
    concurrent writes; buffers are dropped at every transaction
    boundary, write, seek, and namespace operation of this client, and
    at a ``p_close`` or ``p_stat`` that may publish a size its own
    writes left pending.

    A read-only ``p_open`` on a read-ahead client, outside a
    transaction and with no client cache, is one exchange that also
    reads the file when the server finds it no longer than one
    read-ahead window: the reply carries the whole file and EOF into
    the descriptor's buffer, as a first read-ahead would fill it, so a
    small file is read with one message each way.  A longer file gets
    no data with its open.

    **Riders.**  A call whose reply the client already knows, and
    whose effect no other session can see before the session's next
    exchange, sends no message: it queues and rides that exchange,
    ahead of its request, adding its argument bytes to it and costing
    the server its dispatch as before.  If a rider fails on the server,
    the call it rode raises that error, and neither that call nor the
    riders behind it run.  :meth:`close` sends none of them: the
    disconnect aborts the transaction and closes every descriptor.
    These ride:

    - ``p_close`` of a read-only descriptor with no buffered writes,
      on every client: there is nothing to reconcile.  NFS has no close
      RPC at all.
    - On a client with either batch size above one (the paper's
      protocol keeps one exchange per call):

      - ``p_begin``, when this client's own begin/commit/abort
        bookkeeping says no transaction is open and it has no client
        cache (which would serve reads until the begin arrived).
        Otherwise it goes alone, and fails at the call if one is open.
      - A ``SEEK_SET`` ``p_lseek`` on a descriptor the client tracks:
        it is absorbed, and the seek the server then needs (as after a
        partly consumed buffer) rides the next request that uses the
        descriptor.
      - ``p_close`` of a written descriptor *inside* a transaction,
        whose attribute reconcile is seen at commit.  Outside one that
        close stays synchronous: its auto-commit publishes the size.

    ``write_batch_chunks`` is the symmetric write-path tunable (also
    off by default): consecutive sequential ``p_write`` calls accumulate
    in a per-descriptor buffer and ship as *one* ``p_write`` RPC of up
    to that many chunks.  The buffer is flushed before any other RPC
    of this client (reads, seeks, transaction boundaries, namespace
    operations), so this client's own operations always observe its
    writes in program order; only the per-message overhead is
    amortized.  A write through a read-only descriptor is not
    buffered: it fails at the call.

    ``cache_paths`` / ``cache_chunks`` (both off by default) enable the
    lease-coherent client cache (:mod:`repro.cache`): name→oid and
    negative lookups, fileatt rows, and chunk payloads are served
    locally with **zero** network messages, and SEEK_SET seeks on
    cached descriptors are absorbed client-side (a corrective seek is
    sent lazily only if the server is consulted again).  Unlike the
    read-ahead buffer above, cached entries are *coherent* across
    clients: the server piggybacks invalidation notices on every reply
    (emitted at writer commit time), and a revoked lease drops the
    whole cache.  Serving and filling happen only outside explicit
    transactions — transactional traffic always reaches the server.
    """

    server: InversionServer
    network: NetworkModel
    write_behind: bool = True
    read_batch_chunks: int = 1
    write_batch_chunks: int = 1
    #: client-cache capacities (0 = caching off): max path/att/negative
    #: entries and max cached chunks.  Enabling either wires leases.
    cache_paths: int = 0
    cache_chunks: int = 0
    #: optional shared :class:`repro.cache.CacheStats` so several
    #: clients of one database aggregate into one ``cache.*`` family.
    cache_stats: object = None

    def __post_init__(self) -> None:
        self._last_was_write = False
        self._pos: dict[int, int] = {}      # client-visible file position
        self._srv_pos: dict[int, int] = {}  # where the server's descriptor is
        self._streak: dict[int, int] = {}   # consecutive sequential reads
        #: fd -> (offset, bytes, EOF right after them)
        self._rdbuf: dict[int, tuple[int, bytes, bool]] = {}
        #: descriptors opened O_RDONLY
        self._readonly: set[int] = set()
        #: (method, args) of the calls waiting to ride the next request
        self._riders: list[tuple[str, tuple]] = []
        #: is a transaction open, by this client's own begin / commit /
        #: abort bookkeeping?  None once a reply left it unknown.
        self._in_tx: bool | None = False
        #: fd -> (start offset, buffered bytes, absorbed call count)
        self._wrbuf: dict[int, tuple[int, bytearray, int]] = {}
        #: RPCs that fetched more than the caller asked for.
        self.batched_reads = 0
        #: p_read calls answered from the client buffer, no RPC at all.
        self.buffered_reads = 0
        #: p_write RPCs that shipped more than one buffered call's data.
        self.batched_writes = 0
        #: p_write calls absorbed into the write buffer, no RPC at all.
        self.buffered_writes = 0
        #: calls that sent no message of their own (riders).
        self.riders = 0
        #: read-only opens whose reply carried the whole file.
        self.filled_opens = 0
        # Mirror the counters onto the server database's registry — the
        # client lives outside the Database, so it binds itself.
        self._obs = getattr(getattr(self.server.fs, "db", None), "obs", None)
        if self._obs is not None:
            self._obs.bind_client(self)
        #: fd -> oid, for descriptors whose resolution the cache knows
        #: (set at p_open from a piggybacked grant or a cached path).
        self._fdpath: dict[int, int] = {}
        factory = None
        if self.cache_paths > 0 or self.cache_chunks > 0:
            from repro.cache import session_cache_factory
            factory = session_cache_factory(self.cache_paths,
                                            self.cache_chunks,
                                            self.cache_stats)
        #: the server connection, the lease-coherent cache in front of
        #: it (if any), and every rule about when that cache may serve.
        self._link = SessionLink(self.server, factory, self._exchange)
        self._call = self._link.call
        self._cache = self._link.cache

    def close(self) -> None:
        self._flush_writes()
        self._riders.clear()    # the disconnect aborts and closes
        self._link.close()

    @property
    def _batching(self) -> bool:
        """Either batch size above one: the light protocol's riders."""
        return self.read_batch_chunks > 1 or self.write_batch_chunks > 1

    def _ride(self, method: str, *args) -> None:
        """Queue a call whose reply is known to ride the next request."""
        self._riders.append((method, args))
        self.riders += 1

    def _seek_server(self, fd: int, pos: int) -> None:
        """Move the server's descriptor to ``pos``: a rider on a
        batching client, an exchange of its own on the paper's."""
        if self._batching:
            self._ride("p_lseek", fd, pos >> 32, pos & 0xFFFFFFFF, 0)
        else:
            self._call("p_lseek", fd, pos >> 32, pos & 0xFFFFFFFF, 0)
        self._srv_pos[fd] = pos

    # -- read-batching bookkeeping ----------------------------------------

    def _track_fd(self, fd, readonly: bool = False) -> None:
        if isinstance(fd, int):
            self._pos[fd] = self._srv_pos[fd] = 0
            self._streak[fd] = 0
            if readonly:
                # A read-only file is read from the top: its first read
                # counts as sequential.
                self._readonly.add(fd)
                self._streak[fd] = 1

    def _forget_fd(self, fd) -> None:
        for store in (self._pos, self._srv_pos, self._streak, self._rdbuf,
                      self._wrbuf, self._fdpath):
            store.pop(fd, None)
        self._readonly.discard(fd)

    def _drop_buffers(self) -> None:
        """Invalidate all read-ahead state (transaction boundaries and
        namespace changes may change what any position holds)."""
        self._rdbuf.clear()
        for fd in self._streak:
            self._streak[fd] = 0

    def _resync(self, fd: int) -> None:
        """Bring the server's descriptor back to the client's position
        after a partially consumed read-ahead (one corrective seek)."""
        pos = self._pos.get(fd)
        if pos is None or self._srv_pos.get(fd, pos) == pos:
            return
        self._seek_server(fd, pos)

    # -- write-batching bookkeeping ---------------------------------------

    def _flush_fd_writes(self, fd: int) -> None:
        """Ship one descriptor's buffered writes as a single ``p_write``
        RPC (with a corrective seek first if the server's descriptor
        has drifted from the buffer's start)."""
        wb = self._wrbuf.pop(fd, None)
        if wb is None:
            return
        start, data, ncalls = wb
        if self._srv_pos.get(fd, start) != start:
            self._seek_server(fd, start)
        self._call("p_write", fd, bytes(data))
        self._srv_pos[fd] = start + len(data)
        if ncalls > 1:
            self.batched_writes += 1

    def _flush_writes(self) -> None:
        """Ship every descriptor's buffered writes — called before any
        RPC other than an absorbed sequential write, so this client's
        operations observe its writes in program order."""
        for fd in list(self._wrbuf):
            self._flush_fd_writes(fd)

    # -- the wire -----------------------------------------------------------

    def _exchange(self, conn: int, method: str, *args, **kwargs):
        """The link's transport: one exchange carrying ``method``."""
        return self._round_trip(
            method, _arg_bytes(args, kwargs),
            lambda: self.server.dispatch(conn, method, *args, **kwargs))

    def _round_trip(self, method: str, arg_bytes: int, serve):
        """One synchronous request/response over the simulated network:
        the request travels with every queued rider ahead of it, the
        server runs the riders and then ``serve()``, and the response
        returns."""
        riders, self._riders = self._riders, []
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
        the verb opens (``p_creat``) enters the position tables."""
        self._flush_writes()
        if verb.drops_buffers:
            self._drop_buffers()
        if verb.kind == TX:
            return self._transaction(verb.name)
        result = self._call(verb.name, *args)
        if verb.fd == OPENS:
            self._track_fd(result)
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
        fd, oid = self._link.open(fname, mode, timestamp)
        self._track_fd(fd, readonly=readonly)
        if oid is not None and isinstance(fd, int):
            self._fdpath[fd] = oid
        return fd

    def _open_filled(self, fname, mode, timestamp):
        """A read-only open that brings a small file along: one exchange
        runs ``p_open`` and, when the server finds the file no longer
        than one read-ahead window, a read of that window on the
        descriptor it returned.  The bytes and EOF fill the read-ahead
        buffer; ``p_open``'s errors are still ``p_open``'s.  Not inside
        a transaction: there the read would open the descriptor's
        server-side handle at the open, and the handle keeps the size
        it saw, which a later close of another descriptor can grow."""
        window = self.read_batch_chunks * CHUNK_SIZE
        server, conn = self.server, self._link.conn

        def serve():
            fd = server.dispatch(conn, "p_open", fname, mode, timestamp)
            size = server.readable_size(conn, fd)
            if size is None or size > window:
                return fd, None
            return fd, server.dispatch(conn, "p_read", fd, window)

        fd, data = self._round_trip(
            "p_open", _arg_bytes((fname, mode, timestamp, window), {}), serve)
        self._track_fd(fd, readonly=True)
        if data is not None:
            self._rdbuf[fd] = (0, data, True)
            self._srv_pos[fd] = len(data)
            self.filled_opens += 1
        return fd

    def p_read(self, fd, length):
        self._flush_writes()
        pos = self._pos.get(fd)
        if pos is None or length <= 0:
            return self._call("p_read", fd, length)
        oid = self._fdpath.get(fd)
        buf = self._rdbuf.get(fd)
        if buf is not None:
            start, data, at_eof = buf
            if start == pos and (at_eof or len(data) >= length):
                piece, rest = data[:length], data[length:]
                self._pos[fd] = pos = pos + len(piece)
                if rest or at_eof:
                    self._rdbuf[fd] = (pos, rest, at_eof)
                else:
                    del self._rdbuf[fd]
                self.buffered_reads += 1
                return piece
            # Unusable (seeked away, or too little left): refetch.
            del self._rdbuf[fd]
        if oid is not None:
            served = self._link.read_hit(oid, pos, length)
            if served is not None:
                self._pos[fd] = pos + len(served)
                return served
        self._resync(fd)
        streak = self._streak.get(fd, 0)
        # The first read of a streak fetches exactly what was asked —
        # batching only kicks in once the access pattern has proven
        # sequential, so a lone random read never over-fetches.
        want = length * self.read_batch_chunks if streak >= 1 else length
        result = self._call("p_read", fd, want)
        self._srv_pos[fd] = pos + len(result)
        if oid is not None:
            self._link.read_fill(oid, pos, result)
        piece = result[:length]
        self._pos[fd] = pos + len(piece)
        # A batched reply shorter than it asked for ends at EOF.
        at_eof = length < want and len(result) < want
        if len(result) > length or at_eof:
            self._rdbuf[fd] = (self._pos[fd], result[length:], at_eof)
        if len(result) > length:
            self.batched_reads += 1
        self._streak[fd] = streak + 1
        return piece

    def p_write(self, fd, buf):
        if (self.write_batch_chunks > 1 and isinstance(fd, int)
                and fd in self._pos and fd not in self._readonly):
            # Another descriptor may hold this file's bytes read ahead.
            self._rdbuf.clear()
            self._streak[fd] = 0
            pos = self._pos[fd]
            limit = self.write_batch_chunks * CHUNK_SIZE
            wb = self._wrbuf.get(fd)
            if wb is not None:
                start, data, ncalls = wb
                if start + len(data) == pos:
                    data.extend(buf)
                    self._wrbuf[fd] = (start, data, ncalls + 1)
                    self._pos[fd] = pos + len(buf)
                    self.buffered_writes += 1
                    if len(data) >= limit:
                        self._flush_fd_writes(fd)
                    return len(buf)
                # Not contiguous with the buffer (a seek happened):
                # ship what we have and start over at the new position.
                self._flush_fd_writes(fd)
            self._wrbuf[fd] = (pos, bytearray(buf), 1)
            self._pos[fd] = pos + len(buf)
            self.buffered_writes += 1
            if len(buf) >= limit:
                self._flush_fd_writes(fd)
            return len(buf)
        if fd in self._pos:
            self._rdbuf.clear()
            self._streak[fd] = 0
            self._resync(fd)
            result = self._call("p_write", fd, buf)
            written = result if isinstance(result, int) else len(buf)
            self._pos[fd] += written
            self._srv_pos[fd] = self._pos[fd]
            return result
        return self._call("p_write", fd, buf)

    def p_lseek(self, fd, offset_high, offset_low, whence=0):
        self._flush_writes()
        offset = (offset_high << 32) | (offset_low & 0xFFFFFFFF)
        if whence == 0 and fd in self._pos and (
                fd in self._fdpath and self._link.seek_hit()
                or self._batching and offset <= MAX_FILE_SIZE):
            # Absorb the SEEK_SET: record the position client-side and
            # repay it with one corrective seek only if the server is
            # consulted again for this descriptor (_resync) — a rider on
            # a batching client.  Its reply is the offset: the server's
            # seek refuses only a negative one or one past the limit.
            self._rdbuf.pop(fd, None)
            self._streak[fd] = 0
            self._pos[fd] = offset
            return offset
        if fd in self._pos:
            self._rdbuf.pop(fd, None)
            self._streak[fd] = 0
            if whence == 1:  # SEEK_CUR is relative to the *server* pos
                self._resync(fd)
            result = self._call("p_lseek", fd, offset_high, offset_low, whence)
            if isinstance(result, int):
                self._pos[fd] = self._srv_pos[fd] = result
            return result
        return self._call("p_lseek", fd, offset_high, offset_low, whence)

    def p_close(self, fd):
        if fd in self._readonly and fd not in self._wrbuf:
            # Nothing to reconcile: the close rides the next request.
            self._forget_fd(fd)
            self._ride("p_close", fd)
            return None
        self._flush_writes()
        # Closing a written descriptor publishes its pending size.
        self._rdbuf.clear()
        if self._in_tx is True and self._batching and fd in self._pos:
            # Inside a transaction the reconcile is seen at commit.
            self._forget_fd(fd)
            self._ride("p_close", fd)
            return None
        result = self._call("p_close", fd)
        self._forget_fd(fd)
        return result

    def p_stat(self, path, timestamp=None):
        self._flush_writes()
        self._rdbuf.clear()     # a stat publishes pending sizes too
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


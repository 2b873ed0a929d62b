"""Server side of the client/server configuration.

The paper's measurements compare two access paths to the same file
system: a remote client speaking a TCP/IP RPC to the data manager
("client/server Inversion"), and code dynamically loaded into the data
manager itself ("single process"), where "the benchmark and the file
system are running in the same address space, and no data must be
copied between them".

:class:`InversionServer` is the in-data-manager dispatcher: it owns one
:class:`~repro.core.library.InversionClient` session per connection and
charges per-request dispatch CPU.  The network is *not* modelled here —
:class:`repro.core.client.RemoteInversionClient` charges the wire.
"""

from __future__ import annotations

from hashlib import sha256

from repro.core.constants import CHUNK_SIZE, TYPE_DIRECTORY
from repro.core.filesystem import InversionFS
from repro.core.library import InversionClient
from repro.core.protocol import OPENS, VERBS
from repro.db.transactions import PREPARED
from repro.errors import InversionError
from repro.obs.registry import counter, metric_stats


@metric_stats("rpc")
class RpcStats:
    """The session's RPC dispatches, by method (one instance on the
    session's :class:`~repro.obs.Observability`, whichever server
    dispatched them)."""

    dispatches: dict = counter(
        "calls", "RPC requests dispatched into the file system, by "
        "method.", labels=("method",))


class InversionServer:
    """Dispatches RPC requests into the file system: any verb of
    :data:`repro.core.protocol.VERBS`, and nothing else."""

    def __init__(self, fs: InversionFS) -> None:
        self.fs = fs
        self._sessions: dict[int, InversionClient] = {}
        self._next_session = 1
        #: :class:`~repro.cache.leases.LeaseManager` once any client
        #: enables caching (:meth:`enable_leases`); None = no lease
        #: bookkeeping at all, the zero-overhead default.
        self.leases = None
        #: ``(session id, fd, error)`` per abort (fd None) or close that
        #: :meth:`disconnect` could not finish: teardown goes on, and
        #: what it dropped is kept here.
        self.teardown_errors: list[tuple[int, int | None, str]] = []

    def enable_leases(self):
        """Turn on lease bookkeeping for this server (idempotent).
        Shares the file system's manager if another server on the same
        ``fs`` already enabled it, so epochs stay one space."""
        if self.leases is None:
            from repro.cache.leases import LeaseManager
            manager = getattr(self.fs, "lease_manager", None)
            if manager is None:
                manager = LeaseManager()
                self.fs.attach_leases(manager)
            self.leases = manager
            obs = getattr(self.fs.db, "obs", None)
            if obs is not None:
                obs.metrics.mirror_all(manager.stats)
        return self.leases

    def session_tx(self, session_id: int):
        """The session's open explicit transaction, or None (also for
        a session that is gone)."""
        session = self._sessions.get(session_id)
        return None if session is None else session._tx

    def in_transaction(self, session_id: int) -> bool:
        """Is the session inside an explicit transaction?  Client
        caches refuse to serve or fill transactional traffic."""
        return self.session_tx(session_id) is not None

    def readable_size(self, session_id: int, fd) -> int | None:
        """The size a read through the session's descriptor ``fd``
        would find, or None when no read through it returns bytes (a
        directory).  Lets a read-only open check, in the same exchange,
        whether the file fits the client's read-ahead window."""
        session = self._sessions[session_id]
        desc = session._fds[fd]
        tx = session._tx
        att = self.fs.fileatt.get(
            desc.fileid, self.fs._snap(tx, desc.timestamp), tx)
        if att.type == TYPE_DIRECTORY:
            return None
        return att.size

    def compare_chunks(self, data: bytes, digests) -> list:
        """``data`` cut into chunks, with each chunk whose SHA-256
        digest is ``digests[i]`` — the client's copy at the same index —
        replaced by None, the reply's 8-byte "unchanged" marker.  Lets
        a read-only open ship only the chunks a client's copy lacks;
        charges one buffer copy per chunk hashed."""
        chunks = [data[i:i + CHUNK_SIZE]
                  for i in range(0, len(data), CHUNK_SIZE)]
        hashed = min(len(chunks), len(digests))
        if hashed and self.fs.db.cpu is not None:
            self.fs.db.cpu.buffer_copy(hashed)
        for i in range(hashed):
            if sha256(chunks[i]).digest() == digests[i]:
                chunks[i] = None
        return chunks

    def pread_att(self, session_id: int):
        """What the reply to a leased session's ``p_pread`` carries
        beside its bytes: the fileatt row the read found, in the read's
        own snapshot, so the client cache can keep the chunks it
        fetched.  None for a session holding no lease, a read inside a
        transaction (its snapshot may hold uncommitted writes), a read
        that failed, and a file on which a descriptor of the session
        holds a size its auto-commit writes left pending (the file's
        row lags it until a ``p_stat`` or close publishes it)."""
        session = self._sessions.get(session_id)
        if (session is None or self.leases is None
                or not self.leases.subscribed(session_id)
                or session._tx is not None):
            return None
        att = session.pread_att
        if att is None or any(desc.fileid == att.file
                              and desc.pending_size is not None
                              for desc in session._fds.values()):
            return None
        return att

    def session_last_xid(self, session_id: int) -> int | None:
        """xid of the session's most recent transaction (cache fills
        stamp chunk entries with it for per-tx hit accounting)."""
        session = self._sessions.get(session_id)
        return None if session is None else session.last_xid

    def connect(self) -> int:
        """Open a session; returns a connection id."""
        session_id = self._next_session
        self._next_session += 1
        self._sessions[session_id] = InversionClient(self.fs)
        return session_id

    def disconnect(self, session_id: int) -> None:
        """Tear down a session — including one that died mid-transaction
        with buffered writes still unreconciled.  The open transaction
        is aborted (running its abort hooks), and its locks are released
        even if a hook or the abort's status append fails; without that
        guarantee a dying session would strand exclusive locks and
        deadlock every other session touching the same files.  Surviving
        descriptors are then closed so attribute updates left pending by
        auto-commit writes are reconciled rather than silently dropped
        (their chunk data already committed; only fileatt lagged).  An
        abort or close that fails is kept in :attr:`teardown_errors`.

        One exception: a PREPARED (in-doubt 2PC) transaction must
        *survive* its session.  Its fate belongs to the coordinator's
        decision log, so aborting it here would break cross-shard
        atomicity; it keeps its locks and its prepared record until
        ``resolve_prepared``/``resolve_in_doubt`` delivers the
        decision.  Descriptor reconciliation is skipped too — it would
        open an auto-commit transaction that blocks on the prepared
        transaction's own locks."""
        if self.leases is not None:
            # Revoke first: a crashed client must never shield a stale
            # cache entry behind a lease the server still honours.
            self.leases.revoke(session_id)
        session = self._sessions.pop(session_id, None)
        if session is None:
            return
        tx = session._tx
        if tx is not None and tx.state == PREPARED:
            session._tx = None
            session._fds.clear()
            return
        if tx is not None:
            try:
                session.p_abort()
            except Exception as exc:
                # The session is dead — a failing abort hook (or status
                # append) must not leave teardown half-done.
                self.teardown_errors.append((session_id, None, repr(exc)))
            finally:
                session._tx = None
                self.fs.db.locks.release_all(tx)
        for fd in list(session._fds):
            try:
                session.p_close(fd)
            except Exception as exc:
                # The fd's pending size never reaches fileatt.
                self.teardown_errors.append((session_id, fd, repr(exc)))
                session._fds.pop(fd, None)

    def dispatch(self, session_id: int, method: str, *args, **kwargs):
        """Execute one request for a session, charging dispatch CPU."""
        verb = VERBS.get(method)
        if verb is None:
            raise InversionError(f"unknown RPC method {method!r}")
        session = self._sessions.get(session_id)
        if session is None:
            raise InversionError(f"no session {session_id}")
        # Reject malformed requests at the RPC boundary: a remote
        # caller's bad arity must surface as a protocol error, not as a
        # bare TypeError escaping from deep inside the library.
        try:
            verb.bind(*args, **kwargs)
        except TypeError as exc:
            raise InversionError(
                f"bad arguments for RPC method {method!r}: {exc}") from None
        if self.fs.db.cpu is not None:
            self.fs.db.cpu.rpc_dispatch()
        obs = self.fs.db.obs
        if obs is not None:
            obs.rpc_dispatch(method)
            if obs.tracer.enabled:
                with obs.tracer.span("rpc.dispatch", method=method,
                                     session=session_id):
                    result = getattr(session, method)(*args, **kwargs)
            else:
                result = getattr(session, method)(*args, **kwargs)
        else:
            result = getattr(session, method)(*args, **kwargs)
        if self.leases is not None:
            self._lease_post(session_id, session, verb, result)
        return result

    def _lease_post(self, session_id: int, session: InversionClient,
                    verb, result) -> None:
        """Piggyback lease traffic on a successful reply."""
        if verb.fd == OPENS:
            desc = session._fds.get(result)
            if desc is not None and desc.timestamp is None:
                # The resolution in the reply lets the client pre-fill
                # its path cache without a stat round trip.
                self.leases.grant(session_id, desc.path, desc.fileid)
        elif verb.name == "p_query":
            # POSTQUEL mutation statements bypass the fs hooks, so
            # invalidate conservatively.  Queued if the session is in a
            # transaction; for auto-commit p_query the library already
            # committed, so the bump emits immediately.
            self.leases.bump_all(session._tx)

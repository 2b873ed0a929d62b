"""The sharded client library.

:class:`ShardedInversionClient` exposes the same ``p_*`` surface as
:class:`~repro.core.library.InversionClient`, but in front of a
:class:`~repro.shard.cluster.ShardedCluster`.  The design rule is that
**the common case stays strictly single-shard**: path resolution, read,
write, create, and a single-file commit each touch exactly one shard
(the router is a pure function of the path's top-level component), so
a transaction whose writes stay inside one subtree pays zero
coordination messages — its commit is the ordinary local commit.

Cluster transactions enlist shards lazily: the first request routed to
a shard inside an open transaction sends that shard a ``p_begin``.  At
``p_commit`` the client counts the shards that actually *wrote*; one
writer (or none) commits locally, two or more run the two-phase
protocol (:mod:`repro.shard.twophase`).

Some operations are inherently multi-shard and are composed here:

- ``p_readdir("/")`` — the root directory exists on every shard; the
  listing is the sorted union of the shards' root listings.
- ``p_rename`` across shards — there is no shared storage to move, so
  the client *moves the bytes*: copy the file (or subtree, depth
  first) to the destination shard, then unlink the source, all inside
  one cluster transaction whose 2PC commit makes the move atomic:
  every observer sees the old name or the new name, never both and
  never neither.
- ``p_reflink`` / ``p_concat`` / ``p_slice`` across shards — for the
  same reason a copy of the bytes, inside one cluster transaction.
"""

from __future__ import annotations

from functools import partial

from repro.cache.link import SessionLink
from repro.core.constants import CHUNK_SIZE, O_RDONLY, O_RDWR
from repro.core.protocol import CLOSES, OPENS, SHARDED, exposes
from repro.errors import (
    BadFileDescriptorError,
    FileExistsError_,
    FileNotFoundError_,
    IsADirectoryError_,
    StructuralOpError,
    TransactionError,
)
from repro.shard.twophase import TwoPhaseCoordinator

_DIRECTORY = "directory"


@exposes(SHARDED)
class ShardedInversionClient:
    """One application's session with a sharded cluster: lazy per-shard
    server links, one cluster-level transaction at a time.

    Verbs addressed by paths or by a descriptor are not written out
    here: :func:`repro.core.protocol.exposes` generates them from the
    verb table, each one :meth:`_forward` (route, translate the
    descriptor, enlist the shard, one request through its link), or
    its ``_across_<verb>`` composite when its paths span shards.  What
    stays hand-written is transaction control and the root's
    ``p_readdir``."""

    def __init__(self, cluster, cache_factory=None) -> None:
        self.cluster = cluster
        self.coordinator = TwoPhaseCoordinator(cluster)
        #: shard → :class:`~repro.cache.link.SessionLink` (opened on
        #: first use).
        self._links: dict[int, SessionLink] = {}
        self._in_tx = False
        #: shards enlisted in the open transaction, enlistment order.
        self._tx_shards: list[int] = []
        #: cluster fd → (shard, inner fd).
        self._fds: dict[int, tuple[int, int]] = {}
        self._next_fd = 3
        #: router-aware caching: ``cache_factory(server, conn)`` builds
        #: one lease-coherent cache per shard (each shard has its own
        #: epoch space); every link serves from it by the same rules.
        self._cache_factory = cache_factory

    # -- plumbing --------------------------------------------------------

    def _route(self, path: str) -> int:
        return self.cluster.router.route(path)

    def _link(self, shard: int) -> SessionLink:
        link = self._links.get(shard)
        if link is None:
            link = self._links[shard] = SessionLink(
                self.cluster.servers[shard], self._cache_factory,
                partial(self._exchange, shard))
        return link

    def _call(self, shard: int, method: str, *args, **kwargs):
        return self._link(shard).call(method, *args, **kwargs)

    def _enlist(self, shard: int, conn: int) -> None:
        """Enlist ``shard`` in the open cluster transaction (its
        ``p_begin``), once."""
        if shard not in self._tx_shards:
            self._tx_shards.append(shard)
            if shard != self._tx_shards[0]:
                self.cluster.stats.cross_shard_messages += 1
            self.cluster.dispatch(shard, conn, "p_begin")

    def _exchange(self, shard: int, conn: int, method: str, *args, **kwargs):
        """A shard link's transport: one request to one shard,
        enlisting it in the open cluster transaction first.  Any
        message to a shard other than the transaction's first shard
        counts as cross-shard traffic."""
        if self._in_tx:
            self._enlist(shard, conn)
            if shard != self._tx_shards[0]:
                self.cluster.stats.cross_shard_messages += 1
        return self.cluster.dispatch(shard, conn, method, *args, **kwargs)

    def _request(self, shard: int, method: str, *args):
        """One verb through the shard's link, its shard enlisted first:
        the link then sees the cluster transaction as the shard's own,
        and its rules (link-local descriptors outside one, the server's
        inside) decide exactly as they do for any session."""
        link = self._link(shard)
        if self._in_tx:
            self._enlist(shard, link.conn)
        return link.request(method, *args)

    def _forward(self, verb, args: tuple):
        """Body of every generated verb: find the shard (by every path
        the verb names, or by the descriptor's owner), send, and keep
        the cluster descriptor table in step.  A verb whose paths land
        on more than one shard runs its cross-shard composite
        (``_across_<verb>``) instead."""
        if verb.fd in (None, OPENS):
            shards = {self._route(path) for i in verb.paths
                      for path in ([args[i]] if isinstance(args[i], str)
                                   else args[i])}
            if len(shards) > 1:
                return getattr(self, "_across" + verb.name[1:])(*args)
            (shard,) = shards
            result = self._request(shard, verb.name, *args)
            return self._register_fd(shard, result) if verb.fd else result
        fd = args[0]
        shard, inner = self._fd(fd)
        result = self._request(shard, verb.name, inner, *args[1:])
        if verb.fd == CLOSES:
            del self._fds[fd]
        return result

    def _tx_wrote(self, shard: int) -> bool:
        """Did this shard's local transaction write?  Open handles with
        buffered-but-unflushed data count: their flush at prepare or
        commit will mark the transaction as writing."""
        tx = self._links[shard].tx()
        if tx is None:
            return False
        if tx.wrote:
            return True
        fs = self.cluster.fss[shard]
        return any(h.tx is tx and h._open and h._wrote
                   for h in fs._handles)

    def xid_on(self, shard: int) -> int | None:
        """The session's open xid on ``shard``, if any (the sharded
        scheduler's lock-suspension seam)."""
        link = self._links.get(shard)
        return None if link is None else link.xid()

    def close(self) -> None:
        for link in self._links.values():
            link.close()
        self._links.clear()
        self._in_tx = False
        self._tx_shards = []
        self._fds.clear()

    # -- transactions ----------------------------------------------------

    def p_begin(self) -> None:
        if self._in_tx:
            raise TransactionError(
                "only one transaction may be active at any time")
        self._in_tx = True
        self._tx_shards = []

    def p_abort(self) -> None:
        if not self._in_tx:
            raise TransactionError("no transaction in progress")
        try:
            self.coordinator.abort_group(self._links, self._tx_shards)
        finally:
            self._in_tx = False
            self._tx_shards = []

    def p_commit(self) -> None:
        if not self._in_tx:
            raise TransactionError("no transaction in progress")
        participants = list(self._tx_shards)
        try:
            writers = [s for s in participants if self._tx_wrote(s)]
            if len(writers) >= 2:
                self.coordinator.commit_group(self._links, participants,
                                              writers)
                self.cluster.stats.cross_shard_txns += 1
            else:
                # At most one shard wrote: the local commit *is* the
                # atomic commit point; read-only enlistments have
                # nothing durable to coordinate.
                for shard in participants:
                    self.cluster.dispatch(shard, self._links[shard].conn,
                                          "p_commit")
                if participants:
                    self.cluster.stats.single_shard_txns += 1
        finally:
            self._in_tx = False
            self._tx_shards = []

    def in_transaction(self) -> bool:
        return self._in_tx

    # -- file descriptors -------------------------------------------------

    def _register_fd(self, shard: int, inner_fd: int) -> int:
        fd = self._next_fd
        self._next_fd += 1
        self._fds[fd] = (shard, inner_fd)
        return fd

    def _fd(self, fd: int) -> tuple[int, int]:
        entry = self._fds.get(fd)
        if entry is None:
            raise BadFileDescriptorError(f"bad file descriptor {fd}")
        return entry

    # -- namespace --------------------------------------------------------

    def p_readdir(self, path: str,
                  timestamp: float | None = None,
                  cookie: str | None = None, limit: int | None = None):
        if path.strip("/"):
            return self._call(self._route(path), "p_readdir", path,
                              timestamp, cookie, limit)
        # The root is the one directory that spans shards: its listing
        # is the union of every shard's root entries (disjoint by
        # construction — each top-level name lives only on its owner).
        if cookie is None and limit is None:
            names: list[str] = []
            for shard in range(self.cluster.nshards):
                names.extend(self._call(shard, "p_readdir", "/", timestamp))
            return sorted(names)
        # Paged root listing: one page per shard, merged.  The cookie
        # is a name watermark, so it means the same thing on every
        # shard.  A shard that reports more entries bounds how far the
        # merge may safely advance (its unfetched names could fall
        # below another shard's page tail), so only names up to the
        # smallest such page tail are taken this round.
        candidates: list[str] = []
        tails: list[str] = []
        more_shards = False
        for shard in range(self.cluster.nshards):
            names, nxt = self._call(shard, "p_readdir", "/", timestamp,
                                    cookie=cookie, limit=limit)
            candidates.extend(names)
            if nxt is not None:
                more_shards = True
                if names:
                    tails.append(names[-1])
        candidates.sort()
        bound = min(tails) if tails else None
        eligible = [n for n in candidates if bound is None or n <= bound]
        out = eligible[:limit] if limit is not None else eligible
        more = more_shards or len(out) < len(candidates)
        return out, (out[-1] if out and more else None)

    # -- the cross-shard composites -----------------------------------------

    def _across_rename(self, old: str, new: str) -> None:
        src, dst = self._route(old), self._route(new)

        def run() -> None:
            if not old.strip("/"):
                raise FileNotFoundError_("cannot rename the root directory")
            st = self._call(src, "p_stat", old)  # raises if old is missing
            try:
                self._call(dst, "p_stat", new)
            except FileNotFoundError_:
                pass
            else:
                raise FileExistsError_(f"{new!r} already exists")
            if st.type == _DIRECTORY:
                self._move_dir(old, new, src, dst)
            else:
                self._move_file(old, new, st.size)
        self._own_tx(run)

    def _move_file(self, old: str, new: str, size: int) -> None:
        self._write_new(new, self._read_whole(old, size), None)
        self._call(self._route(old), "p_unlink", old)

    # Shards share no storage, so a structural op whose names span
    # shards copies the bytes instead of referencing them, inside one
    # cluster transaction (its 2PC commit still makes the copy atomic).

    def _across_reflink(self, src: str, dst: str,
                        device: str | None) -> tuple[int, int]:
        return self._own_tx(lambda: self._copy_physical([src], dst, device))

    def _across_concat(self, srcs, dst: str,
                       device: str | None) -> tuple[int, int]:
        for path in srcs[:-1]:
            st = self._call(self._route(path), "p_stat", path)
            if st.size % CHUNK_SIZE:
                raise StructuralOpError(
                    f"concat source {path!r} size {st.size} is not "
                    f"chunk-aligned ({CHUNK_SIZE})")
        return self._own_tx(lambda: self._copy_physical(srcs, dst, device))

    def _across_slice(self, src: str, lo: int, hi: int, dst: str,
                      device: str | None) -> tuple[int, int]:
        if lo % CHUNK_SIZE:
            raise StructuralOpError(
                f"slice start {lo} is not chunk-aligned ({CHUNK_SIZE})")
        st = self._call(self._route(src), "p_stat", src)
        if not (0 <= lo <= hi <= st.size):
            raise StructuralOpError(
                f"slice range [{lo}, {hi}) outside file of {st.size} bytes")

        def run() -> tuple[int, int]:
            data = self._read_whole(src)[lo:hi]
            return self._write_new(dst, data, device)
        return self._own_tx(run)

    def _own_tx(self, fn):
        """Run a multi-shard composite in the open cluster transaction,
        or in its own one (two writers → 2PC), mirroring the library's
        per-call transaction for single-shard requests."""
        if self._in_tx:
            return fn()
        self.p_begin()
        try:
            result = fn()
        except BaseException:
            self.p_abort()
            raise
        self.p_commit()
        return result

    def _read_whole(self, path: str, size: int | None = None) -> bytes:
        shard = self._route(path)
        if size is None:
            st = self._call(shard, "p_stat", path)
            if st.type == _DIRECTORY:
                raise IsADirectoryError_(f"{path!r} is a directory")
            size = st.size
        fd = self._call(shard, "p_open", path, O_RDONLY)
        data = self._call(shard, "p_read", fd, size) if size else b""
        self._call(shard, "p_close", fd)
        return data

    def _write_new(self, dst: str, data: bytes,
                   device: str | None) -> tuple[int, int]:
        shard = self._route(dst)
        fd = self._call(shard, "p_creat", dst, O_RDWR, device=device)
        if data:
            self._call(shard, "p_write", fd, data)
        self._call(shard, "p_close", fd)
        return 0, (len(data) + CHUNK_SIZE - 1) // CHUNK_SIZE

    def _copy_physical(self, srcs, dst: str,
                       device: str | None) -> tuple[int, int]:
        data = b"".join(self._read_whole(p) for p in srcs)
        return self._write_new(dst, data, device)

    def _move_dir(self, old: str, new: str, src: int, dst: int) -> None:
        """Depth-first subtree move.  Every child of ``old`` lives on
        the source shard (routing is by top-level component), so the
        recursion never fans out to more shards."""
        self._call(dst, "p_mkdir", new)
        for name in self._call(src, "p_readdir", old):
            child_old = old.rstrip("/") + "/" + name
            child_new = new.rstrip("/") + "/" + name
            child_st = self._call(src, "p_stat", child_old)
            if child_st.type == _DIRECTORY:
                self._move_dir(child_old, child_new, src, dst)
            else:
                self._move_file(child_old, child_new, child_st.size)
        self._call(src, "p_rmdir", old)

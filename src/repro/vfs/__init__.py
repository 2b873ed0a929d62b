"""repro.vfs — the transactional POSIX-flavored surface.

Applications talk to Inversion through :class:`~repro.vfs.api.VFS`:
open/read/write/lseek/close plus rename/unlink/mkdir/readdir/stat/
truncate, with ``begin()/commit()/abort()`` making one transaction
span any number of files and directories — a group rename, an
all-or-nothing multi-file write, an atomic build-tree publish.  The
layer is client-agnostic: the same code runs over the in-process
:class:`~repro.core.library.InversionClient`, the remote
:class:`~repro.core.client.RemoteInversionClient` (cached or not), and
the :class:`~repro.shard.client.ShardedInversionClient` (cross-shard
groups ride the existing 2PC).

The headline structural ops — :meth:`~repro.vfs.api.VFS.reflink`,
:meth:`~repro.vfs.api.VFS.concat`, :meth:`~repro.vfs.api.VFS.slice` —
copy chunk-table *rows* (pointer remaps) instead of data:
O(chunks-touched) metadata writes, zero payload movement, with
copy-on-write preserved for free by the no-overwrite storage manager.
:class:`~repro.core.checker.ConsistencyChecker` holds the matching
invariant — referenced chunk versions are never vacuumed while
reachable — so every crash sweep, ``python -m repro.fs check`` and the
benchmark's end-state verify judge it.
"""

from repro.vfs.api import VFS

__all__ = ["VFS"]

"""The differential file-system oracle.

:class:`ModelFS` is a dict-based model of the visible state of one
Inversion mount: path → file bytes, or ``None`` for a directory.  The
crash-schedule explorer applies a workload's operations to the model
only when the corresponding transaction's commit record became durable,
so after a crash the model holds exactly what the recovered database
must show.  The Hypothesis differential suite drives the same model
against :class:`~repro.core.filesystem.InversionFS` with random
operation sequences and commit/abort interleavings.

Semantics mirror ``InversionFS`` deliberately, including the subtle
ones: a whole-file overwrite with *shorter* data leaves the old tail in
place (``write_file`` writes from offset 0 and file size only grows),
and ``rename`` requires the target name to be free.
"""

from __future__ import annotations

from repro.core.constants import CHUNK_SIZE
from repro.errors import InversionError


class ModelError(InversionError):
    """The model rejected an operation the real fs should also reject."""


def _parent(path: str) -> str:
    head, _sep, _tail = path.rpartition("/")
    return head or "/"


class ModelFS:
    """In-memory model: ``entries[path]`` is ``bytes`` for a plain file,
    ``None`` for a directory.  The root directory is implicit."""

    def __init__(self, entries: dict[str, bytes | None] | None = None) -> None:
        self.entries: dict[str, bytes | None] = dict(entries or {})

    def copy(self) -> "ModelFS":
        return ModelFS(self.entries)

    # -- interrogation ----------------------------------------------------

    def exists(self, path: str) -> bool:
        return path == "/" or path in self.entries

    def is_dir(self, path: str) -> bool:
        return path == "/" or (path in self.entries
                               and self.entries[path] is None)

    def is_file(self, path: str) -> bool:
        return isinstance(self.entries.get(path), bytes)

    def children(self, path: str) -> list[str]:
        prefix = "/" if path == "/" else path + "/"
        return [p for p in self.entries
                if p.startswith(prefix) and "/" not in p[len(prefix):]]

    def state(self) -> dict[str, bytes | None]:
        """An immutable-ish snapshot for equality comparison."""
        return dict(self.entries)

    # -- validity ---------------------------------------------------------

    def why_invalid(self, op: tuple) -> str | None:
        """None if the fs should accept ``op``, else a reason string —
        the same acceptance rules InversionFS enforces."""
        kind, args = op[0], op[1:]
        if kind == "mkdir":
            (path,) = args
            if not self.is_dir(_parent(path)):
                return "parent is not an existing directory"
            if self.exists(path):
                return "path already exists"
        elif kind == "write":
            path = args[0]
            if not self.is_dir(_parent(path)):
                return "parent is not an existing directory"
            if self.is_dir(path):
                return "path is a directory"
        elif kind == "unlink":
            (path,) = args
            if not self.is_file(path):
                return "not an existing plain file"
        elif kind == "rmdir":
            (path,) = args
            if path == "/" or not self.is_dir(path):
                return "not a removable directory"
            if self.children(path):
                return "directory not empty"
        elif kind == "rename":
            old, new = args
            if old == "/" or not self.exists(old):
                return "source does not exist"
            if self.exists(new):
                return "target already exists"
            if not self.is_dir(_parent(new)):
                return "target parent is not an existing directory"
            if new == old or new.startswith(old + "/"):
                return "target inside source subtree"
        elif kind == "reflink":
            src, dst = args
            return self._why_invalid_clone_dst((src,), dst)
        elif kind == "concat":
            srcs, dst = args
            if not srcs:
                return "no sources"
            reason = self._why_invalid_clone_dst(srcs, dst)
            if reason is not None:
                return reason
            for src in srcs[:-1]:
                if len(self.entries[src]) % CHUNK_SIZE != 0:
                    return "non-final source is not chunk-aligned"
        elif kind == "slice":
            src, lo, hi, dst = args
            reason = self._why_invalid_clone_dst((src,), dst)
            if reason is not None:
                return reason
            if lo % CHUNK_SIZE != 0:
                return "slice start is not chunk-aligned"
            if not (0 <= lo <= hi <= len(self.entries[src])):
                return "slice range outside the file"
        elif kind == "truncate":
            path, size = args
            if not self.is_file(path):
                return "not an existing plain file"
            if size < 0:
                return "negative size"
        else:
            raise ValueError(f"unknown op kind {kind!r}")
        return None

    def _why_invalid_clone_dst(self, srcs, dst: str) -> str | None:
        """The shared acceptance rules of every structural op: plain-file
        sources, a free destination under an existing directory."""
        for src in srcs:
            if not self.is_file(src):
                return "source is not an existing plain file"
        if self.exists(dst):
            return "destination already exists"
        if not self.is_dir(_parent(dst)):
            return "destination parent is not an existing directory"
        return None

    # -- mutation ---------------------------------------------------------

    def apply(self, op: tuple) -> None:
        reason = self.why_invalid(op)
        if reason is not None:
            raise ModelError(f"{op}: {reason}")
        kind, args = op[0], op[1:]
        if kind == "mkdir":
            self.entries[args[0]] = None
        elif kind == "write":
            path, data = args
            old = self.entries.get(path) or b""
            # write_file writes from offset 0 and never truncates: a
            # shorter overwrite keeps the old tail.
            self.entries[path] = data + old[len(data):]
        elif kind == "unlink":
            del self.entries[args[0]]
        elif kind == "rmdir":
            del self.entries[args[0]]
        elif kind == "rename":
            old, new = args
            moved = self.entries.pop(old)
            self.entries[new] = moved
            if moved is None:  # directory: the subtree moves with it
                for path in [p for p in self.entries
                             if p.startswith(old + "/")]:
                    self.entries[new + path[len(old):]] = self.entries.pop(path)
        # Structural ops are by-reference in the real fs, but the model
        # only sees visible bytes — a physical copy is the same thing.
        elif kind == "reflink":
            src, dst = args
            self.entries[dst] = self.entries[src]
        elif kind == "concat":
            srcs, dst = args
            self.entries[dst] = b"".join(self.entries[s] for s in srcs)
        elif kind == "slice":
            src, lo, hi, dst = args
            self.entries[dst] = self.entries[src][lo:hi]
        elif kind == "truncate":
            path, size = args
            old = self.entries[path]
            self.entries[path] = old[:size].ljust(size, b"\0")

    def apply_many(self, ops) -> None:
        for op in ops:
            self.apply(op)

    def preview(self, ops) -> "ModelFS":
        """The state this model would reach if ``ops`` committed."""
        scratch = self.copy()
        scratch.apply_many(ops)
        return scratch


def apply_fs_op(fs, tx, op: tuple) -> None:
    """Apply one model op to the real file system under ``tx``."""
    kind, args = op[0], op[1:]
    if kind == "mkdir":
        fs.mkdir(tx, args[0])
    elif kind == "write":
        fs.write_file(tx, args[0], args[1])
    elif kind == "unlink":
        fs.unlink(tx, args[0])
    elif kind == "rmdir":
        fs.rmdir(tx, args[0])
    elif kind == "rename":
        fs.rename(tx, args[0], args[1])
    elif kind == "reflink":
        fs.reflink(tx, args[0], args[1])
    elif kind == "concat":
        fs.concat(tx, list(args[0]), args[1])
    elif kind == "slice":
        fs.slice(tx, args[0], args[1], args[2], args[3])
    elif kind == "truncate":
        fs.truncate(tx, args[0], args[1])
    else:
        raise ValueError(f"unknown op kind {kind!r}")


def apply_client_op(client, op: tuple) -> None:
    """Apply one model op through a client library surface (the sharded
    client, or any object speaking ``p_*``) — same semantics as
    :func:`apply_fs_op`, but routed the way an application's requests
    are.  ``write`` mirrors ``write_file``: from offset zero, never
    truncating."""
    from repro.core.constants import O_RDWR
    from repro.errors import FileNotFoundError_
    kind, args = op[0], op[1:]
    if kind == "mkdir":
        client.p_mkdir(args[0])
    elif kind == "write":
        path, data = args
        try:
            fd = client.p_open(path, O_RDWR)
        except FileNotFoundError_:
            fd = client.p_creat(path)
        client.p_write(fd, data)
        client.p_close(fd)
    elif kind == "unlink":
        client.p_unlink(args[0])
    elif kind == "rmdir":
        client.p_rmdir(args[0])
    elif kind == "rename":
        client.p_rename(args[0], args[1])
    elif kind == "reflink":
        client.p_reflink(args[0], args[1])
    elif kind == "concat":
        client.p_concat(list(args[0]), args[1])
    elif kind == "slice":
        client.p_slice(args[0], args[1], args[2], args[3])
    elif kind == "truncate":
        client.p_truncate(args[0], args[1])
    else:
        raise ValueError(f"unknown op kind {kind!r}")


def harvest_state(fs) -> dict[str, bytes | None]:
    """The committed visible state of a mounted fs, in the model's
    shape: every path under ``/`` mapped to its full contents (files)
    or ``None`` (directories)."""
    state: dict[str, bytes | None] = {}

    def walk(dirpath: str) -> None:
        for name in fs.readdir(dirpath):
            path = ("" if dirpath == "/" else dirpath) + "/" + name
            if fs.stat(path).type == "directory":
                state[path] = None
                walk(path)
            else:
                state[path] = fs.read_file(path)

    walk("/")
    return state


def diff_states(got: dict, want: dict) -> str:
    """One line naming the paths where two visible states differ."""
    missing = sorted(set(want) - set(got))
    extra = sorted(set(got) - set(want))
    changed = sorted(k for k in set(got) & set(want) if got[k] != want[k])
    parts = []
    if missing:
        parts.append(f"missing={missing[:5]}")
    if extra:
        parts.append(f"extra={extra[:5]}")
    if changed:
        parts.append(f"changed={changed[:5]}")
    return " ".join(parts) or "states differ"

"""Namespace management: the ``naming`` table.

"Inversion stores the file system namespace in a table
``naming(filename = char[], parentid = object_id, file = object_id)``
… A hierarchical namespace is imposed by having individual files point
at their parent's naming entries."  Table 1 of the paper shows the rows
for ``/etc/passwd``; :meth:`Namespace.resolve` and
:meth:`Namespace.construct_path` are the paper's "routines to parse
pathnames in order to find desired files, and to construct pathnames
for particular file identifiers".

Two B-tree indexes speed these up (the paper: "various Btree indices on
the naming table speed up these operations"): ``(parentid, filename)``
for lookups/readdir and ``(file)`` for reverse path construction.
"""

from __future__ import annotations

from typing import Iterator

from repro.core.constants import ROOT_PARENT
from repro.db.heap import TID
from repro.db.snapshot import AsOfSnapshot, IntervalSnapshot, Snapshot
from repro.db.transactions import Transaction
from repro.db.tuples import Column, Schema
from repro.errors import FileExistsError_, FileNotFoundError_

NAMING_TABLE = "naming"
NAMING_SCHEMA = Schema([
    Column("filename", "text"),
    Column("parentid", "oid"),
    Column("file", "oid"),
])
NAMING_INDEXES = (("parentid", "filename"), ("file",))

MAX_FILENAME_BYTES = 1000
"""Longest permitted name component.  A naming record (and its B-tree
entry) must fit comfortably on an 8 KB page; 1000 bytes is generous
next to the era's 255-byte limits while keeping index nodes sane."""


def split_path(path: str) -> list[str]:
    """'/etc/passwd' → ['etc', 'passwd'].  Paths must be absolute —
    "all of the files stored by Inversion in a single database are
    rooted at '/' in that database"."""
    if not path.startswith("/"):
        raise FileNotFoundError_(f"Inversion paths are absolute: {path!r}")
    return [part for part in path.split("/") if part]


def basename_dirname(path: str) -> tuple[str, str]:
    parts = split_path(path)
    if not parts:
        raise FileNotFoundError_("the root directory has no parent")
    return "/" + "/".join(parts[:-1]), parts[-1]


class Namespace:
    """Operations on the naming table, bound to a database."""

    def __init__(self, db, root_fileid: int) -> None:
        self.db = db
        self.root_fileid = root_fileid

    def _table(self, tx: Transaction | None):
        return self.db.table(NAMING_TABLE, tx)

    # -- creation --------------------------------------------------------

    @classmethod
    def bootstrap(cls, db, tx: Transaction) -> "Namespace":
        """Create the naming table and the root entry ('/'): "The root
        directory, named '/', appears in every POSTGRES database as
        shipped from Berkeley."""
        table = db.create_table(tx, NAMING_TABLE, NAMING_SCHEMA,
                                indexes=NAMING_INDEXES)
        root_fileid = db.catalog.allocate_oid()
        table.insert(tx, ("", ROOT_PARENT, root_fileid))
        return cls(db, root_fileid)

    @classmethod
    def attach(cls, db) -> "Namespace":
        """Bind to an existing database's naming table."""
        from repro.errors import TableError
        try:
            table = db.table(NAMING_TABLE)
        except TableError:
            raise FileNotFoundError_(
                "no naming table; not an Inversion database") from None
        from repro.db.snapshot import BootstrapSnapshot
        snapshot = BootstrapSnapshot(db.tm)
        for _tid, row in table.index_eq(("parentid", "filename"),
                                        (ROOT_PARENT, ""), snapshot):
            return cls(db, row[2])
        raise FileNotFoundError_("no root directory entry; not an Inversion database")

    # -- lookups ------------------------------------------------------------

    def lookup_entry(self, parentid: int, name: str, snapshot: Snapshot,
                     tx: Transaction | None = None) -> tuple[TID, tuple] | None:
        table = self._table(tx)
        for tid, row in table.index_eq(("parentid", "filename"),
                                       (parentid, name), snapshot, tx):
            return tid, row
        return None

    def lookup(self, parentid: int, name: str, snapshot: Snapshot,
               tx: Transaction | None = None) -> int | None:
        entry = self.lookup_entry(parentid, name, snapshot, tx)
        return None if entry is None else entry[1][2]

    def resolve(self, path: str, snapshot: Snapshot,
                tx: Transaction | None = None) -> int:
        """Path → file identifier, or raise FileNotFoundError_."""
        fileid = self.root_fileid
        for part in split_path(path):
            child = self.lookup(fileid, part, snapshot, tx)
            if child is None:
                raise FileNotFoundError_(f"no such file or directory: {path!r}")
            fileid = child
        return fileid

    def try_resolve(self, path: str, snapshot: Snapshot,
                    tx: Transaction | None = None) -> int | None:
        try:
            return self.resolve(path, snapshot, tx)
        except FileNotFoundError_:
            return None

    def construct_path(self, fileid: int, snapshot: Snapshot,
                       tx: Transaction | None = None) -> str:
        """File identifier → absolute pathname (reverse resolution via
        the ``(file)`` index)."""
        if fileid == self.root_fileid:
            return "/"
        parts: list[str] = []
        table = self._table(tx)
        current = fileid
        for _depth in range(4096):  # cycle guard
            entry = None
            for _tid, row in table.index_eq(("file",), (current,), snapshot, tx):
                entry = row
                break
            if entry is None:
                raise FileNotFoundError_(f"no naming entry for file {current}")
            name, parentid, _file = entry
            if parentid == ROOT_PARENT:
                break
            parts.append(name)
            current = parentid
        return "/" + "/".join(reversed(parts))

    def children(self, parentid: int, snapshot: Snapshot,
                 tx: Transaction | None = None,
                 cookie: str | None = None) -> Iterator[tuple[str, int]]:
        """(name, fileid) of directory entries in name order — all of
        them, or those strictly after ``cookie`` (a name), the server
        side of paged readdir.  ``"\\0"`` is rejected in file names,
        so ``cookie + "\\0"`` is the smallest key greater than the
        cookie: the scan restarts exactly where the previous page
        stopped, in one index descent, without materializing the part
        of the directory already listed."""
        table = self._table(tx)
        lo = (parentid,) if cookie is None else (parentid, cookie + "\0")
        rows = table.index_range(("parentid", "filename"),
                                 lo, (parentid,), snapshot, tx)
        if isinstance(snapshot, (AsOfSnapshot, IntervalSnapshot)):
            # A time-travel scan yields archived versions after the
            # live ones: two sorted runs, not one.
            rows = sorted(rows, key=lambda pair: pair[1][0])
        for _tid, row in rows:
            if row[0] == "" and parentid == ROOT_PARENT:
                continue  # the root's own entry
            yield row[0], row[2]

    # -- mutation -----------------------------------------------------------------

    def add_entry(self, tx: Transaction, parentid: int, name: str,
                  fileid: int) -> None:
        if len(name.encode("utf-8")) > MAX_FILENAME_BYTES:
            raise FileNotFoundError_(
                f"file name longer than {MAX_FILENAME_BYTES} bytes")
        if "/" in name or "\0" in name:
            raise FileNotFoundError_(f"illegal character in name {name!r}")
        table = self._table(tx)
        # Lock the name *before* the existence check: a concurrent
        # creator of the same name blocks here and re-checks after the
        # winner commits, so no duplicate entry can slip in.
        table.lock_exclusive(tx, (parentid, name))
        snapshot = self.db.snapshot(tx)
        if self.lookup(parentid, name, snapshot, tx) is not None:
            raise FileExistsError_(f"{name!r} already exists in directory {parentid}")
        table.insert(tx, (name, parentid, fileid),
                     lock_key=(parentid, name))

    def remove_entry(self, tx: Transaction, parentid: int, name: str) -> int:
        """Delete a naming entry, returning the fileid it named.  The
        record's old version remains visible to time travel — this is
        what makes undelete work."""
        snapshot = self.db.snapshot(tx)
        entry = self.lookup_entry(parentid, name, snapshot, tx)
        if entry is None:
            raise FileNotFoundError_(f"no entry {name!r} in directory {parentid}")
        tid, row = entry
        self._table(tx).delete(tx, tid, lock_key=(parentid, name))
        return row[2]

    def rename_entry(self, tx: Transaction, parentid: int, name: str,
                     new_parentid: int, new_name: str) -> None:
        snapshot = self.db.snapshot(tx)
        entry = self.lookup_entry(parentid, name, snapshot, tx)
        if entry is None:
            raise FileNotFoundError_(f"no entry {name!r} in directory {parentid}")
        if self.lookup(new_parentid, new_name, snapshot, tx) is not None:
            raise FileExistsError_(f"{new_name!r} already exists")
        tid, row = entry
        table = self._table(tx)
        # Lock both the old and the new name so concurrent renames and
        # creates of either serialize.
        table.lock_exclusive(tx, (parentid, name))
        table.update(tx, tid, (new_name, new_parentid, row[2]),
                     lock_key=(new_parentid, new_name))

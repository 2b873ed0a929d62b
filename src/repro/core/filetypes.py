"""Typed files.

"Inversion supports typing of user files.  A new file type is declared
by issuing a define type command to the database system.  Once this
command has been issued, files may be assigned the new type.  POSTGRES
will automatically enforce type checking when, for example, functions
are called that operate on the file."

:class:`FileTypeManager` declares file types and registers functions
restricted to them.  Registered functions receive the file's *content*
(read under the active snapshot, so historical queries analyse
historical bytes) and raise :class:`FileTypeError` when applied to a
file of the wrong type — the automatic enforcement the paper promises.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.db.funcmgr import register_callable, snapshot_aware
from repro.db.transactions import Transaction
from repro.errors import FileTypeError


class FileTypeManager:
    """Type declaration and typed-function registration for one mount."""

    def __init__(self, fs) -> None:
        self.fs = fs

    # -- types ---------------------------------------------------------------

    def define_file_type(self, tx: Transaction, name: str,
                         description: str = "") -> None:
        """``define type name`` — after this, files may be assigned the
        type with :meth:`InversionFS.set_file_type`."""
        self.fs.db.catalog.define_type(tx, name, description)

    # -- functions ----------------------------------------------------------------

    def register_content_function(self, tx: Transaction, name: str,
                                  fn: Callable, rettype: str,
                                  filetypes: Sequence[str],
                                  extra_argtypes: Sequence[str] = ()) -> None:
        """Register ``fn(content: bytes, *extra_args)`` as a queryable
        function over files of the given types.

        The installed wrapper (a) verifies the file's type under the
        active snapshot, (b) reads the file's (historical) content, and
        (c) invokes ``fn`` — the reproduction of "functions … will be
        dynamically loaded and executed on demand by the database
        system" with automatic type checking.
        """
        fs = self.fs
        allowed = tuple(filetypes)

        @snapshot_aware
        def wrapper(fileid, *args, snapshot):
            att = fs.fileatt.get(fileid, snapshot)
            if allowed and att.type not in allowed:
                raise FileTypeError(
                    f"function {name!r} is defined on {allowed}, "
                    f"not on files of type {att.type!r}")
            content = fs.read_file_by_id(fileid, snapshot)
            return fn(content, *args)

        key = f"typed:{name}"
        register_callable(key, wrapper)
        self.fs.db.catalog.define_function(
            tx, name, "python", ["oid", *extra_argtypes], rettype, key,
            ",".join(allowed))

    def register_fileid_function(self, tx: Transaction, name: str,
                                 fn: Callable, rettype: str,
                                 argtypes: Sequence[str] = ("oid",)) -> None:
        """Register ``fn(fs, fileid, snapshot, *args)`` — for functions
        that need metadata rather than content."""
        fs = self.fs

        @snapshot_aware
        def wrapper(fileid, *args, snapshot):
            return fn(fs, fileid, snapshot, *args)

        key = f"typed:{name}"
        register_callable(key, wrapper)
        self.fs.db.catalog.define_function(
            tx, name, "python", list(argtypes), rettype, key, "")

    # -- introspection ------------------------------------------------------------------

    def functions_for_type(self, ftype: str, tx: Transaction) -> list[str]:
        """Names of registered functions restricted to ``ftype`` (Table
        2's right-hand column)."""
        snapshot = self.fs.db.snapshot(tx)
        return sorted(p.name for p in
                      self.fs.db.catalog.list_functions(snapshot)
                      if ftype in p.typrestrict.split(","))

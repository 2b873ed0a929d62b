"""System catalogs.

Tables, indexes, types, and functions are described by rows in catalog
heap tables (`pg_class`, `pg_index`, `pg_type`, `pg_proc`), which are
themselves ordinary no-overwrite heaps on the root device.  Because
catalog changes are ordinary record inserts/deletes, DDL is transaction
protected — exactly what Inversion needs for "when a new file is
created in a directory, the directory … must be updated, and the new
file must be created" to be atomic, and what makes old versions of
*user-defined functions* visible to time travel ("users can even run
old versions of these functions").

Lookups do not scan.  A **syscache** — three volatile maps, `pg_class`
relname, `pg_index` tableoid and `pg_index` indexname → the TIDs of
*every* row version with that key, in physical order — turns "scan to
the first visible match" into "fetch each candidate, first visible
wins", which is the same answer under every snapshot because a scan
visits exactly those rows in exactly that order.  In front of it the
**relcache** keeps one :class:`TableInfo` per relation, for snapshots of
the present only and only once every row it was built from is settled
(see :func:`_settled`).  DESIGN.md, "Catalog lookups: syscache and
relcache".
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterator

from repro.db.buffer import BufferCache
from repro.db.heap import TID, HeapFile
from repro.db.snapshot import BootstrapSnapshot, CurrentSnapshot, Snapshot
from repro.db.transactions import (ABORTED, COMMITTED, Transaction,
                                   TransactionManager)
from repro.db.tuples import INVALID_XID, Column, Schema
from repro.devices.switch import DeviceSwitch
from repro.errors import CatalogError
from repro.obs.registry import MetricSpec
from repro.sim.cpu import CpuModel

METRICS = (
    MetricSpec("catalog.relcache_hits", "counter", "lookups",
               "Table lookups answered by the relcache: no catalog page "
               "touched.", "repro.db.catalog"),
    MetricSpec("catalog.probes", "counter", "lookups",
               "Lookups answered through a syscache map: one heap fetch "
               "per row version carrying the key, whatever the size of "
               "the catalog.", "repro.db.catalog"),
    MetricSpec("catalog.rebuilds", "counter", "events",
               "Syscache builds: one pass over every row version of "
               "pg_class and pg_index, on first use and after each "
               "invalidate_cache().", "repro.db.catalog"),
)

# Fixed oids for the catalogs themselves.
PG_CLASS_OID = 10
PG_INDEX_OID = 11
PG_TYPE_OID = 12
PG_PROC_OID = 13
FIRST_USER_OID = 1000
OID_HWM_TAG = "pg_oid_hwm"
OID_HWM_STRIDE = 128

PG_CLASS_SCHEMA = Schema([
    Column("oid", "oid"),
    Column("relname", "text"),
    Column("devname", "text"),
    Column("relkind", "text"),   # 'h' heap, 'i' index, 'a' archive
    Column("schema", "text"),    # JSON column list for heaps
])

PG_INDEX_SCHEMA = Schema([
    Column("oid", "oid"),
    Column("indexname", "text"),
    Column("tableoid", "oid"),
    Column("keycols", "text"),   # JSON list of column names
])

PG_TYPE_SCHEMA = Schema([
    Column("oid", "oid"),
    Column("typname", "text"),
    Column("description", "text"),
])

PG_PROC_SCHEMA = Schema([
    Column("oid", "oid"),
    Column("proname", "text"),
    Column("lang", "text"),        # 'python' (≈ dynamically loaded C) or 'postquel'
    Column("argtypes", "text"),    # JSON list of type names
    Column("rettype", "text"),
    Column("src", "text"),         # registry key or POSTQUEL expression text
    Column("typrestrict", "text"),  # file type the function is defined on ('' = any)
])

_CATALOGS: dict[str, tuple[int, Schema]] = {
    "pg_class": (PG_CLASS_OID, PG_CLASS_SCHEMA),
    "pg_index": (PG_INDEX_OID, PG_INDEX_SCHEMA),
    "pg_type": (PG_TYPE_OID, PG_TYPE_SCHEMA),
    "pg_proc": (PG_PROC_OID, PG_PROC_SCHEMA),
}

#: the columns the syscache indexes, and the catalog each belongs to.
_INDEXED = {"relname": "pg_class", "tableoid": "pg_index",
            "indexname": "pg_index"}


@dataclass(frozen=True)
class IndexInfo:
    oid: int
    name: str
    tableoid: int
    keycols: tuple[str, ...]


@dataclass(frozen=True)
class TableInfo:
    oid: int
    name: str
    devname: str
    relkind: str
    schema: Schema
    indexes: tuple[IndexInfo, ...] = ()


@dataclass(frozen=True)
class TypeInfo:
    oid: int
    name: str
    description: str


@dataclass(frozen=True)
class ProcInfo:
    oid: int
    name: str
    lang: str
    argtypes: tuple[str, ...]
    rettype: str
    src: str
    typrestrict: str


def _index_info(values: tuple) -> IndexInfo:
    oid, indexname, tableoid, keycols_json = values
    return IndexInfo(oid, indexname, tableoid, tuple(json.loads(keycols_json)))


def _settled(tm: TransactionManager, xmin: int, xmax: int) -> bool:
    """True when no commit or abort still to come can change whether a
    snapshot of the present sees this row: it is visible to all of them
    (committed ``xmin``, no ``xmax`` or an aborted one) or dead for good
    (aborted ``xmin``, or both committed).  An in-progress or prepared
    xid on either side leaves it open."""
    state = tm.state(xmin)
    if state == ABORTED:
        return True
    if state != COMMITTED:
        return False
    return xmax == INVALID_XID or tm.state(xmax) in (COMMITTED, ABORTED)


@dataclass
class Catalog:
    """Catalog accessor bound to a buffer cache and device switch."""

    switch: DeviceSwitch
    buffers: BufferCache
    root_device: str
    cpu: CpuModel | None = None
    _next_oid: int = FIRST_USER_OID
    #: the relcache, by relname, and the name each cached oid goes by
    #: (an index DDL names its table by oid).
    _table_cache: dict[str, TableInfo] = field(default_factory=dict)
    _cached_names: dict[int, str] = field(default_factory=dict)
    #: the syscache: indexed column -> key -> TIDs of every row version
    #: carrying the key, in physical order.  None until first use and
    #: after :meth:`invalidate_cache`.
    _syscache: dict[str, dict[object, list[TID]]] | None = None
    relcache_hits: int = 0
    probes: int = 0
    rebuilds: int = 0

    # -- bootstrap -------------------------------------------------------

    def bootstrap_create(self, tx: Transaction) -> None:
        """Create the catalog heaps and their self-describing rows.
        Called once at database creation, inside the first transaction."""
        dev = self.switch.get(self.root_device)
        for relname, (oid, schema) in _CATALOGS.items():
            dev.create_relation(relname)
        pg_class = self._heap("pg_class")
        for relname, (oid, schema) in _CATALOGS.items():
            pg_class.insert(tx, (oid, relname, self.root_device, "h",
                                 json.dumps(schema.to_dict())))
        self._load_oid_hwm()

    def _load_oid_hwm(self) -> None:
        raw = self.switch.get(self.root_device).read_meta(OID_HWM_TAG)
        if raw:
            self._next_oid = max(self._next_oid, int(raw.decode("ascii")))
        self._oid_hwm = self._next_oid

    def allocate_oid(self) -> int:
        """Allocate a unique oid.  The persisted high-water mark always
        stays *ahead* of every issued oid, so a crash can never cause a
        reissue (the cost is one forced metadata write per
        OID_HWM_STRIDE allocations)."""
        oid = self._next_oid
        self._next_oid += 1
        if self._next_oid > getattr(self, "_oid_hwm", 0):
            self._oid_hwm = self._next_oid + OID_HWM_STRIDE
            self.switch.get(self.root_device).sync_write_meta(
                OID_HWM_TAG, str(self._oid_hwm).encode("ascii"))
        return oid

    # -- raw heap access ----------------------------------------------------

    def _heap(self, catname: str) -> HeapFile:
        oid, schema = _CATALOGS[catname]
        return HeapFile(self.buffers, self.root_device, catname, schema,
                        cpu=self.cpu)

    # -- the syscache ---------------------------------------------------------

    def invalidate_cache(self) -> None:
        """Forget everything.  For code that changes catalog pages
        without going through this class (DESIGN.md lists the callers);
        DDL through it keeps both caches right entry by entry."""
        self._table_cache.clear()
        self._cached_names.clear()
        self._syscache = None

    def heap_rewritten(self, relname: str) -> None:
        """``relname``'s heap was rewritten in place (vacuum): if the
        syscache indexes it, every TID it holds is stale."""
        if relname in _INDEXED.values():
            self.invalidate_cache()

    def _build_syscache(self) -> dict[str, dict[object, list[TID]]]:
        maps = {column: {} for column in _INDEXED}
        rows = 0
        for tid, _xmin, _xmax, values in \
                self._heap("pg_class").scan_all_versions():
            maps["relname"].setdefault(values[1], []).append(tid)
            rows += 1
        for tid, _xmin, _xmax, values in \
                self._heap("pg_index").scan_all_versions():
            maps["indexname"].setdefault(values[1], []).append(tid)
            maps["tableoid"].setdefault(values[2], []).append(tid)
            rows += 1
        if self.cpu is not None:
            self.cpu.tuple_unpack(rows)
        self.rebuilds += 1
        self._syscache = maps
        return maps

    def _probe(self, column: str, key, snapshot: Snapshot,
               headers: list | None = None) -> Iterator[tuple[TID, tuple]]:
        """The catalog rows whose ``column`` is ``key`` that ``snapshot``
        sees, in physical order — what filtering ``scan(snapshot)`` on
        the column yields, at one fetch per version of the key.
        ``headers`` collects the ``(xmin, xmax)`` of every version
        examined, visible or not."""
        maps = self._syscache or self._build_syscache()
        self.probes += 1
        heap = self._heap(_INDEXED[column])
        for tid in maps[column].get(key, ()):
            xmin, xmax, values = heap.fetch_raw(tid)
            if headers is not None:
                headers.append((xmin, xmax))
            if snapshot.is_visible(xmin, xmax):
                if self.cpu is not None:
                    self.cpu.tuple_unpack()
                yield tid, values

    def _remember(self, column: str, key, tid: TID) -> None:
        """A row version just appended: the newest TID of its key."""
        if self._syscache is not None:
            self._syscache[column].setdefault(key, []).append(tid)

    def _forget(self, tx: Transaction, name: str | None = None,
                oid: int | None = None) -> None:
        """Drop one relation's relcache entry, found by name or by oid,
        now and again if ``tx`` aborts."""
        def forget() -> None:
            key = name if name is not None else self._cached_names.get(oid)
            info = self._table_cache.pop(key, None)
            if info is not None:
                del self._cached_names[info.oid]
        forget()
        tx.abort_hooks.append(forget)

    # -- table metadata -------------------------------------------------------

    def lookup_table(self, name: str, snapshot: Snapshot,
                     use_cache: bool = True) -> TableInfo | None:
        # The relcache describes the present: time travel goes past it.
        use_cache = use_cache and isinstance(
            snapshot, (CurrentSnapshot, BootstrapSnapshot))
        if use_cache and (info := self._table_cache.get(name)) is not None:
            self.relcache_hits += 1
            return info
        headers: list | None = [] if use_cache else None
        row = next(self._probe("relname", name, snapshot, headers), None)
        if row is None:
            return None
        info = self._table_info(row[1], snapshot, headers)
        if use_cache and all(_settled(snapshot._tm, xmin, xmax)
                             for xmin, xmax in headers):
            self._table_cache[name] = info
            self._cached_names[info.oid] = name
        return info

    def _table_info(self, row: tuple, snapshot: Snapshot,
                    headers: list | None = None) -> TableInfo:
        oid, relname, devname, relkind, schema_json = row
        schema = Schema.from_dict(json.loads(schema_json)) if schema_json else Schema([])
        indexes = tuple(
            _index_info(values) for _tid, values in
            self._probe("tableoid", oid, snapshot, headers))
        return TableInfo(oid, relname, devname, relkind, schema, indexes)

    def index_exists(self, indexname: str, snapshot: Snapshot) -> bool:
        return any(True for _row in
                   self._probe("indexname", indexname, snapshot))

    def list_tables(self, snapshot: Snapshot,
                    relkind: str | None = "h") -> list[TableInfo]:
        names = (self._syscache or self._build_syscache())["relname"]
        rows = [next(self._probe("relname", name, snapshot), None)
                for name in names]
        return [self._table_info(values, snapshot)
                for _tid, values in sorted(filter(None, rows))
                if relkind is None or values[3] == relkind]

    # -- DDL row manipulation ----------------------------------------------------

    def add_table_row(self, tx: Transaction, oid: int, name: str,
                      devname: str, relkind: str, schema: Schema) -> None:
        tid = self._heap("pg_class").insert(
            tx, (oid, name, devname, relkind, json.dumps(schema.to_dict())))
        self._remember("relname", name, tid)
        self._forget(tx, name=name)

    def remove_table_row(self, tx: Transaction, name: str,
                         snapshot: Snapshot) -> TableInfo | None:
        row = next(self._probe("relname", name, snapshot), None)
        if row is None:
            return None
        self._heap("pg_class").delete(tx, row[0])
        self._forget(tx, name=name)
        return self.lookup_table(name, snapshot, use_cache=False)

    def add_index_row(self, tx: Transaction, oid: int, indexname: str,
                      tableoid: int, keycols: list[str]) -> None:
        tid = self._heap("pg_index").insert(
            tx, (oid, indexname, tableoid, json.dumps(list(keycols))))
        self._remember("indexname", indexname, tid)
        self._remember("tableoid", tableoid, tid)
        self._forget(tx, oid=tableoid)

    def remove_index_rows(self, tx: Transaction, tableoid: int,
                          snapshot: Snapshot) -> list[IndexInfo]:
        pg_index = self._heap("pg_index")
        removed = []
        for tid, values in self._probe("tableoid", tableoid, snapshot):
            pg_index.delete(tx, tid)
            removed.append(_index_info(values))
        if removed:
            self._forget(tx, oid=tableoid)
        return removed

    # -- types -------------------------------------------------------------------

    def define_type(self, tx: Transaction, name: str,
                    description: str = "") -> TypeInfo:
        snapshot = _snapshot_of(tx, self)
        if self.lookup_type(name, snapshot) is not None:
            raise CatalogError(f"type {name!r} already defined")
        oid = self.allocate_oid()
        self._heap("pg_type").insert(tx, (oid, name, description))
        return TypeInfo(oid, name, description)

    def lookup_type(self, name: str, snapshot: Snapshot) -> TypeInfo | None:
        for _tid, values in self._heap("pg_type").scan(snapshot):
            if values[1] == name:
                return TypeInfo(*values)
        return None

    def list_types(self, snapshot: Snapshot) -> list[TypeInfo]:
        return [TypeInfo(*v) for _t, v in self._heap("pg_type").scan(snapshot)]

    # -- functions ------------------------------------------------------------------

    def define_function(self, tx: Transaction, name: str, lang: str,
                        argtypes: list[str], rettype: str, src: str,
                        typrestrict: str = "") -> ProcInfo:
        snapshot = _snapshot_of(tx, self)
        existing = self.lookup_function(name, snapshot)
        if existing is not None:
            # Redefinition replaces: delete the old row (the old version
            # stays visible to time travel).
            self._delete_function_row(tx, name, snapshot)
        oid = self.allocate_oid()
        self._heap("pg_proc").insert(
            tx, (oid, name, lang, json.dumps(list(argtypes)), rettype, src,
                 typrestrict))
        return ProcInfo(oid, name, lang, tuple(argtypes), rettype, src, typrestrict)

    def _delete_function_row(self, tx: Transaction, name: str,
                             snapshot: Snapshot) -> None:
        pg_proc = self._heap("pg_proc")
        for tid, values in pg_proc.scan(snapshot):
            if values[1] == name:
                pg_proc.delete(tx, tid)

    def lookup_function(self, name: str, snapshot: Snapshot) -> ProcInfo | None:
        for _tid, values in self._heap("pg_proc").scan(snapshot):
            if values[1] == name:
                return ProcInfo(values[0], values[1], values[2],
                                tuple(json.loads(values[3])), values[4],
                                values[5], values[6])
        return None

    def list_functions(self, snapshot: Snapshot) -> list[ProcInfo]:
        return [ProcInfo(v[0], v[1], v[2], tuple(json.loads(v[3])), v[4],
                         v[5], v[6])
                for _t, v in self._heap("pg_proc").scan(snapshot)]


def _snapshot_of(tx: Transaction, catalog: Catalog) -> Snapshot:
    """A current snapshot for ``tx``."""
    # The catalog has no direct TransactionManager reference; DDL entry
    # points pass transactions created by the Database, which installs
    # the manager here.
    tm = getattr(tx, "_tm", None)
    if tm is None:
        raise CatalogError("transaction not bound to a database")
    return CurrentSnapshot(tm, tx.xid)

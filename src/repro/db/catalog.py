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
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.db.buffer import BufferCache
from repro.db.heap import HeapFile
from repro.db.snapshot import Snapshot
from repro.db.transactions import Transaction
from repro.db.tuples import Column, Schema
from repro.devices.switch import DeviceSwitch
from repro.errors import CatalogError
from repro.sim.cpu import CpuModel

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


@dataclass
class Catalog:
    """Catalog accessor bound to a buffer cache and device switch."""

    switch: DeviceSwitch
    buffers: BufferCache
    root_device: str
    cpu: CpuModel | None = None
    _next_oid: int = FIRST_USER_OID
    _table_cache: dict[str, TableInfo] = field(default_factory=dict)

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
        heap = HeapFile(self.buffers, self.root_device, catname, schema,
                        cpu=self.cpu)
        heap.cache_rows = True
        return heap

    # -- table metadata -------------------------------------------------------

    def invalidate_cache(self) -> None:
        self._table_cache.clear()

    def lookup_table(self, name: str, snapshot: Snapshot,
                     use_cache: bool = True) -> TableInfo | None:
        if use_cache and name in self._table_cache:
            return self._table_cache[name]
        pg_class = self._heap("pg_class")
        row = None
        for _tid, values in pg_class.scan(snapshot):
            if values[1] == name:
                row = values
                break
        if row is None:
            return None
        oid, relname, devname, relkind, schema_json = row
        schema = Schema.from_dict(json.loads(schema_json)) if schema_json else Schema([])
        indexes = tuple(self._indexes_for(oid, snapshot))
        info = TableInfo(oid, relname, devname, relkind, schema, indexes)
        if use_cache:
            self._table_cache[name] = info
        return info

    def index_exists(self, indexname: str, snapshot: Snapshot) -> bool:
        return any(v[1] == indexname for _t, v in
                   self._heap("pg_index").scan(snapshot))

    def _indexes_for(self, tableoid: int, snapshot: Snapshot) -> list[IndexInfo]:
        pg_index = self._heap("pg_index")
        out = []
        for _tid, values in pg_index.scan(snapshot):
            oid, indexname, t_oid, keycols_json = values
            if t_oid == tableoid:
                out.append(IndexInfo(oid, indexname, t_oid,
                                     tuple(json.loads(keycols_json))))
        return out

    def list_tables(self, snapshot: Snapshot,
                    relkind: str | None = "h") -> list[TableInfo]:
        pg_class = self._heap("pg_class")
        names = [v[1] for _t, v in pg_class.scan(snapshot)
                 if relkind is None or v[3] == relkind]
        return [info for name in names
                if (info := self.lookup_table(name, snapshot, use_cache=False))]

    # -- DDL row manipulation ----------------------------------------------------

    def add_table_row(self, tx: Transaction, oid: int, name: str,
                      devname: str, relkind: str, schema: Schema) -> None:
        self._heap("pg_class").insert(
            tx, (oid, name, devname, relkind, json.dumps(schema.to_dict())))
        self.invalidate_cache()
        tx.abort_hooks.append(self.invalidate_cache)

    def remove_table_row(self, tx: Transaction, name: str,
                         snapshot: Snapshot) -> TableInfo | None:
        pg_class = self._heap("pg_class")
        for tid, values in pg_class.scan(snapshot):
            if values[1] == name:
                pg_class.delete(tx, tid)
                self.invalidate_cache()
                tx.abort_hooks.append(self.invalidate_cache)
                return self.lookup_table(name, snapshot, use_cache=False)
        return None

    def add_index_row(self, tx: Transaction, oid: int, indexname: str,
                      tableoid: int, keycols: list[str]) -> None:
        self._heap("pg_index").insert(
            tx, (oid, indexname, tableoid, json.dumps(list(keycols))))
        self.invalidate_cache()
        tx.abort_hooks.append(self.invalidate_cache)

    def remove_index_rows(self, tx: Transaction, tableoid: int,
                          snapshot: Snapshot) -> list[IndexInfo]:
        pg_index = self._heap("pg_index")
        removed = []
        for tid, values in pg_index.scan(snapshot):
            if values[2] == tableoid:
                pg_index.delete(tx, tid)
                removed.append(IndexInfo(values[0], values[1], values[2],
                                         tuple(json.loads(values[3]))))
        if removed:
            self.invalidate_cache()
            tx.abort_hooks.append(self.invalidate_cache)
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
    """A current snapshot for ``tx`` (local import avoids a cycle)."""
    from repro.db.snapshot import CurrentSnapshot
    # The catalog has no direct TransactionManager reference; DDL entry
    # points pass transactions created by the Database, which installs
    # the manager here.
    tm = getattr(tx, "_tm", None)
    if tm is None:
        raise CatalogError("transaction not bound to a database")
    return CurrentSnapshot(tm, tx.xid)

"""The assembled database system.

:class:`Database` wires together the device switch, buffer cache,
transaction manager, lock manager, catalogs, and (lazily) the query
engine and vacuum cleaner.  It is the "POSTGRES data manager" process
of the paper: Inversion's routines are a thin layer of calls into this
object.

On-disk layout of a database directory::

    <path>/devices.json        device switch configuration and the
                               index key format the pages were written in
    <path>/<device>/...        one subdirectory per magnetic device
"""

from __future__ import annotations

import json
import os
from dataclasses import replace
from typing import Iterator, Sequence

from repro.db.buffer import DEFAULT_BUFFERS, BufferCache
from repro.db.btree import BTree
from repro.db.catalog import Catalog, IndexInfo, TableInfo
from repro.db.heap import TID_FMT, HeapFile
from repro.db.locks import LockManager
from repro.db.snapshot import AsOfSnapshot, BootstrapSnapshot, CurrentSnapshot, Snapshot
from repro.db.table import Table
from repro.db.transactions import (ABORTED, COMMITTED, Transaction,
                                   TransactionManager, atomic)
from repro.db.tuples import Schema
from repro.devices.jukebox import SonyJukebox
from repro.devices.magnetic import MagneticDisk
from repro.devices.memdisk import MemDisk
from repro.devices.switch import DeviceSwitch
from repro.devices.tape import TapeJukebox
from repro.errors import CatalogError, TableError
from repro.obs import Observability
from repro.sim.clock import SimClock
from repro.sim.cpu import CpuModel, DECSYSTEM_5900

_DEVICES_FILE = "devices.json"
#: how every B-tree entry is keyed: the encoded user key, then the heap
#: TID packed as ``TID_FMT``.  Stamped into ``devices.json``; an index
#: written in another format would decode every TID wrongly, so
#: :meth:`Database.open` refuses it rather than read it.
INDEX_KEY_FORMAT = f"key+tid{TID_FMT}"
_FORMAT_FIELD = "index_key_format"
#: the device-manager switch's kinds: kind → ``make(name, clock,
#: dbpath)``.  Only a magnetic disk keeps its medium under the
#: database's directory; the others model theirs in memory.
DEVICE_KINDS = {
    "magnetic": lambda name, clock, dbpath: MagneticDisk(
        name, clock, os.path.join(dbpath, name)),
    "memdisk": lambda name, clock, _dbpath: MemDisk(name, clock),
    "jukebox": lambda name, clock, _dbpath: SonyJukebox(name, clock),
    "tape": lambda name, clock, _dbpath: TapeJukebox(name, clock),
}

#: process-level registry of non-file-backed device instances, keyed by
#: (database path, device name).  Magnetic disks persist in real files;
#: NVRAM/jukebox/tape media are modelled in memory, so reopening a
#: database within one process must hand back the *same* media — their
#: contents are non-volatile by definition.
_DEVICE_REGISTRY: dict[tuple[str, str], object] = {}


def write_device_config(path: str, config: dict) -> None:
    """Write ``devices.json`` under ``path``, stamped with the index
    key format."""
    config = dict(config, **{_FORMAT_FIELD: INDEX_KEY_FORMAT})
    with open(os.path.join(path, _DEVICES_FILE), "w", encoding="utf-8") as f:
        json.dump(config, f, indent=2)


class Database:
    """One POSTGRES database ≙ one Inversion mount point."""

    def __init__(self, path: str, clock: SimClock, buffer_pages: int) -> None:
        self.path = path
        self.clock = clock
        self.cpu = CpuModel(clock, DECSYSTEM_5900)
        #: the session's observability bundle — metrics registry, tracer
        #: and per-transaction accountant (one per Database session, per
        #: the reset rule in :mod:`repro.obs.registry`).
        self.obs = Observability(clock)
        self.switch = DeviceSwitch()
        self.buffers = BufferCache(self.switch, capacity=buffer_pages, cpu=self.cpu,
                                   obs=self.obs)
        self.locks = LockManager()
        self.locks.obs = self.obs
        self.tm: TransactionManager | None = None
        self.catalog: Catalog | None = None
        #: the predicate rules system; None until first use so the
        #: table write path pays nothing when no rules exist.
        self._rules = None
        #: outcome listeners ``fn(xid, committed)`` fired at the
        #: visibility point of commit/abort/finish_prepared — in-memory
        #: bookkeeping (file data versions, committed-size hints) hangs
        #: off these so it moves in lock-step with what snapshots see.
        self._commit_listeners: list = []
        self._closed = False

    # -- lifecycle -------------------------------------------------------

    @classmethod
    def create(cls, path: str, clock: SimClock | None = None,
               buffer_pages: int = DEFAULT_BUFFERS,
               group_commit_window: float = 0.0) -> "Database":
        """Create a new database rooted at ``path`` with one magnetic
        root device."""
        clock = clock or SimClock()
        if os.path.exists(os.path.join(path, _DEVICES_FILE)):
            raise CatalogError(f"database already exists at {path}")
        os.makedirs(path, exist_ok=True)
        db = cls(path, clock, buffer_pages)
        root = MagneticDisk("magnetic0", clock, os.path.join(path, "magnetic0"))
        db.switch.register(root, default=True)
        db._save_device_config([("magnetic0", "magnetic")])
        db.tm = TransactionManager(root, clock,
                                   group_commit_window=group_commit_window)
        db.tm.obs = db.obs
        db.tm.sweep = db.buffers.flush_all
        db.tm.drives = db.drives
        db.catalog = Catalog(db.switch, db.buffers, "magnetic0", cpu=db.cpu)
        db.obs.bind_database(db)
        with atomic(db) as tx:
            db.catalog.bootstrap_create(tx)
        return db

    @classmethod
    def open(cls, path: str, clock: SimClock | None = None,
             buffer_pages: int = DEFAULT_BUFFERS,
             group_commit_window: float = 0.0) -> "Database":
        """Open an existing database.  Recovery is implicit and
        essentially instantaneous: it consists of reading the
        transaction status file; updates in progress at a crash are
        invisible and therefore already rolled back."""
        clock = clock or SimClock()
        config_path = os.path.join(path, _DEVICES_FILE)
        if not os.path.exists(config_path):
            raise CatalogError(f"no database at {path}")
        with open(config_path, "r", encoding="utf-8") as f:
            config = json.load(f)
        found = config.get(_FORMAT_FIELD)
        if found != INDEX_KEY_FORMAT:
            raise CatalogError(
                f"{config_path}: index key format "
                f"{found or 'unstamped (key+tid<IH)'}, but this build "
                f"reads {INDEX_KEY_FORMAT}")
        db = cls(path, clock, buffer_pages)
        for entry in config["devices"]:
            db._instantiate_device(entry["name"], entry["type"],
                                   default=entry["name"] == config["root"])
        root = db.switch.get(config["root"])
        # Complete any relation swap (vacuum's compacted rewrite) that a
        # crash interrupted, before anything reads those relations.
        from repro.db.vacuum import replay_rename_journal
        replay_rename_journal(db.switch, root)
        db.tm = TransactionManager(root, clock,
                                   group_commit_window=group_commit_window)
        db.tm.obs = db.obs
        db.tm.sweep = db.buffers.flush_all
        db.tm.drives = db.drives
        db.catalog = Catalog(db.switch, db.buffers, config["root"], cpu=db.cpu)
        db.obs.bind_database(db)
        # Resume simulated time beyond all recorded history, so that
        # post-reopen commits never sort before pre-crash ones.
        resume_at = db.tm.max_recorded_time()
        if clock.now() < resume_at:
            clock.advance(resume_at - clock.now() + 1e-9)
        db.catalog._load_oid_hwm()
        return db

    def _instantiate_device(self, name: str, kind: str, default: bool) -> None:
        if kind not in DEVICE_KINDS:
            raise CatalogError(f"unknown device type {kind!r}")
        key = (os.path.abspath(self.path), name)
        # A magnetic disk is backed by real files: always safe to
        # rebuild from disk.
        dev = None if kind == "magnetic" else _DEVICE_REGISTRY.get(key)
        if dev is None:
            dev = DEVICE_KINDS[kind](name, self.clock, self.path)
            if kind != "magnetic":
                _DEVICE_REGISTRY[key] = dev
        else:
            dev.rebind_clock(self.clock)
        self.switch.register(dev, default=default)

    def _save_device_config(self, devices: list[tuple[str, str]]) -> None:
        config = {
            "root": devices[0][0] if devices else None,
            "devices": [{"name": n, "type": t} for n, t in devices],
        }
        existing = self._load_device_config()
        if existing:
            config["root"] = existing["root"]
            known = {d["name"] for d in existing["devices"]}
            config["devices"] = existing["devices"] + [
                d for d in config["devices"] if d["name"] not in known]
        write_device_config(self.path, config)

    def _load_device_config(self) -> dict | None:
        path = os.path.join(self.path, _DEVICES_FILE)
        if not os.path.exists(path):
            return None
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)

    def add_device(self, name: str, kind: str, device=None) -> None:
        """Register a new storage device (the administrator writing a
        device-manager-switch entry).  ``device`` may be a pre-built
        manager; otherwise one is constructed with default parameters."""
        if kind not in DEVICE_KINDS:
            raise CatalogError(f"unknown device type {kind!r}")
        if device is not None:
            self.switch.register(device)
            if kind != "magnetic":
                _DEVICE_REGISTRY[(os.path.abspath(self.path), name)] = device
        else:
            self._instantiate_device(name, kind, default=False)
        self.obs.bind_device(self.switch.get(name))
        self._save_device_config([(name, kind)])

    def close(self) -> None:
        if not self._closed:
            self.buffers.flush_all()
            if self.tm is not None:
                # Any queued group-commit records become durable now;
                # their data pages were forced when they committed.
                self.tm.flush_commits()
            self.switch.close_all()
            self._closed = True

    # -- transactions -------------------------------------------------------

    def add_commit_listener(self, fn) -> None:
        """Register ``fn(xid, committed)`` to run when a transaction's
        outcome becomes visible (after the status write, before its
        locks are released — so waiters resumed by the release already
        see the listener's effects)."""
        self._commit_listeners.append(fn)

    def _notify_outcome(self, xid: int, committed: bool) -> None:
        for fn in self._commit_listeners:
            fn(xid, committed)

    def begin(self) -> Transaction:
        tx = self.tm.begin()
        tx._tm = self.tm  # lets catalog helpers build snapshots
        tx._pending_drops = []
        # The xid becomes the current transaction for cost attribution;
        # it stays current through commit so the commit-time page force
        # and status append land on it.
        self.obs.tx.begin(tx.xid)
        return tx

    def commit(self, tx: Transaction) -> None:
        """Pre-commit, then release.  With no WAL, durability is 'dirty
        pages on stable storage, then one status-file append', paid when
        the commit group closes (in this call when there is no window).
        Physical drops wait for that force: a crash before it undoes them."""
        tx.require_active()
        try:
            self.tm.commit(tx, lambda: self._drop_relations(tx))
            self._notify_outcome(tx.xid, True)
        finally:
            self._settle(tx)

    def _settle(self, tx: Transaction) -> None:
        """The end of commit, abort and finish_prepared: a transaction
        whose outcome is decided releases its locks even when an outcome
        listener raised, and stops being charged."""
        if tx.state in (COMMITTED, ABORTED):
            self.locks.release_all(tx)
        self.obs.tx.end(tx.xid)

    def _drop_relations(self, tx: Transaction) -> None:
        for dev_name, relname in getattr(tx, "_pending_drops", []):
            self.buffers.drop_relation(dev_name, relname)
            self.switch.get(dev_name).drop_relation(relname)

    def abort(self, tx: Transaction) -> None:
        """Abort: one status append; the transaction's records are
        simply never visible again.  Nothing is undone physically."""
        try:
            self.tm.abort(tx)
            self._notify_outcome(tx.xid, False)
        finally:
            self._settle(tx)

    def prepare(self, tx: Transaction, gid: str) -> None:
        """2PC phase one: force the transaction's dirty pages, then its
        ``P`` record.  Locks stay held and the transaction stays
        charge-attributable until :meth:`finish_prepared`."""
        tx.require_active()
        if tx.wrote:
            self.buffers.flush_all()
        self.tm.prepare(tx, gid)

    def finish_prepared(self, tx: Transaction, commit: bool) -> None:
        """2PC phase two: apply the coordinator's decision to a live
        prepared transaction, then release its locks."""
        try:
            self.tm.resolve_prepared(tx, commit)
            self._notify_outcome(tx.xid, commit)
            if commit:
                self._drop_relations(tx)
        finally:
            self._settle(tx)

    def snapshot(self, tx: Transaction) -> CurrentSnapshot:
        return CurrentSnapshot(self.tm, tx.xid)

    def asof(self, when: float) -> AsOfSnapshot:
        """A time-travel snapshot: the database exactly as it was at
        simulated time ``when``."""
        return AsOfSnapshot(self.tm, when)

    def _read_snapshot(self, tx: Transaction | None) -> Snapshot:
        if tx is not None:
            return self.snapshot(tx)
        return BootstrapSnapshot(self.tm)

    # -- DDL ---------------------------------------------------------------------

    def create_table(self, tx: Transaction, name: str, schema: Schema,
                     device: str | None = None,
                     indexes: Sequence[Sequence[str]] = ()) -> Table:
        """Create a table (optionally with B-tree indexes) on ``device``
        (None → the default device).  Fully transactional: an abort
        makes the table vanish."""
        from repro.db.locks import EXCLUSIVE
        self.locks.acquire(tx, ("ddl",), EXCLUSIVE)
        snapshot = self.snapshot(tx)
        if self.catalog.lookup_table(name, snapshot, use_cache=False) is not None:
            raise TableError(f"table {name!r} already exists")
        dev = self.switch.get(device)
        oid = self.catalog.allocate_oid()
        self._reclaim_orphan(dev, name)
        dev.create_relation(name)
        self.catalog.add_table_row(tx, oid, name, dev.name, "h", schema)
        for keycols in indexes:
            self._create_index_on(tx, oid, name, dev.name, schema, list(keycols))
        info = self.catalog.lookup_table(name, snapshot, use_cache=False)
        return Table(self, info)

    def ensure_table(self, name: str, schema: Schema,
                     indexes: Sequence[Sequence[str]] = ()) -> None:
        """Create table ``name`` in a transaction of its own, unless
        some committed state already holds it."""
        if not self.table_exists(name):
            with atomic(self) as tx:
                self.create_table(tx, name, schema, indexes=indexes)

    def create_index(self, tx: Transaction, table_name: str,
                     keycols: Sequence[str], name: str | None = None) -> Table:
        """Add a B-tree index — "indices may be defined to make file
        system operations run faster, at the user's discretion".
        Returns a handle on the table that maintains the new index."""
        snapshot = self.snapshot(tx)
        info = self._require_table(table_name, snapshot)
        index = self._create_index_on(tx, info.oid, info.name, info.devname,
                                      info.schema, list(keycols), name)
        return Table(self, replace(info, indexes=info.indexes + (index,)))

    def _reclaim_orphan(self, dev, relname: str,
                        table: str | None = None) -> None:
        """Drop a physical relation on ``dev`` left behind by an aborted
        DDL transaction or migration (the file exists, but no committed
        catalog row places it on ``dev``).  ``table`` is the heap
        ``relname`` belongs to — itself unless it is that heap's index;
        a committed row placing ``table`` on another device does not
        protect the copy here."""
        if dev.relation_exists(relname):
            # maybe a drop still waiting for its commit group's force
            self.tm.flush_commits()
        if not dev.relation_exists(relname):
            return
        from repro.db.snapshot import BootstrapSnapshot
        snapshot = BootstrapSnapshot(self.tm)
        info = self.catalog.lookup_table(table or relname, snapshot,
                                         use_cache=False)
        if info is not None and info.devname == dev.name:
            return
        if table is None and self.catalog.index_exists(relname, snapshot):
            return          # some table's index, whose device is not known
        self.buffers.drop_relation(dev.name, relname)
        dev.drop_relation(relname)

    def _create_index_on(self, tx: Transaction, tableoid: int, table_name: str,
                         devname: str, schema: Schema, keycols: list[str],
                         name: str | None = None) -> IndexInfo:
        for col in keycols:
            schema.column_index(col)  # validates
        idxname = name or f"{table_name}_{'_'.join(keycols)}_idx"
        dev = self.switch.get(devname)
        self._reclaim_orphan(dev, idxname)
        dev.create_relation(idxname)
        btree = BTree.create(self.buffers, devname, idxname, cpu=self.cpu)
        oid = self.catalog.allocate_oid()
        self.catalog.add_index_row(tx, oid, idxname, tableoid, keycols)
        # Populate with every existing record version.
        heap = HeapFile(self.buffers, devname, table_name, schema, cpu=self.cpu)
        col_idx = [schema.column_index(c) for c in keycols]
        for tid, _xmin, _xmax, values in heap.scan_all_versions():
            btree.insert(tx, tuple(values[i] for i in col_idx), tid)
        return IndexInfo(oid, idxname, tableoid, tuple(keycols))

    def drop_table(self, tx: Transaction, name: str) -> None:
        """Drop a table and its indexes.  Physical storage is released
        at commit (an abort leaves everything intact)."""
        snapshot = self.snapshot(tx)
        info = self._require_table(name, snapshot)
        self.catalog.remove_table_row(tx, name, snapshot)
        removed = self.catalog.remove_index_rows(tx, info.oid, snapshot)
        tx._pending_drops.append((info.devname, info.name))
        for ix in removed:
            tx._pending_drops.append((info.devname, ix.name))

    # -- table access ------------------------------------------------------------------

    def _require_table(self, name: str, snapshot: Snapshot) -> TableInfo:
        info = self.catalog.lookup_table(name, snapshot)
        if info is None:
            raise TableError(f"no table named {name!r}")
        return info

    def table(self, name: str, tx: Transaction | None = None) -> Table:
        """A handle on table ``name`` (visibility per ``tx``, or any
        committed state when ``tx`` is None)."""
        return Table(self, self._require_table(name, self._read_snapshot(tx)))

    def table_exists(self, name: str, tx: Transaction | None = None) -> bool:
        return self.catalog.lookup_table(name, self._read_snapshot(tx)) is not None

    def list_tables(self, tx: Transaction | None = None) -> list[str]:
        return [t.name for t in self.catalog.list_tables(self._read_snapshot(tx))]

    # -- archive plumbing (vacuum support) ------------------------------------------------

    def archive_heap_for(self, table_name: str) -> HeapFile | None:
        info = self.catalog.lookup_table(f"a_{table_name}",
                                         BootstrapSnapshot(self.tm))
        if info is None or info.relkind != "a":
            return None
        return HeapFile(self.buffers, info.devname, info.name, info.schema,
                        cpu=self.cpu)

    def archive_index_for(self, table_name: str, keycols: tuple[str, ...]
                          ) -> tuple[HeapFile, BTree] | None:
        info = self.catalog.lookup_table(f"a_{table_name}",
                                         BootstrapSnapshot(self.tm))
        if info is None:
            return None
        for ix in info.indexes:
            if ix.keycols == keycols:
                heap = HeapFile(self.buffers, info.devname, info.name,
                                info.schema, cpu=self.cpu)
                return heap, BTree(self.buffers, info.devname, ix.name, cpu=self.cpu)
        return None

    # -- functions and types ----------------------------------------------------------------

    @property
    def rules(self):
        """The predicate rules system (created on first use)."""
        if self._rules is None:
            from repro.db.rules import RuleSystem
            self._rules = RuleSystem(self)
        return self._rules

    @property
    def funcs(self):
        """The function manager (lazy import avoids a cycle)."""
        from repro.db.funcmgr import FunctionManager
        return FunctionManager(self)

    # -- query language -------------------------------------------------------------------

    def execute(self, tx: Transaction, query: str) -> list[tuple]:
        """Run a POSTQUEL query; returns result rows (empty for DML/DDL)."""
        from repro.db.query.engine import QueryEngine
        return QueryEngine(self).execute(tx, query)

    # -- maintenance -------------------------------------------------------------------------

    def vacuum(self, table_name: str, archive_device: str | None = None,
               keep_history: bool = True):
        """Run the vacuum cleaner on one table; returns VacuumStats.
        ``keep_history=False`` discards obsolete versions instead of
        archiving them ("POSTGRES can be instructed not to save old
        versions")."""
        from repro.db.vacuum import VacuumCleaner
        return VacuumCleaner(self, archive_device,
                             keep_history=keep_history).vacuum_table(table_name)

    def flush_caches(self) -> None:
        """Write back and drop every cached page, and forget disk head
        positions — the benchmark's 'all caches were flushed before
        each test'."""
        self.buffers.invalidate_all(write_dirty=True)
        if self.tm is not None:
            self.tm.flush_commits()
        for disk in self.drives():
            disk.reset_head()
        self.catalog.invalidate_cache()

    def drives(self) -> list:
        """The simulated drives under this database's devices: each
        magnetic device's :class:`~repro.sim.disk.DiskModel` (MemDisk,
        jukebox and tape charge through none)."""
        return [dev.disk for dev in self.switch if hasattr(dev, "disk")]

    def ready_at(self) -> float:
        """When this database can next work: now, or later while a drive
        is still writing what was queued behind the clock."""
        return max([self.clock.now()]
                   + [disk.busy_until for disk in self.drives()])

    def simulate_crash(self) -> None:
        """Power-failure model: volatile caches vanish, media survive.
        The database object is unusable afterwards; reopen with
        :meth:`open`."""
        self.buffers.invalidate_all(write_dirty=False)
        self.switch.simulate_crash()
        self._closed = True

    def wrap_devices(self, wrapper) -> list:
        """Interpose ``wrapper(device)`` proxies over every registered
        device manager (the fault-injection seam used by
        :mod:`repro.testkit`).  The transaction manager's direct handle
        on the root device is rebound too, so status-file forces pass
        through the proxy — without that, commit records would bypass
        the very write counting a crash-schedule explorer relies on."""
        proxies = [self.switch.wrap(name, wrapper)
                   for name in self.switch.names()]
        if self.tm is not None:
            self.tm.rebind_device(self.switch.get(self.switch.default_name))
        return proxies

    def unwrap_devices(self) -> None:
        """Undo :meth:`wrap_devices`."""
        for name in self.switch.names():
            self.switch.unwrap(name)
        if self.tm is not None:
            self.tm.rebind_device(self.switch.get(self.switch.default_name))

    # -- introspection ---------------------------------------------------------------------------

    def iter_table_rows(self, name: str, tx: Transaction | None = None
                        ) -> Iterator[tuple]:
        table = self.table(name, tx)
        for _tid, row in table.scan(self._read_snapshot(tx), tx):
            yield row

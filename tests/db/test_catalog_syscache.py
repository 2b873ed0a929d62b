"""Catalog lookups through the syscache and relcache agree with the
scanning catalog they replaced — under every snapshot, for names that
exist and names that do not — and the caches stay inside their bound."""

import json
import shutil
import tempfile

from hypothesis import settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant,
                                 precondition, rule)

from repro.db.catalog import _INDEXED, IndexInfo, TableInfo
from repro.db.database import Database
from repro.db.snapshot import BootstrapSnapshot
from repro.db.tuples import Column, Schema

SCHEMA = Schema([Column("x", "int4"), Column("y", "int4")])


# -- the scanning lookups, kept as the reference -------------------------------

class ScanningCatalog:
    """``Catalog``'s lookups as they were before the syscache: scan
    ``pg_class`` to the first visible match and ``pg_index`` to the
    end.  Verbatim but for the relcache lines, which served whatever
    was cached to every snapshot."""

    def __init__(self, catalog) -> None:
        self._heap = catalog._heap

    def lookup_table(self, name, snapshot):
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
        return TableInfo(oid, relname, devname, relkind, schema, indexes)

    def index_exists(self, indexname, snapshot):
        return any(v[1] == indexname for _t, v in
                   self._heap("pg_index").scan(snapshot))

    def _indexes_for(self, tableoid, snapshot):
        pg_index = self._heap("pg_index")
        out = []
        for _tid, values in pg_index.scan(snapshot):
            oid, indexname, t_oid, keycols_json = values
            if t_oid == tableoid:
                out.append(IndexInfo(oid, indexname, t_oid,
                                     tuple(json.loads(keycols_json))))
        return out

    def list_tables(self, snapshot, relkind="h"):
        pg_class = self._heap("pg_class")
        names = [v[1] for _t, v in pg_class.scan(snapshot)
                 if relkind is None or v[3] == relkind]
        return [info for name in names
                if (info := self.lookup_table(name, snapshot))]


def held_and_stored(catalog):
    """Per map: the TIDs it holds, and the row versions (dead ones
    included) its catalog stores.  The bound is that they are equal."""
    held = {column: sum(map(len, keyed.values()))
            for column, keyed in catalog._syscache.items()}
    stored = {column: catalog._heap(catname).record_count_physical()
              for column, catname in _INDEXED.items()}
    return held, stored


# -- the differential state machine -------------------------------------------

NAMES = ("a", "b")
SLOTS = st.integers(0, 2)


class CatalogMachine(RuleBasedStateMachine):
    """Up to three transactions create, index and drop a handful of
    names; commits, aborts, a 2PC prepare, cache flushes and crashes
    come in between.  After every step both catalogs are asked about
    every name under every live snapshot."""

    def __init__(self) -> None:
        super().__init__()
        self.path = tempfile.mkdtemp(prefix="syscache-")
        self.db = Database.create(self.path)
        self.txs: dict[int, object] = {}      # slot -> open transaction
        self.touched: dict[str, int] = {}     # name -> slot with DDL on it
        self.toggled: set[str] = set()        # created or dropped by it
        self.ddl_slot: int | None = None      # who holds the ("ddl",) lock
        self.times: list[float] = []          # an as-of instant per commit
        self.gids = 0

    def teardown(self) -> None:
        self.db.simulate_crash()
        shutil.rmtree(self.path, ignore_errors=True)

    # -- transactions ------------------------------------------------------

    def _tx(self, slot):
        if slot not in self.txs:
            self.txs[slot] = self.db.begin()
        return self.txs[slot]

    def _free(self, name, slot) -> bool:
        """Two-phase locking above the catalog keeps two transactions
        off one relation; the machine does the same by hand."""
        return self.touched.setdefault(name, slot) == slot

    def _end(self, slot):
        self.toggled -= {n for n, s in self.touched.items() if s == slot}
        self.touched = {n: s for n, s in self.touched.items() if s != slot}
        if self.ddl_slot == slot:
            self.ddl_slot = None
        return self.txs.pop(slot)

    def _open_slot(self, pick):
        return sorted(self.txs)[pick % len(self.txs)]

    @rule(slot=SLOTS, name=st.sampled_from(NAMES), indexed=st.booleans())
    def create_or_drop(self, slot, name, indexed):
        # Once per name and transaction: dropping and re-creating a
        # relation inside one transaction is not supported (the storage
        # is released at commit).
        if not self._free(name, slot) or name in self.toggled:
            return
        tx = self._tx(slot)
        if self.db.table_exists(name, tx):
            self.db.drop_table(tx, name)
        elif self.ddl_slot in (None, slot):
            self.ddl_slot = slot
            self.db.create_table(tx, name, SCHEMA,
                                 indexes=[["x"]] if indexed else [])
        else:
            return
        self.toggled.add(name)

    @rule(slot=SLOTS, name=st.sampled_from(NAMES))
    def create_index(self, slot, name):
        if not self._free(name, slot):
            return
        tx = self._tx(slot)
        if self.db.table_exists(name, tx) and not self.db.catalog.index_exists(
                f"{name}_y_idx", self.db.snapshot(tx)):
            self.db.create_index(tx, name, ["y"])

    @precondition(lambda self: self.txs)
    @rule(pick=SLOTS)
    def commit(self, pick):
        self.db.commit(self._end(self._open_slot(pick)))
        self.times.append(self.db.clock.now())

    @precondition(lambda self: self.txs)
    @rule(pick=SLOTS)
    def abort(self, pick):
        self.db.abort(self._end(self._open_slot(pick)))

    @precondition(lambda self: self.txs)
    @rule(pick=SLOTS, commit=st.booleans())
    def two_phase(self, pick, commit):
        """Prepare, let everyone look at the in-doubt rows, decide."""
        slot = self._open_slot(pick)
        self.gids += 1
        self.db.prepare(self.txs[slot], f"g.{self.gids}")
        self.agree()
        self.db.finish_prepared(self._end(slot), commit)
        if commit:
            self.times.append(self.db.clock.now())

    # -- what happens to the caches ----------------------------------------

    @rule()
    def invalidate(self):
        self.db.catalog.invalidate_cache()

    @rule()
    def flush_caches(self):
        self.db.flush_caches()

    @rule(prepare=st.booleans(), commit=st.booleans())
    def crash_and_reopen(self, prepare, commit):
        """Open transactions die with the machine, except one that
        prepared: it comes back in doubt and is resolved after a look."""
        if prepare and self.txs:
            self.gids += 1
            self.db.prepare(self.txs[min(self.txs)], f"g.{self.gids}")
        self.db.simulate_crash()
        self.db = Database.open(self.path)
        self.txs.clear()
        self.touched.clear()
        self.toggled.clear()
        self.ddl_slot = None
        for xid in self.db.tm.in_doubt():
            self.agree()
            self.db.tm.resolve_in_doubt(xid, commit)
            if commit:
                self.times.append(self.db.clock.now())

    # -- the property --------------------------------------------------------

    @invariant()
    def agree(self):
        db, catalog = self.db, self.db.catalog
        oracle = ScanningCatalog(catalog)
        snapshots = [BootstrapSnapshot(db.tm)]
        snapshots += [db.snapshot(tx) for tx in self.txs.values()
                      if tx.state == "in_progress"]
        snapshots += [db.asof(t) for t in self.times[-4:]]
        for snapshot in snapshots:
            for name in NAMES + ("never", "pg_index"):
                want = oracle.lookup_table(name, snapshot)
                for use_cache in (True, False):
                    assert catalog.lookup_table(
                        name, snapshot, use_cache=use_cache) == want, \
                        (name, snapshot, use_cache)
                for idx in (f"{name}_x_idx", f"{name}_y_idx"):
                    assert (catalog.index_exists(idx, snapshot)
                            == oracle.index_exists(idx, snapshot)), idx
            assert (catalog.list_tables(snapshot, relkind=None)
                    == oracle.list_tables(snapshot, relkind=None))
        if catalog._syscache is not None:
            held, stored = held_and_stored(catalog)
            assert held == stored


TestCatalogAgainstTheScan = CatalogMachine.TestCase
TestCatalogAgainstTheScan.settings = settings(
    max_examples=50, stateful_step_count=30, deadline=None)


# -- the resource bound --------------------------------------------------------

def test_syscache_holds_one_tid_per_row_version_and_dies_whole(db):
    """ROADMAP item 2: every cache states its bound.  Each map holds
    exactly one TID per row version of its catalog — dead versions
    included, nothing else — and ``invalidate_cache`` leaves nothing."""
    catalog = db.catalog
    for round_ in range(3):
        tx = db.begin()
        for i in range(20):
            db.create_table(tx, f"t{i}", SCHEMA, indexes=[["x"], ["y"]])
        db.commit(tx)
        tx = db.begin()
        for i in range(0, 20, 2 if round_ else 1):
            db.drop_table(tx, f"t{i}")
        db.abort(tx) if round_ == 1 else db.commit(tx)
        tx = db.begin()
        for i in range(20):
            if db.table_exists(f"t{i}", tx):
                db.drop_table(tx, f"t{i}")
        db.commit(tx)
    held, stored = held_and_stored(catalog)
    assert held == stored == {"relname": 4 + 60, "tableoid": 120,
                              "indexname": 120}
    assert catalog._table_cache.keys() <= catalog._syscache["relname"].keys()
    catalog.invalidate_cache()
    assert catalog._syscache is None
    assert not catalog._table_cache and not catalog._cached_names
    assert db.table_exists("pg_class") and not db.table_exists("t3")
    assert catalog.stats.rebuilds == 2

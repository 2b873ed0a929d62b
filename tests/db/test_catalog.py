"""System catalogs: self-description, types, functions, transactionality."""

import pytest

from repro.db.snapshot import BootstrapSnapshot
from repro.db.tuples import Column, Schema
from repro.errors import CatalogError, TableError

SCHEMA = Schema([Column("x", "int4")])


def test_catalogs_describe_themselves(db):
    snap = BootstrapSnapshot(db.tm)
    for name in ("pg_class", "pg_index", "pg_type", "pg_proc"):
        info = db.catalog.lookup_table(name, snap)
        assert info is not None
        assert info.relkind == "h"
        assert info.devname == "magnetic0"


def test_lookup_missing_table(db):
    assert db.catalog.lookup_table("nope", BootstrapSnapshot(db.tm)) is None


def test_oids_unique_and_persistent(db, tmp_path):
    oids = {db.catalog.allocate_oid() for _ in range(300)}
    assert len(oids) == 300
    from repro.db.database import Database
    db.close()
    reopened = Database.open(db.path)
    fresh = reopened.catalog.allocate_oid()
    assert fresh > max(oids)
    reopened.close()


def test_type_definition_and_lookup(db):
    tx = db.begin()
    info = db.catalog.define_type(tx, "satellite", "5-band image")
    db.commit(tx)
    tx2 = db.begin()
    found = db.catalog.lookup_type("satellite", db.snapshot(tx2))
    assert found.oid == info.oid
    assert found.description == "5-band image"
    db.commit(tx2)


def test_duplicate_type_rejected(db):
    tx = db.begin()
    db.catalog.define_type(tx, "t1")
    with pytest.raises(CatalogError):
        db.catalog.define_type(tx, "t1")
    db.abort(tx)


def test_aborted_type_definition_vanishes(db):
    tx = db.begin()
    db.catalog.define_type(tx, "ghost")
    db.abort(tx)
    tx2 = db.begin()
    assert db.catalog.lookup_type("ghost", db.snapshot(tx2)) is None
    db.commit(tx2)


def test_function_definition_and_redefinition(db, clock):
    tx = db.begin()
    db.catalog.define_function(tx, "f", "postquel", ["int4"], "int4", "$1+1")
    db.commit(tx)
    t_old = clock.now()
    tx2 = db.begin()
    db.catalog.define_function(tx2, "f", "postquel", ["int4"], "int4", "$1+2")
    db.commit(tx2)
    tx3 = db.begin()
    now = db.catalog.lookup_function("f", db.snapshot(tx3))
    assert now.src == "$1+2"
    then = db.catalog.lookup_function("f", db.asof(t_old))
    assert then.src == "$1+1"
    db.commit(tx3)


def test_list_functions_and_types(db):
    tx = db.begin()
    db.catalog.define_type(tx, "x1")
    db.catalog.define_function(tx, "g", "python", [], "int4", "lib:g")
    db.commit(tx)
    tx2 = db.begin()
    snap = db.snapshot(tx2)
    assert "x1" in [t.name for t in db.catalog.list_types(snap)]
    assert "g" in [p.name for p in db.catalog.list_functions(snap)]
    db.commit(tx2)


def test_typrestrict_recorded(db):
    tx = db.begin()
    db.catalog.define_function(tx, "snow", "python", ["oid"], "int8",
                               "typed:snow", typrestrict="tm_image")
    db.commit(tx)
    tx2 = db.begin()
    proc = db.catalog.lookup_function("snow", db.snapshot(tx2))
    assert proc.typrestrict == "tm_image"
    db.commit(tx2)


def test_list_tables_excludes_indexes(db):
    tx = db.begin()
    db.create_table(tx, "withidx", SCHEMA, indexes=[["x"]])
    db.commit(tx)
    names = [t.name for t in db.catalog.list_tables(BootstrapSnapshot(db.tm))]
    assert "withidx" in names
    assert "withidx_x_idx" not in names


# -- the relcache serves nobody an uncommitted or a dead relation -------------

def test_a_dropped_table_does_not_come_back(db):
    """B looks while A's drop is uncommitted and must not pin the row
    A is deleting: after A commits, nobody sees the table."""
    tx = db.begin()
    db.create_table(tx, "t", SCHEMA)
    db.commit(tx)
    a, b = db.begin(), db.begin()
    db.drop_table(a, "t")
    assert db.table_exists("t", b)
    assert not db.table_exists("t", a)
    db.commit(a)
    c = db.begin()
    assert not db.table_exists("t", c)
    assert not db.table_exists("t", b)
    assert not db.table_exists("t")
    with pytest.raises(TableError):
        db.table("t", c)


def test_an_aborted_drop_leaves_the_table_cacheable(db):
    tx = db.begin()
    db.create_table(tx, "t", SCHEMA, indexes=[["x"]])
    db.commit(tx)
    a, b = db.begin(), db.begin()
    db.drop_table(a, "t")
    assert db.table_exists("t", b)
    db.abort(a)
    info = db.table("t", b).info
    assert [ix.name for ix in info.indexes] == ["t_x_idx"]
    hits = db.catalog.stats.relcache_hits
    assert db.table("t", db.begin()).info is info
    assert db.catalog.stats.relcache_hits == hits + 1


def test_no_dirty_catalog_read(db):
    """X's uncommitted create is X's alone, however often X looks."""
    x, y = db.begin(), db.begin()
    db.create_table(x, "u", SCHEMA)
    assert db.table("u", x).info.name == "u"
    assert not db.table_exists("u", y)
    assert not db.table_exists("u")
    probes = db.catalog.stats.probes
    assert db.table_exists("u", x)          # answered by a probe each time
    assert db.catalog.stats.probes > probes
    db.commit(x)
    assert db.table_exists("u", y) and db.table_exists("u")


def test_an_aborted_create_is_gone_and_its_storage_reclaimed(db):
    x = db.begin()
    db.create_table(x, "u", SCHEMA, indexes=[["x"]])
    db.table("u", x).insert(x, (1,))
    db.abort(x)
    dev = db.switch.get("magnetic0")
    assert not db.table_exists("u") and dev.relation_exists("u")
    y = db.begin()
    assert not db.table_exists("u", y)
    db.create_table(y, "u", SCHEMA, indexes=[["x"]])   # reclaims the orphans
    db.commit(y)
    assert list(db.iter_table_rows("u")) == []


@pytest.mark.parametrize("look_first", [False, True])
@pytest.mark.parametrize("outcome", ["commit", "abort"])
def test_an_uncommitted_index_is_its_creators_alone(db, look_first, outcome):
    tx = db.begin()
    db.create_table(tx, "t", SCHEMA)
    db.commit(tx)
    a, b = db.begin(), db.begin()
    if look_first:
        assert db.table("t", b).info.indexes == ()
    db.create_index(a, "t", ["x"])
    assert [ix.name for ix in db.table("t", a).info.indexes] == ["t_x_idx"]
    assert db.table("t", b).info.indexes == ()
    assert db.table("t").info.indexes == ()
    getattr(db, outcome)(a)
    want = ["t_x_idx"] if outcome == "commit" else []
    assert [ix.name for ix in db.table("t", b).info.indexes] == want
    assert [ix.name for ix in db.table("t").info.indexes] == want


def test_vacuuming_a_catalog_rebuilds_the_syscache(db):
    """Vacuum rewrites the heap: every TID the maps held is stale."""
    tx = db.begin()
    for i in range(6):
        db.create_table(tx, f"t{i}", SCHEMA, indexes=[["x"]])
    db.commit(tx)
    tx = db.begin()
    db.drop_table(tx, "t0")
    db.drop_table(tx, "t3")
    db.commit(tx)
    want = db.list_tables()
    for cat in ("pg_class", "pg_index"):
        assert db.vacuum(cat, keep_history=False).expunged == 2
        assert db.list_tables() == want
        assert db.table("t5").info.indexes[0].name == "t5_x_idx"
    tx = db.begin()
    db.create_table(tx, "t0", SCHEMA, indexes=[["x"]])
    db.commit(tx)
    assert db.list_tables() == want + ["t0"]


def test_scans_per_lookup_is_answerable_from_the_registry(db):
    """``catalog.*`` on the database's registry say how lookups were
    answered; a reopened database starts them at zero."""
    value = db.obs.metrics.value
    tx = db.begin()
    db.create_table(tx, "t", SCHEMA, indexes=[["x"]])
    db.commit(tx)
    assert value("catalog.rebuilds") == 1
    probes = value("catalog.probes")
    assert probes == db.catalog.stats.probes > 0
    assert db.table_exists("t") and value("catalog.probes") > probes
    probes, hits = value("catalog.probes"), value("catalog.relcache_hits")
    for _ in range(5):
        assert db.table("t").info.name == "t"
    assert value("catalog.relcache_hits") == hits + 5
    assert value("catalog.probes") == probes
    db.flush_caches()
    assert db.table_exists("t") and value("catalog.rebuilds") == 2
    from repro.db.database import Database
    db.close()
    reopened = Database.open(db.path)
    assert reopened.obs.metrics.value("catalog.probes") == 0
    assert reopened.table_exists("t")
    assert reopened.obs.metrics.value("catalog.rebuilds") == 1
    reopened.close()

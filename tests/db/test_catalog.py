"""System catalogs: self-description, types, functions, transactionality."""

import pytest

from repro.db.snapshot import BootstrapSnapshot
from repro.db.tuples import Column, Schema
from repro.errors import CatalogError

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


def test_lookup_misses_decode_mutated_pages_only(db, monkeypatch):
    """Counts, not clocks.  A catalog-cache miss scans pg_class and
    pg_index; it must not decode their rows again unless a page
    changed.  200 misses over a 400-row pg_class with a DDL every 20th
    decode about (rows on a pg_class page + rows on a pg_index page)
    per DDL — the parent decoded every scanned row on every miss,
    over 100x more."""
    tx = db.begin()
    for i in range(396):
        db.create_table(tx, f"t{i:03d}", SCHEMA, indexes=[["x"]])
    db.commit(tx)
    tx = db.begin()
    snap = db.snapshot(tx)
    assert len(db.catalog.list_tables(snap, relkind=None)) == 400
    per_page = sum(
        max(db.buffers.get_page("magnetic0", cat, p).nslots
            for p in range(db.switch.get("magnetic0").nblocks(cat)))
        for cat in ("pg_class", "pg_index"))

    unpacks = []
    real = Schema.unpack
    monkeypatch.setattr(Schema, "unpack",
                        lambda self, *a: unpacks.append(1) or real(self, *a))
    ddls = 0
    for i in range(200):
        if i % 20 == 0:
            db.create_table(tx, f"late{i}", SCHEMA)
            ddls += 1
        db.catalog.invalidate_cache()
        assert db.catalog.lookup_table(f"t{i:03d}", snap).name
    # The changed page is decoded again by the DDL's exists-check, by
    # its own lookup after the insert, and by the next miss.
    assert len(unpacks) <= 3 * ddls * per_page
    db.commit(tx)

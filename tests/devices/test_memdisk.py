"""NVRAM device manager."""

import pytest

from repro.db.page import PAGE_SIZE
from repro.devices.memdisk import MemDisk
from repro.errors import DeviceError, DeviceFullError
from repro.sim.clock import SimClock


@pytest.fixture
def dev():
    return MemDisk("n0", SimClock())


def test_roundtrip(dev):
    dev.create_relation("r")
    p = dev.extend("r")
    dev.write_page("r", p, bytes([9]) * PAGE_SIZE)
    assert dev.read_page("r", p) == bytes([9]) * PAGE_SIZE


def test_io_is_cheap(dev):
    dev.create_relation("r")
    p = dev.extend("r")
    before = dev.clock.now()
    dev.write_page("r", p, bytes(PAGE_SIZE))
    dev.read_page("r", p)
    assert dev.clock.now() - before < 0.002


def test_capacity_enforced():
    dev = MemDisk("n0", SimClock(), capacity_bytes=3 * PAGE_SIZE)
    dev.create_relation("r")
    for _ in range(3):
        dev.extend("r")
    with pytest.raises(DeviceFullError):
        dev.extend("r")


def test_drop_frees_capacity():
    dev = MemDisk("n0", SimClock(), capacity_bytes=2 * PAGE_SIZE)
    dev.create_relation("a")
    dev.extend("a")
    dev.extend("a")
    dev.drop_relation("a")
    dev.create_relation("b")
    dev.extend("b")
    dev.extend("b")


def test_nonvolatile_survives_crash(dev):
    dev.create_relation("r")
    p = dev.extend("r")
    dev.write_page("r", p, bytes([1]) * PAGE_SIZE)
    dev.simulate_crash()
    assert dev.read_page("r", p) == bytes([1]) * PAGE_SIZE


def test_bad_page_size_rejected(dev):
    dev.create_relation("r")
    dev.extend("r")
    with pytest.raises(ValueError):
        dev.write_page("r", 0, b"short")


def test_unknown_relation(dev):
    with pytest.raises(DeviceError):
        dev.read_page("nope", 0)


def test_meta(dev):
    dev.sync_write_meta("k", b"v")
    dev.sync_append_meta("k", b"2")
    assert dev.read_meta("k") == b"v2"


def test_rename_relation_moves_pages(dev):
    dev.create_relation("src")
    p = dev.extend("src")
    dev.write_page("src", p, bytes([5]) * PAGE_SIZE)
    dev.rename_relation("src", "dst")
    assert not dev.relation_exists("src")
    assert dev.read_page("dst", p) == bytes([5]) * PAGE_SIZE


def test_rename_over_existing_keeps_capacity_accounting():
    dev = MemDisk("n0", SimClock(), capacity_bytes=3 * PAGE_SIZE)
    dev.create_relation("src")
    dev.extend("src")
    dev.create_relation("dst")
    dev.extend("dst")
    dev.extend("dst")
    dev.rename_relation("src", "dst")  # dst's two pages are freed
    dev.create_relation("more")
    dev.extend("more")
    dev.extend("more")  # fits only if the replaced pages were released


def test_rename_completed_is_noop(dev):
    dev.create_relation("dst")
    dev.rename_relation("src", "dst")  # src gone + dst present: done
    assert dev.relation_exists("dst")


def test_bad_relation_names(dev):
    with pytest.raises(ValueError):
        dev.create_relation("")
    with pytest.raises(ValueError):
        dev.create_relation("a/b")


def test_meta_tags_lists_every_stored_blob_sorted(dev):
    """What a base backup copies meta by meta (``replica.backup``)."""
    assert dev.meta_tags() == []
    dev.sync_write_meta("pg_status", b"C 2")
    dev.sync_write_meta("pg_allocmap", b"")
    dev.sync_write_meta("pg_status", b"C 2 C 3")
    assert dev.meta_tags() == ["pg_allocmap", "pg_status"]

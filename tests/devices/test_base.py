"""Device manager base-class helpers."""

from repro.devices.base import DeviceManager
from repro.devices.memdisk import MemDisk
from repro.sim.clock import SimClock


def test_describe_reports_identity():
    dev = MemDisk("nv", SimClock())
    desc = dev.describe()
    assert desc == {"name": "nv", "type": "MemDisk", "nonvolatile": True}


def test_default_append_meta_via_read_modify_write():
    dev = MemDisk("nv", SimClock())
    DeviceManager.sync_append_meta(dev, "t", b"one")
    DeviceManager.sync_append_meta(dev, "t", b"+two")
    assert dev.read_meta("t") == b"one+two"


def test_default_rename_relation_moves_pages():
    dev = MemDisk("nv", SimClock())
    dev.create_relation("src")
    p = dev.extend("src")
    dev.write_page("src", p, b"\x07" * 8192)
    DeviceManager.rename_relation(dev, "src", "dst")
    assert not dev.relation_exists("src")
    assert dev.read_page("dst", p) == b"\x07" * 8192


def test_default_rename_relation_replaces_existing_destination():
    dev = MemDisk("nv", SimClock())
    for rel, byte in (("src", 1), ("dst", 2)):
        dev.create_relation(rel)
        dev.extend(rel)
        dev.write_page(rel, 0, bytes([byte]) * 8192)
    DeviceManager.rename_relation(dev, "src", "dst")
    assert dev.read_page("dst", 0) == b"\x01" * 8192


def test_default_rename_relation_completed_is_noop():
    """Missing source with an existing destination is a rename that
    already completed — journal replay must be able to re-run it."""
    dev = MemDisk("nv", SimClock())
    dev.create_relation("dst")
    dev.extend("dst")
    dev.write_page("dst", 0, b"\x09" * 8192)
    DeviceManager.rename_relation(dev, "src", "dst")
    assert dev.read_page("dst", 0) == b"\x09" * 8192


def test_rebind_clock_switches_charging():
    old_clock = SimClock()
    dev = MemDisk("nv", old_clock)
    dev.create_relation("r")
    dev.extend("r")
    new_clock = SimClock()
    dev.rebind_clock(new_clock)
    dev.write_page("r", 0, bytes(8192))
    assert new_clock.now() > 0
    assert old_clock.now() < new_clock.now() + 1  # old clock untouched by write


def test_rebind_clock_rebinds_embedded_disk_models(tmp_path):
    from repro.devices.jukebox import SonyJukebox
    juke = SonyJukebox("j", SimClock())
    fresh = SimClock()
    juke.rebind_clock(fresh)
    assert juke.clock is fresh
    assert juke.staging_disk.clock is fresh

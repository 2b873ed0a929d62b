"""Magnetic disk device manager: persistence, extents, metadata."""

import os

import pytest

from repro.db.page import PAGE_SIZE
from repro.devices.magnetic import EXTENT_PAGES, MagneticDisk
from repro.errors import DeviceError
from repro.sim.clock import SimClock


@pytest.fixture
def dev(tmp_path):
    return MagneticDisk("m0", SimClock(), str(tmp_path / "m0"))


def page_of(byte: int) -> bytes:
    return bytes([byte]) * PAGE_SIZE


def test_relation_lifecycle(dev):
    dev.create_relation("r")
    assert dev.relation_exists("r")
    assert dev.nblocks("r") == 0
    dev.drop_relation("r")
    assert not dev.relation_exists("r")


def test_duplicate_create_rejected(dev):
    dev.create_relation("r")
    with pytest.raises(DeviceError):
        dev.create_relation("r")


def test_unknown_relation_rejected(dev):
    with pytest.raises(DeviceError):
        dev.nblocks("nope")
    with pytest.raises(DeviceError):
        dev.drop_relation("nope")


def test_write_read_roundtrip(dev):
    dev.create_relation("r")
    p = dev.extend("r")
    dev.write_page("r", p, page_of(7))
    assert dev.read_page("r", p) == page_of(7)


def test_extended_unwritten_page_reads_zero(dev):
    dev.create_relation("r")
    p = dev.extend("r")
    assert dev.read_page("r", p) == bytes(PAGE_SIZE)


def test_out_of_range_page_rejected(dev):
    dev.create_relation("r")
    with pytest.raises(DeviceError):
        dev.read_page("r", 0)
    with pytest.raises(DeviceError):
        dev.write_page("r", 5, page_of(1))


def test_persistence_across_reopen(tmp_path):
    clock = SimClock()
    path = str(tmp_path / "m0")
    dev = MagneticDisk("m0", clock, path)
    dev.create_relation("r")
    for i in range(3):
        dev.extend("r")
        dev.write_page("r", i, page_of(i))
    dev.close()
    dev2 = MagneticDisk("m0", SimClock(), path)
    assert dev2.nblocks("r") == 3
    assert dev2.read_page("r", 1) == page_of(1)


def test_npages_reconciled_from_file_after_crash(tmp_path):
    """The allocation map is written lazily; after a crash the backing
    file length is authoritative."""
    path = str(tmp_path / "m0")
    dev = MagneticDisk("m0", SimClock(), path)
    dev.create_relation("r")
    for i in range(5):
        dev.extend("r")
        dev.write_page("r", i, page_of(i))
    dev.simulate_crash()  # no allocmap save
    dev2 = MagneticDisk("m0", SimClock(), path)
    assert dev2.nblocks("r") >= 5
    assert dev2.read_page("r", 4) == page_of(4)


def test_extents_are_contiguous_within_relation(dev):
    dev.create_relation("a")
    dev.create_relation("b")
    # Interleave extends: each relation's extents double from one page
    # up to EXTENT_PAGES, and its pages are physically contiguous inside
    # each of them however the two relations alternate.
    for _ in range(3 * EXTENT_PAGES):
        dev.extend("a")
        dev.extend("b")
    for rel in ("a", "b"):
        st = dev._rels[rel]
        assert st.lengths == [1, 2, 4, 8, 16, 32, 64, 64, 64]
        pageno = 0
        for block, length in zip(st.extents, st.lengths):
            run = [dev.page_address(rel, p)
                   for p in range(pageno, min(pageno + length, st.npages))]
            assert run == list(range(block, block + len(run)))
            pageno += length
    # ... and a relation of a page or two sits right beside its
    # neighbours, not on a cylinder of its own.
    for rel in ("c", "d"):
        dev.create_relation(rel)
        dev.extend(rel)
    assert dev.page_address("d", 0) == dev.page_address("c", 0) + 1


def test_two_growing_relations_use_disjoint_extents(dev):
    dev.create_relation("a")
    dev.create_relation("b")
    for _ in range(EXTENT_PAGES + 1):
        dev.extend("a")
        dev.extend("b")
    st_a, st_b = dev._rels["a"], dev._rels["b"]
    assert not set(st_a.extents) & set(st_b.extents)


def test_meta_roundtrip_and_append(dev):
    dev.sync_write_meta("tag", b"hello")
    assert dev.read_meta("tag") == b"hello"
    dev.sync_append_meta("tag", b" world")
    assert dev.read_meta("tag") == b"hello world"
    assert dev.read_meta("missing") is None


def test_meta_write_charges_seek_to_front(dev):
    dev.create_relation("r")
    p = dev.extend("r")
    dev.write_page("r", p, page_of(1))
    seeks_before = dev.disk.stats.seeks
    dev.sync_write_meta("pg_status", b"C 2 0.0 1.0\n")
    assert dev.disk.stats.seeks > seeks_before


def test_rename_relation_atomic_replace(tmp_path):
    path = str(tmp_path / "m0")
    dev = MagneticDisk("m0", SimClock(), path)
    for rel, byte in (("src", 1), ("dst", 2)):
        dev.create_relation(rel)
        p = dev.extend(rel)
        dev.write_page(rel, p, page_of(byte))
    dev.rename_relation("src", "dst")
    assert not dev.relation_exists("src")
    assert dev.read_page("dst", 0) == page_of(1)
    assert not os.path.exists(os.path.join(path, "src.rel"))
    dev.close()
    # The swap is durable: a reopen sees the renamed relation.
    dev2 = MagneticDisk("m0", SimClock(), path)
    assert dev2.read_page("dst", 0) == page_of(1)
    assert not dev2.relation_exists("src")


def test_rename_relation_completed_is_idempotent(dev):
    dev.create_relation("dst")
    dev.extend("dst")
    dev.write_page("dst", 0, page_of(3))
    # Source already gone, destination present: the rename completed
    # before a crash; replaying it must change nothing.
    dev.rename_relation("src", "dst")
    assert dev.read_page("dst", 0) == page_of(3)


def test_rename_relation_missing_source_rejected(dev):
    with pytest.raises(DeviceError):
        dev.rename_relation("nope", "also-nope")


def test_allocmap_entry_without_backing_file_dropped(tmp_path):
    """A crash between a drop/rename and the lazy allocmap save leaves
    a map entry whose backing file is gone; the reopen must shrug it
    off instead of resurrecting a phantom relation."""
    path = str(tmp_path / "m0")
    dev = MagneticDisk("m0", SimClock(), path)
    dev.create_relation("keep")
    dev.create_relation("ghost")
    dev.extend("keep")
    dev.close()  # saves the allocation map with both entries
    os.remove(os.path.join(path, "ghost.rel"))
    dev2 = MagneticDisk("m0", SimClock(), path)
    assert not dev2.relation_exists("ghost")
    assert dev2.nblocks("keep") == 1


def test_drop_relation_removes_backing_file(tmp_path):
    path = str(tmp_path / "m0")
    dev = MagneticDisk("m0", SimClock(), path)
    dev.create_relation("r")
    assert os.path.exists(os.path.join(path, "r.rel"))
    dev.drop_relation("r")
    assert not os.path.exists(os.path.join(path, "r.rel"))


@pytest.mark.parametrize("src_pages, dst_pages", [(2, 5), (5, 2)])
def test_rename_carries_page_count_and_extents_across_crash(
        tmp_path, src_pages, dst_pages):
    """Vacuum swaps a rebuilt heap over the old one.  After a crash the
    destination must have the *source's* page count and extents, not
    what the name held before — a stale index entry pointing past the
    rebuilt heap has to fail, not read a zero page."""
    path = str(tmp_path / "m0")
    dev = MagneticDisk("m0", SimClock(), path)
    for rel, pages in (("dst", dst_pages), ("src", src_pages)):
        dev.create_relation(rel)
        for i in range(pages):
            pageno = dev.extend(rel)
            if i < pages - 1:   # the last page is allocated, not written:
                dev.write_page(rel, pageno, page_of(i + 1))   # no file length
    extents = list(dev._rels["src"].extents)                  # vouches for it
    dev.rename_relation("src", "dst")
    dev.simulate_crash()
    dev2 = MagneticDisk("m0", SimClock(), path)
    assert not dev2.relation_exists("src")
    assert dev2.nblocks("dst") == src_pages
    assert dev2._rels["dst"].extents == extents
    assert dev2.read_page("dst", src_pages - 2) == page_of(src_pages - 1)
    assert dev2.read_page("dst", src_pages - 1) == bytes(PAGE_SIZE)
    with pytest.raises(DeviceError):
        dev2.read_page("dst", max(src_pages, dst_pages))
    if dst_pages > src_pages:
        with pytest.raises(DeviceError):
            dev2.read_page("dst", dst_pages - 1)

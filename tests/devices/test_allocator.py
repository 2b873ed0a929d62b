"""The magnetic disk's allocator as a property: whatever is created,
grown, dropped, renamed, flushed or crashed, no two live extents share
a block, every page has one block of its own, extents double from one
page to ``EXTENT_PAGES``, the map on the medium rebuilds to the map in
memory (extent lengths included), and the device says it is full
before the cursor leaves it.  Plus the bound on open backing files."""

import os
import shutil
import tempfile

from hypothesis import settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant,
                                 precondition, rule)

from repro.db.page import PAGE_SIZE
from repro.devices import magnetic
from repro.devices.magnetic import EXTENT_PAGES, MagneticDisk
from repro.errors import DeviceFullError
from repro.sim.clock import SimClock
from repro.sim.disk import DiskGeometry, RZ58

#: a drive small enough to fill inside one example
TINY = DiskGeometry(name="tiny", capacity_bytes=(64 + 400) * PAGE_SIZE,
                    rpm=RZ58.rpm, min_seek_s=RZ58.min_seek_s,
                    avg_seek_s=RZ58.avg_seek_s, max_seek_s=RZ58.max_seek_s,
                    transfer_rate_bps=RZ58.transfer_rate_bps)


def layout_of(disk: MagneticDisk):
    return ([(name, list(s.extents), list(s.lengths))
             for name, s in disk._rels.items()], disk._next_block)


class Allocator(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.root = tempfile.mkdtemp(prefix="allocator-")
        self.directory = os.path.join(self.root, "m0")
        self.names = iter(f"r{i}" for i in range(10_000))
        self.disk = self.open()

    def open(self) -> MagneticDisk:
        return MagneticDisk("m0", SimClock(), self.directory, geometry=TINY)

    def teardown(self) -> None:
        self.disk.close()
        shutil.rmtree(self.root, ignore_errors=True)

    def pick(self, data) -> str:
        return data.draw(st.sampled_from(self.disk.list_relations()))

    # -- operations ------------------------------------------------------

    @rule()
    def create(self):
        self.disk.create_relation(next(self.names))

    @precondition(lambda self: self.disk.list_relations())
    @rule(data=st.data(), pages=st.integers(1, 70), write=st.booleans())
    def grow(self, data, pages, write):
        disk, rel = self.disk, self.pick(data)
        for _ in range(pages):
            before = layout_of(disk), disk.nblocks(rel)
            try:
                pageno = disk.extend(rel)
            except DeviceFullError:
                # refused for a reason, and nothing moved
                lengths = disk._rels[rel].lengths
                want = min(2 * lengths[-1], EXTENT_PAGES) if lengths else 1
                assert disk._next_block + want > TINY.total_blocks
                assert (layout_of(disk), disk.nblocks(rel)) == before
                return
            assert pageno == before[1]
            if write:
                disk.write_page(rel, pageno, bytes([pageno % 251]) * PAGE_SIZE)

    @precondition(lambda self: self.disk.list_relations())
    @rule(data=st.data())
    def drop(self, data):
        self.disk.drop_relation(self.pick(data))

    @precondition(lambda self: self.disk.list_relations())
    @rule(data=st.data(), over=st.booleans())
    def rename(self, data, over):
        src = self.pick(data)
        dst = self.pick(data) if over else next(self.names)
        if dst != src:
            self.disk.rename_relation(src, dst)

    @rule()
    def flush(self):
        self.disk.flush()
        fresh = self.open()
        assert layout_of(fresh) == layout_of(self.disk)
        assert {r: fresh.nblocks(r) for r in fresh.list_relations()} == \
            {r: self.disk.nblocks(r) for r in self.disk.list_relations()}

    @rule(torn=st.booleans())
    def crash_and_reopen(self, torn):
        """Power fails — with ``torn``, part-way through a journal
        append.  Extents are journalled as they are carved, so the
        layout survives whole; page counts fall back to what a record
        or the backing file vouches for."""
        old = self.disk
        old.simulate_crash()
        if torn:
            with open(os.path.join(self.directory, "_alloc.log"), "ab") as f:
                f.write(b'{"seq":%d,"op":"extent","rel":"r0","blo'
                        % (old._seq + 1))
        self.disk = self.open()
        assert layout_of(self.disk) == layout_of(old)
        for rel in old.list_relations():
            on_disk = os.path.getsize(
                os.path.join(self.directory, rel + ".rel")) // PAGE_SIZE
            assert on_disk <= self.disk.nblocks(rel) <= old.nblocks(rel)

    # -- what always holds --------------------------------------------------

    @invariant()
    def extents_are_disjoint_and_inside_the_device(self):
        disk = self.disk
        runs = sorted((block, length) for s in disk._rels.values()
                      for block, length in zip(s.extents, s.lengths))
        end = disk.meta_region_blocks
        for block, length in runs:
            assert block >= end
            end = block + length
        assert end <= disk._next_block <= TINY.total_blocks

    @invariant()
    def extents_double_up_to_the_largest(self):
        for s in self.disk._rels.values():
            assert s.lengths == [min(2 ** i, EXTENT_PAGES)
                                 for i in range(len(s.lengths))]
            assert s.npages <= sum(s.lengths)

    @invariant()
    def every_page_has_its_own_block(self):
        disk = self.disk
        seen = set()
        for rel, s in disk._rels.items():
            pageno = 0
            for block, length in zip(s.extents, s.lengths):
                for i in range(min(length, s.npages - pageno)):
                    assert disk.page_address(rel, pageno + i) == block + i
                    seen.add(block + i)
                pageno += length
        assert len(seen) == sum(s.npages for s in disk._rels.values())

    @invariant()
    def the_medium_rebuilds_to_the_live_layout(self):
        fresh = self.open()
        assert layout_of(fresh) == layout_of(self.disk)
        for rel in fresh.list_relations():
            assert fresh.nblocks(rel) <= self.disk.nblocks(rel)


Allocator.TestCase.settings = settings(max_examples=40,
                                       stateful_step_count=30, deadline=None)
test_allocator_properties = Allocator.TestCase


# -- the open-file table ------------------------------------------------------

def open_descriptors() -> int:
    return len(os.listdir("/proc/self/fd"))


def test_open_backing_files_are_bounded(tmp_path):
    """Three times the bound in relations, each written and read back:
    the process never holds more than the bound in backing files, and a
    handle closed to make room lost nothing."""
    bound = magnetic.MAX_OPEN_FILES
    baseline = open_descriptors()
    disk = MagneticDisk("m0", SimClock(), str(tmp_path / "m0"))
    rels = [f"r{i:04d}" for i in range(3 * bound)]
    peak = 0
    for i, rel in enumerate(rels):
        disk.create_relation(rel)
        disk.write_page(rel, disk.extend(rel), bytes([i % 251]) * PAGE_SIZE)
        peak = max(peak, open_descriptors())
    for i, rel in enumerate(rels):          # oldest handles first
        assert disk.read_page(rel, 0) == bytes([i % 251]) * PAGE_SIZE
        peak = max(peak, open_descriptors())
    assert len(disk._files) == bound
    assert peak - baseline <= bound + 4     # + the journal and a directory
    disk.simulate_crash()
    assert open_descriptors() <= baseline
    reopened = MagneticDisk("m0", SimClock(), str(tmp_path / "m0"))
    for i, rel in enumerate(rels):
        assert reopened.read_page(rel, 0) == bytes([i % 251]) * PAGE_SIZE
    reopened.close()
    assert open_descriptors() <= baseline

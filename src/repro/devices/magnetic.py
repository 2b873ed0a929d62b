"""Magnetic disk device manager.

"In the current system, the magnetic disk device manager uses the
underlying UNIX file system to store data" — and therefore inherits the
FFS cylinder-group layout policy, under which "data for a single file
are kept close together" and a small file takes a few blocks beside its
neighbours.  The manager reproduces that policy in its cost model: each
relation's pages are allocated in contiguous *extents* carved from a
device-wide cursor, the first of ``FIRST_EXTENT_PAGES`` and each later
one ``EXTENT_GROWTH`` times the previous up to ``EXTENT_PAGES`` (1, 2,
4, … 64, 64, …).  A relation of a page or two therefore sits next to
the relations created around it, while the pages of a large one are
(mostly) physically sequential in cylinder-sized runs and two large
relations growing at the same time land in alternating regions of the
disk.  That is exactly the layout that makes Inversion's file creation
slow (B-tree and heap writes bounce the head between regions —
Figure 3) while its sequential reads stay fast (Table 3).

Pages are persisted in one real file per relation, so databases survive
process restarts; simulated I/O cost is charged against a
:class:`~repro.sim.disk.DiskModel` at the allocated block addresses.
The allocation map (which extents each relation owns: starting block
and length of each, in page order) is persisted as a checkpoint plus a
journal of the mutations since, so creating a relation costs the host
one appended line however many relations exist.  At most
``MAX_OPEN_FILES`` of the backing files are held open at a time.

Block address 0 up to ``meta_region_blocks`` is reserved for small
metadata blobs — the transaction status file lives there, which is why
every commit seeks to the front of the disk.
"""

from __future__ import annotations

import json
import os
from bisect import bisect_right
from collections import OrderedDict
from dataclasses import dataclass
from itertools import accumulate

from repro.db.page import PAGE_SIZE
from repro.devices.base import RelationTable
from repro.errors import DeviceError, DeviceFullError
from repro.obs.registry import MetricSpec
from repro.sim.clock import SimClock
from repro.sim.disk import DiskGeometry, DiskModel, RZ58

METRICS = (
    MetricSpec("device.allocmap_checkpoints", "counter", "checkpoints",
               "Whole allocation maps written to `_alloc.json` (on "
               "flush/close with changes pending, and when the journal "
               "outgrows the map).",
               "repro.devices.magnetic", ("device",)),
    MetricSpec("device.allocmap_journal_records", "counter", "records",
               "Allocation-map mutations (create / drop / rename / new "
               "extent) appended to `_alloc.log` as one line each.",
               "repro.devices.magnetic", ("device",)),
)

EXTENT_PAGES = 64
"""Pages in the largest allocation extent — the contiguity unit of a
large relation (an FFS-style cylinder-group chunk), and the length of
every extent in a map written before extents carried one."""

FIRST_EXTENT_PAGES = 1
EXTENT_GROWTH = 2
"""A relation's first extent, and how many times the previous one each
later extent is, up to ``EXTENT_PAGES``."""

MAX_OPEN_FILES = 128
"""Backing files held open per device; the least recently used handle
is closed to admit another."""

JOURNAL_MIN_BYTES = 64 * 1024
"""The journal is never checkpointed for its size below this, so a small
map is not rewritten every few records; above it the journal may grow
as large as the map it amends."""


class _RelState:
    __slots__ = ("npages", "extents", "bounds")

    def __init__(self, npages: int = 0, extents: list[int] | None = None,
                 lengths: list[int] = ()) -> None:
        self.npages = npages
        self.extents = extents or []  # starting block address of each extent
        #: page number at which each extent starts, then the page count
        #: all of them hold — the extents' lengths, in the form the
        #: page lookup bisects.
        self.bounds = list(accumulate(lengths, initial=0))

    @property
    def lengths(self) -> list[int]:
        """Pages in each extent."""
        bounds = self.bounds
        return [end - start for start, end in zip(bounds, bounds[1:])]

    def add_extent(self, block: int, length: int) -> None:
        self.extents.append(block)
        self.bounds.append(self.bounds[-1] + length)


@dataclass
class AllocMapStats:
    allocmap_checkpoints: int = 0
    allocmap_journal_records: int = 0


class MagneticDisk(RelationTable):
    """File-backed magnetic disk with an RZ58-calibrated cost model.
    Pages live in the backing files and metadata blobs in files of
    their own; the relation table and run check are the base's."""

    nonvolatile = False
    state_type = _RelState

    def __init__(self, name: str, clock: SimClock, directory: str,
                 geometry: DiskGeometry = RZ58,
                 meta_region_blocks: int = 64) -> None:
        super().__init__(name, clock)
        self.directory = directory
        self.disk = DiskModel(clock=clock, geometry=geometry)
        self.meta_region_blocks = meta_region_blocks
        self.stats = AllocMapStats()
        os.makedirs(directory, exist_ok=True)
        self._files: OrderedDict[str, object] = OrderedDict()  # LRU
        self._next_block = meta_region_blocks
        self._meta_slots: dict[str, int] = {}
        # Journal state: the last sequence number issued, the open
        # journal, its size and the size of the checkpoint it amends.
        self._seq = 0
        self._journal_file = None
        self._journal_bytes = 0
        self._map_bytes = 0
        # What the files do not hold yet: relations grown and meta slots
        # assigned since the last record, and whether the loaded state
        # itself was repaired (then the next record is a checkpoint).
        self._grown: set[str] = set()
        self._new_slots: dict[str, int] = {}
        self._repaired = False
        self._load_allocmap()

    # -- allocation map persistence -------------------------------------
    #
    # ``_alloc.json`` is a checkpoint of the whole map; ``_alloc.log``
    # holds one line per mutation since.  Every record carries a
    # sequence number and the checkpoint names the last one it
    # includes, so replaying a journal the checkpoint already covers (a
    # crash between the checkpoint's rename and the journal's removal)
    # applies nothing twice.  DESIGN.md, "Allocation-map persistence".

    def _allocmap_path(self) -> str:
        return os.path.join(self.directory, "_alloc.json")

    def _journal_path(self) -> str:
        return os.path.join(self.directory, "_alloc.log")

    def _load_allocmap(self) -> None:
        path = self._allocmap_path()
        if os.path.exists(path + ".tmp"):
            # A checkpoint that crashed before its rename.
            os.remove(path + ".tmp")
        have_map = os.path.exists(path)
        if have_map:
            with open(path, "r", encoding="utf-8") as f:
                data = json.load(f)
            self._next_block = data["next_block"]
            self._meta_slots = data.get("meta_slots", {})
            self._seq = data.get("seq", 0)
            for relname, info in data["relations"].items():
                extents = info["extents"]
                self._rels[relname] = _RelState(
                    info["npages"], extents,
                    info.get("lengths") or [EXTENT_PAGES] * len(extents))
            self._map_bytes = os.path.getsize(path)
        if self._replay_journal() or have_map:
            self._reconcile_with_files()
        else:
            self._rebuild_from_files()

    def _replay_journal(self) -> bool:
        """Apply the journal records the checkpoint does not include;
        True if the journal held any complete record at all."""
        path = self._journal_path()
        if not os.path.exists(path):
            return False
        with open(path, "rb") as f:
            raw = f.read()
        self._journal_bytes = len(raw)
        lines = raw.split(b"\n")
        if lines.pop():
            # No newline after the last record: the append was torn.
            # Nothing may be appended behind the fragment.
            self._repaired = True
        for line in lines:
            try:
                rec = json.loads(line)
            except ValueError:
                raise DeviceError(
                    f"corrupt allocation journal on {self.name}") from None
            if rec["seq"] > self._seq:
                self._apply(rec)
        return bool(lines)

    def _apply(self, rec: dict) -> None:
        rels = self._rels
        self._seq = rec["seq"]
        for relname, npages in rec.get("npages", {}).items():
            rels[relname].npages = npages
        self._meta_slots.update(rec.get("slots", {}))
        op, relname = rec["op"], rec["rel"]
        if op == "create":
            rels[relname] = _RelState()
        elif op == "drop":
            rels.pop(relname, None)
        elif op == "rename":
            # The destination takes over the source's whole state: its
            # extents and its page count, whatever the name held before.
            st = rels.pop(relname)
            st.npages = rec["n"]
            rels[rec["dst"]] = st
        elif op == "extent":
            length = rec.get("len", EXTENT_PAGES)
            rels[relname].add_extent(rec["block"], length)
            self._next_block = rec["block"] + length
        else:
            raise DeviceError(
                f"unknown allocation journal record {op!r} on {self.name}")

    def _reconcile_with_files(self) -> None:
        for relname, st in list(self._rels.items()):
            relpath = self._relpath(relname)
            if not os.path.exists(relpath):
                # create_relation makes the backing file before the map
                # entry, so a mapped relation with no file means a
                # drop/rename crashed mid-way: forget the entry.
                del self._rels[relname]
                self._repaired = True
                continue
            # npages reach the map with the next record; after a crash
            # the backing file is the truth about how far the relation
            # grew.
            on_disk = os.path.getsize(relpath) // PAGE_SIZE
            if on_disk > st.npages:
                while st.bounds[-1] < on_disk:
                    self._new_extent(st)
                st.npages = on_disk
                self._repaired = True

    def _rebuild_from_files(self) -> None:
        # No map at all (stale-map crash path): assign fresh sequential
        # extents; only the cost model is affected, never the data.
        for fname in sorted(os.listdir(self.directory)):
            if not fname.endswith(".rel"):
                continue
            relname = fname[:-4]
            size = os.path.getsize(os.path.join(self.directory, fname))
            st = self._rels[relname] = _RelState(size // PAGE_SIZE)
            while st.bounds[-1] < max(st.npages, 1):
                self._new_extent(st)
            self._repaired = True

    def _journal(self, op: str, relname: str, **fields) -> None:
        """Persist one map mutation (already made in memory) as one
        flushed journal line.  The line also carries what moved without
        a record since the last one — page counts of relations that
        grew, meta slots assigned — so a reopen reads exactly the map a
        whole rewrite at this point would have stored."""
        if self._repaired:
            self._save_allocmap()
            return
        self._seq += 1
        rec = {"seq": self._seq, "op": op, "rel": relname, **fields}
        if self._grown:
            rels = self._rels
            rec["npages"] = {r: rels[r].npages for r in self._grown
                             if r in rels}
            self._grown.clear()
        if self._new_slots:
            rec["slots"] = self._new_slots
            self._new_slots = {}
        line = json.dumps(rec, separators=(",", ":")) + "\n"
        f = self._journal_file
        if f is None:
            f = self._journal_file = open(self._journal_path(), "a",
                                          encoding="utf-8")
        f.write(line)
        f.flush()
        self.stats.allocmap_journal_records += 1
        self._journal_bytes += len(line)
        if self._journal_bytes > max(self._map_bytes, JOURNAL_MIN_BYTES):
            self._save_allocmap()

    def _save_allocmap(self) -> None:
        """Checkpoint: write the whole map, then empty the journal."""
        text = json.dumps({
            "seq": self._seq,
            "next_block": self._next_block,
            "meta_slots": self._meta_slots,
            "relations": {
                name: {"npages": st.npages, "extents": st.extents,
                       "lengths": st.lengths}
                for name, st in self._rels.items()
            },
        })
        path = self._allocmap_path()
        with open(path + ".tmp", "w", encoding="utf-8") as f:
            f.write(text)
        os.replace(path + ".tmp", path)
        # A crash here leaves records the checkpoint includes; their
        # sequence numbers say so.
        self._close_journal()
        if self._journal_bytes:
            os.remove(self._journal_path())
        self._journal_bytes = 0
        self._map_bytes = len(text)
        self._grown.clear()
        self._new_slots = {}
        self._repaired = False
        self.stats.allocmap_checkpoints += 1

    # -- relation files ---------------------------------------------------

    def _relpath(self, relname: str) -> str:
        return os.path.join(self.directory, relname + ".rel")

    def _file(self, relname: str):
        files = self._files
        f = files.get(relname)
        if f is not None:
            files.move_to_end(relname)
            return f
        if len(files) >= MAX_OPEN_FILES:
            # close() flushes: what was written through the handle is
            # in the backing file before the handle is gone.
            files.popitem(last=False)[1].close()
        path = self._relpath(relname)
        mode = "r+b" if os.path.exists(path) else "w+b"
        f = files[relname] = open(path, mode)
        return f

    def _block_of(self, st: _RelState, pageno: int) -> int:
        i = bisect_right(st.bounds, pageno) - 1
        return st.extents[i] + pageno - st.bounds[i]

    def _runs(self, st: _RelState, start: int, count: int) -> list:
        """The physically contiguous block runs, as (first block,
        blocks), that hold pages [start, start + count): one per extent
        touched, adjacent extents joined."""
        bounds, extents = st.bounds, st.extents
        end = start + count
        i = bisect_right(bounds, start) - 1
        run_blk = extents[i] + start - bounds[i]
        bound = bounds[i + 1]
        run_len = (end if end < bound else bound) - start
        runs = []
        while bound < end:
            i += 1
            bound = bounds[i + 1]
            length = (end if end < bound else bound) - bounds[i]
            if extents[i] == run_blk + run_len:
                run_len += length
            else:
                runs.append((run_blk, run_len))
                run_blk, run_len = extents[i], length
        runs.append((run_blk, run_len))
        return runs

    def _new_extent(self, st: _RelState) -> tuple[int, int]:
        """Carve the relation's next extent from the device-wide cursor;
        returns (first block, pages)."""
        bounds = st.bounds
        length = min((bounds[-1] - bounds[-2]) * EXTENT_GROWTH, EXTENT_PAGES) \
            if st.extents else FIRST_EXTENT_PAGES
        block = self._next_block
        if block + length > self.disk.geometry.total_blocks:
            raise DeviceFullError(f"device {self.name} is full")
        st.add_extent(block, length)
        self._next_block = block + length
        return block, length

    # -- DeviceManager interface -----------------------------------------

    def create_relation(self, relname: str) -> None:
        super().create_relation(relname)
        self._file(relname)  # create the backing file now
        self._journal("create", relname)

    def _free(self, relname: str, st: _RelState) -> None:
        f = self._files.pop(relname, None)
        if f is not None:
            f.close()
        path = self._relpath(relname)
        if os.path.exists(path):
            os.remove(path)
        self._journal("drop", relname)

    def rename_relation(self, src: str, dst: str) -> None:
        """Atomic swap via ``os.replace`` on the backing files.  After a
        crash either the old or the new contents of ``dst`` are present,
        never a mixture."""
        self._validate_relname(dst)
        st = self._rels.get(src)
        if st is None or not os.path.exists(self._relpath(src)):
            if dst in self._rels or os.path.exists(self._relpath(dst)):
                self._rels.pop(src, None)
                self._journal("drop", src)
                return
            raise DeviceError(f"no relation {src!r} on {self.name}")
        for name in (src, dst):
            f = self._files.pop(name, None)
            if f is not None:
                f.close()
        os.replace(self._relpath(src), self._relpath(dst))
        del self._rels[src]
        self._rels[dst] = st
        # The record carries the page count with the extents: by name,
        # the destination would keep what it held before the swap.
        self._grown -= {src, dst}
        self._journal("rename", src, dst=dst, n=st.npages)

    def extend(self, relname: str) -> int:
        st = self._state(relname)
        if st.npages == st.bounds[-1]:
            block, length = self._new_extent(st)
            self._journal("extent", relname, block=block, len=length)
        pageno = st.npages
        st.npages += 1
        self._grown.add(relname)
        return pageno

    def page_address(self, relname: str, pageno: int) -> int:
        return self._block_of(self._state(relname), pageno)

    def _seek_run(self, relname: str, st: _RelState, start: int, count: int,
                  charge):
        """Charge pages [start, start + count) of a checked run — one
        ``charge(block, nbytes)`` per physically contiguous run (within
        one extent, or across adjacent extents): a single positioning
        plus one contiguous transfer each — and return the backing file
        positioned at ``start``."""
        for run_blk, run_len in self._runs(st, start, count):
            charge(run_blk, run_len * PAGE_SIZE)
        f = self._file(relname)
        f.seek(start * PAGE_SIZE)
        return f

    def read_pages(self, relname: str, start: int, count: int) -> list[bytes]:
        st = self._run(relname, start, count)
        if count == 0:
            return []
        f = self._seek_run(relname, st, start, count, self.disk.read_block)
        raw = f.read(count * PAGE_SIZE)
        if len(raw) < count * PAGE_SIZE:
            # Tail pages allocated but never written: zero-fill.
            raw = raw + bytes(count * PAGE_SIZE - len(raw))
        return [raw[i:i + PAGE_SIZE] for i in range(0, len(raw), PAGE_SIZE)]

    def write_pages(self, relname: str, start: int,
                    datas: list[bytes]) -> None:
        st = self._run(relname, start, len(datas), datas)
        if not datas:
            return
        f = self._seek_run(relname, st, start, len(datas),
                           self.disk.write_block)
        f.write(b"".join(datas))

    # -- durability --------------------------------------------------------

    def flush(self) -> None:
        self.disk.flush()
        for f in self._files.values():
            f.flush()
        if (self._journal_bytes or self._grown or self._new_slots
                or self._repaired):
            self._save_allocmap()

    def _meta_path(self, tag: str) -> str:
        return os.path.join(self.directory, tag + ".meta")

    def _meta_slot(self, tag: str) -> int:
        slot = self._meta_slots.get(tag)
        if slot is None:
            slot = len(self._meta_slots) % self.meta_region_blocks
            self._meta_slots[tag] = self._new_slots[tag] = slot
        return slot

    def sync_write_meta(self, tag: str, data: bytes) -> None:
        # Small metadata blobs live in the reserved region at the front
        # of the disk; writing one seeks the head there and forces the
        # write — this is the per-commit cost of the status file.
        slot = self._meta_slot(tag)
        nbytes = max(512, min(len(data), PAGE_SIZE))
        self.disk.write_block(slot, nbytes)
        self.disk.flush()
        tmp = self._meta_path(tag) + ".tmp"
        with open(tmp, "wb") as f:
            f.write(data)
        os.replace(tmp, self._meta_path(tag))

    def sync_append_meta(self, tag: str, data: bytes) -> None:
        # A true append: one forced block write in the metadata region.
        slot = self._meta_slot(tag)
        self.disk.write_block(slot, max(512, min(len(data), PAGE_SIZE)))
        self.disk.flush()
        with open(self._meta_path(tag), "ab") as f:
            f.write(data)

    def read_meta(self, tag: str) -> bytes | None:
        path = self._meta_path(tag)
        if not os.path.exists(path):
            return None
        slot = self._meta_slots.get(tag, 0)
        size = os.path.getsize(path)
        self.disk.read_block(slot, max(512, min(size, PAGE_SIZE)))
        with open(path, "rb") as f:
            return f.read()

    def meta_tags(self) -> list[str]:
        # Scan the backing directory rather than ``_meta_slots``: the
        # slot map only learns a tag when it is written this session,
        # while a base backup must see every blob on the medium.
        return sorted(fname[:-len(".meta")]
                      for fname in os.listdir(self.directory)
                      if fname.endswith(".meta"))

    def close(self) -> None:
        self.flush()
        for f in self._files.values():
            f.close()
        self._files.clear()
        self._close_journal()

    def simulate_crash(self) -> None:
        """Writes already issued through write_pages are on the medium;
        only OS-level file handles are volatile."""
        for f in self._files.values():
            f.flush()  # the bytes were "on disk" the moment we charged them
            f.close()
        self._files.clear()
        self._close_journal()  # every record was flushed as it was written

    def _close_journal(self) -> None:
        if self._journal_file is not None:
            self._journal_file.close()
            self._journal_file = None

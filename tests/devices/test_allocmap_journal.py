"""The allocation-map journal against the design it replaced.

Until PR 15 ``MagneticDisk`` rewrote the whole map (``_alloc.json``) at
every create / drop / rename / new extent and on every flush.  It now
appends one journal line per mutation and checkpoints rarely.  The old
writer and reader are kept here as the reference implementation: at
every point where the old code would have rewritten the map, a fresh
``MagneticDisk`` opened on the directory must reconstruct exactly what
the old reader would have reconstructed from the old writer's output —
relation names in order, page counts, extents with their lengths, the
allocation cursor and the metadata slots.

Since PR 20 an extent carries its length (1, 2, 4, … ``EXTENT_PAGES``)
and the whole-map reference carries it too.  What the code *before*
that wrote — fixed 64-page extents, no lengths — is kept as
``write_parent_directory`` / ``parent_block_of``: the fixed-extent
arithmetic, which now lives only here.
"""

import json
import os
import random

import pytest

from repro.db.page import PAGE_SIZE
from repro.devices import magnetic
from repro.devices.magnetic import EXTENT_PAGES, MagneticDisk
from repro.sim.clock import SimClock

META_REGION_BLOCKS = 64


# -- the reference: the parent commit's writer and reader -------------------

def parent_dump(disk: MagneticDisk) -> dict:
    """What the old ``_save_allocmap`` would have written now."""
    return json.loads(json.dumps({
        "next_block": disk._next_block,
        "meta_slots": disk._meta_slots,
        "relations": {name: {"npages": st.npages, "extents": st.extents,
                             "lengths": st.lengths}
                      for name, st in disk._rels.items()},
    }))


def grow(extents: list, lengths: list, next_block: int) -> int:
    """The allocation rule, restated: the first extent is one page, each
    later one twice the previous up to EXTENT_PAGES; returns the cursor
    after it."""
    length = min(2 * lengths[-1], EXTENT_PAGES) if lengths else 1
    extents.append(next_block)
    lengths.append(length)
    return next_block + length


def parent_load(directory: str, data: dict | None):
    """What the old ``_load_allocmap`` would have rebuilt from ``data``
    (the parsed ``_alloc.json``; None when it is missing) and the
    relation files of ``directory``."""
    next_block = META_REGION_BLOCKS
    meta_slots: dict = {}
    rels: dict = {}
    if data is not None:
        next_block = data["next_block"]
        meta_slots = data.get("meta_slots", {})
        for relname, info in data["relations"].items():
            npages, extents = info["npages"], list(info["extents"])
            # a map written before extents carried a length
            lengths = list(info.get("lengths",
                                    [EXTENT_PAGES] * len(extents)))
            relpath = os.path.join(directory, relname + ".rel")
            if not os.path.exists(relpath):
                continue
            on_disk = os.path.getsize(relpath) // PAGE_SIZE
            while on_disk > npages:
                if npages == sum(lengths):
                    next_block = grow(extents, lengths, next_block)
                npages += 1
            rels[relname] = (npages, extents, lengths)
    else:
        for fname in sorted(os.listdir(directory)):
            if not fname.endswith(".rel"):
                continue
            size = os.path.getsize(os.path.join(directory, fname))
            npages = size // PAGE_SIZE
            extents, lengths = [], []
            while sum(lengths) < max(npages, 1):
                next_block = grow(extents, lengths, next_block)
            rels[fname[:-4]] = (npages, extents, lengths)
    return list(rels.items()), next_block, meta_slots


def state_of(disk: MagneticDisk):
    return ([(name, (st.npages, list(st.extents), list(st.lengths)))
             for name, st in disk._rels.items()],
            disk._next_block, dict(disk._meta_slots))


def read_bytes(path: str) -> bytes:
    with open(path, "rb") as f:
        return f.read()


def listing(directory: str) -> dict:
    return {name: os.path.getsize(os.path.join(directory, name))
            for name in sorted(os.listdir(directory))}


# -- the driver ------------------------------------------------------------

class Driver:
    """Runs operations against one directory and checks every reopen."""

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self.last_dump: dict | None = None   # the old code's _alloc.json
        self.checks = 0
        self.checkpoints = 0
        self.disk = self._open()

    def _open(self) -> MagneticDisk:
        disk = MagneticDisk("m0", SimClock(), self.directory)
        real = disk._journal

        def journal(*args, **kwargs):
            # Each call stands where the old code called
            # _save_allocmap(): the map in memory now is what it wrote.
            self.last_dump = parent_dump(disk)
            real(*args, **kwargs)
            self.check_reopen()

        def save_allocmap():
            self.checkpoints += 1
            save()

        save = disk._save_allocmap
        disk._journal, disk._save_allocmap = journal, save_allocmap
        return disk

    def check_reopen(self) -> None:
        """A fresh device on the directory, as it is on the medium now,
        rebuilds what the old reader rebuilt from the old writer's last
        output — and writes nothing doing so."""
        before = listing(self.directory)
        fresh = MagneticDisk("fresh", SimClock(), self.directory)
        assert state_of(fresh) == parent_load(self.directory, self.last_dump)
        assert listing(self.directory) == before
        self.checks += 1

    def flush(self) -> None:
        self.disk.flush()
        self.last_dump = parent_dump(self.disk)   # the old flush always wrote
        self.check_reopen()

    def crash(self) -> None:
        self.disk.simulate_crash()
        self.check_reopen()
        self.disk = self._open()

    def reopen_clean(self) -> None:
        self.disk.close()
        self.last_dump = parent_dump(self.disk)
        self.check_reopen()
        self.disk = self._open()

    def crash_before_journal_truncate(self) -> None:
        """The checkpoint's rename happened, the journal was not emptied
        yet: the journal still holds records the checkpoint includes."""
        log = os.path.join(self.directory, "_alloc.log")
        stale = read_bytes(log) if os.path.exists(log) else None
        self.disk.flush()
        self.last_dump = parent_dump(self.disk)
        if stale is not None:
            with open(log, "wb") as f:
                f.write(stale)
        self.crash()

    def crash_tearing_journal_append(self) -> None:
        """Power fails part-way through a journal append."""
        self.disk.simulate_crash()
        with open(os.path.join(self.directory, "_alloc.log"), "ab") as f:
            f.write(b'{"seq":%d,"op":"create","re' % (self.disk._seq + 1))
        self.check_reopen()
        self.disk = self._open()


def run_random_ops(directory: str, seed: int, steps: int) -> Driver:
    rng = random.Random(seed)
    drv = Driver(directory)
    names = iter(f"r{i}" for i in range(10_000))
    tags = iter(f"tag{i}" for i in range(10_000))
    for _ in range(steps):
        disk = drv.disk
        rels = disk.list_relations()
        op = rng.choice(["create", "create", "grow", "grow", "grow", "drop",
                         "rename", "rename_over", "rename_done", "meta",
                         "flush", "crash", "close", "untruncated", "torn"])
        if op == "create" or not rels:
            disk.create_relation(next(names))
        elif op == "grow":
            rel = rng.choice(rels)
            for _ in range(rng.choice([1, 3, EXTENT_PAGES, EXTENT_PAGES + 5])):
                pageno = disk.extend(rel)
                if rng.random() < 0.3:
                    # Writing past the end makes the file longer than
                    # any page count a record has carried yet.
                    disk.write_page(rel, pageno, bytes([seed % 251]) * PAGE_SIZE)
        elif op == "drop":
            disk.drop_relation(rng.choice(rels))
        elif op == "rename":
            disk.rename_relation(rng.choice(rels), next(names))
        elif op == "rename_over" and len(rels) >= 2:
            src, dst = rng.sample(rels, 2)
            disk.rename_relation(src, dst)
        elif op == "rename_done":
            # replaying a rename that completed before a crash
            disk.rename_relation("no-such-source", rng.choice(rels))
        elif op == "meta":
            tag = next(tags) if rng.random() < 0.5 else "tag0"
            if rng.random() < 0.5:
                disk.sync_write_meta(tag, b"x")
            else:
                disk.sync_append_meta(tag, b"y")
        elif op == "flush":
            drv.flush()
        elif op == "crash":
            drv.crash()
        elif op == "close":
            drv.reopen_clean()
        elif op == "untruncated":
            drv.crash_before_journal_truncate()
        elif op == "torn":
            drv.crash_tearing_journal_append()
    drv.crash()
    return drv


@pytest.mark.parametrize("seed", range(12))
def test_reopen_equals_whole_map_rewrite(tmp_path, seed):
    drv = run_random_ops(str(tmp_path / "m0"), seed, steps=60)
    assert drv.checks > 30


@pytest.mark.parametrize("seed", range(6))
def test_reopen_equals_whole_map_rewrite_with_size_checkpoints(
        tmp_path, monkeypatch, seed):
    """The same, with the journal checkpointed as soon as it outgrows
    the map (the floor that spares small maps is lowered to nothing)."""
    plain = run_random_ops(str(tmp_path / "plain"), 100 + seed, steps=60)
    monkeypatch.setattr(magnetic, "JOURNAL_MIN_BYTES", 0)
    drv = run_random_ops(str(tmp_path / "m0"), 100 + seed, steps=60)
    assert drv.checks == plain.checks
    assert drv.checkpoints > plain.checkpoints


# -- the code before PR 20: fixed 64-page extents --------------------------

def parent_block_of(extents: list, pageno: int) -> int:
    """The fixed-extent arithmetic ``MagneticDisk._block_of`` was."""
    return extents[pageno // EXTENT_PAGES] + pageno % EXTENT_PAGES


def page_bytes(rel: str, pageno: int) -> bytes:
    return bytes([(len(rel) * 31 + ord(rel[0]) + pageno) % 251]) * PAGE_SIZE


def write_parent_directory(directory: str, checkpointed: dict,
                           journalled: dict) -> dict:
    """A device directory as that code left it after a crash: a
    checkpoint without lengths, a journal whose ``extent`` records carry
    none, every extent EXTENT_PAGES long.  Returns {relation: (pages,
    extents)}."""
    os.makedirs(directory)
    cursor = META_REGION_BLOCKS
    layout: dict = {}
    records = []
    for rels, in_journal in ((checkpointed, False), (journalled, True)):
        for rel, pages in rels.items():
            if in_journal:
                records.append({"op": "create", "rel": rel})
            extents = []
            for _ in range(0, pages, EXTENT_PAGES):
                if in_journal:
                    records.append({"op": "extent", "rel": rel,
                                    "block": cursor})
                extents.append(cursor)
                cursor += EXTENT_PAGES
            layout[rel] = (pages, extents)
            with open(os.path.join(directory, rel + ".rel"), "wb") as f:
                for pageno in range(pages):
                    f.write(page_bytes(rel, pageno))
    with open(os.path.join(directory, "_alloc.json"), "w") as f:
        json.dump({
            "seq": 7,
            "next_block": META_REGION_BLOCKS + EXTENT_PAGES * sum(
                len(layout[rel][1]) for rel in checkpointed),
            "meta_slots": {"pg_status": 1},
            "relations": {rel: {"npages": layout[rel][0],
                                "extents": layout[rel][1]}
                          for rel in checkpointed},
        }, f)
    with open(os.path.join(directory, "_alloc.log"), "w") as f:
        for seq, rec in enumerate(records, start=8):
            f.write(json.dumps({"seq": seq, **rec},
                               separators=(",", ":")) + "\n")
    return layout


def test_directory_written_by_the_parent_opens_unchanged(tmp_path):
    """Every page at the block it had, relations that have extents keep
    growing by EXTENT_PAGES, and the first checkpoint — in the new
    format — changes neither."""
    directory = str(tmp_path / "m0")
    layout = write_parent_directory(
        directory, {"a": 3, "b": EXTENT_PAGES + 2, "c": 0},
        {"d": 5, "e": 2 * EXTENT_PAGES})

    def addresses(disk) -> dict:
        return {(rel, p): disk.page_address(rel, p)
                for rel in disk.list_relations()
                for p in range(disk.nblocks(rel))}

    disk = MagneticDisk("m0", SimClock(), directory)
    assert disk.list_relations() == list(layout)
    assert disk._meta_slots == {"pg_status": 1}
    assert addresses(disk) == {
        (rel, p): parent_block_of(extents, p)
        for rel, (pages, extents) in layout.items() for p in range(pages)}
    for rel, (pages, _extents) in layout.items():
        for p in range(pages):
            assert disk.read_page(rel, p) == page_bytes(rel, p)
    # "b" fills its second 64-page extent, then takes a third one
    cursor = disk._next_block
    assert cursor == META_REGION_BLOCKS + 6 * EXTENT_PAGES
    while disk.nblocks("b") < 2 * EXTENT_PAGES:
        disk.extend("b")
    assert disk._next_block == cursor
    assert disk.page_address("b", disk.extend("b")) == cursor
    assert disk._next_block == cursor + EXTENT_PAGES
    # a relation that never had an extent starts small, like a new one
    assert disk.page_address("c", disk.extend("c")) == cursor + EXTENT_PAGES
    assert disk._next_block == cursor + EXTENT_PAGES + 1
    disk.create_relation("f")
    before = addresses(disk)
    disk.simulate_crash()
    journalled = MagneticDisk("m0", SimClock(), directory)
    assert addresses(journalled) == before
    journalled.flush()                       # a checkpoint, lengths and all
    with open(os.path.join(directory, "_alloc.json")) as f:
        relations = json.load(f)["relations"]
    assert relations["b"]["lengths"] == [EXTENT_PAGES] * 3
    assert relations["c"]["lengths"] == [1]
    journalled.simulate_crash()
    again = MagneticDisk("m0", SimClock(), directory)
    assert addresses(again) == before
    assert again.list_relations() == list(layout) + ["f"]


def test_stale_checkpoint_tmp_removed_on_load(tmp_path):
    directory = str(tmp_path / "m0")
    disk = MagneticDisk("m0", SimClock(), directory)
    disk.create_relation("r")
    disk.close()
    tmp = os.path.join(directory, "_alloc.json.tmp")
    with open(tmp, "w") as f:
        f.write('{"next_block": 64, "relat')   # crashed mid-checkpoint
    reopened = MagneticDisk("m0", SimClock(), directory)
    assert reopened.list_relations() == ["r"]
    assert not os.path.exists(tmp)


def test_flush_with_nothing_changed_writes_nothing(tmp_path):
    directory = str(tmp_path / "m0")
    disk = MagneticDisk("m0", SimClock(), directory)
    disk.create_relation("r")
    disk.extend("r")
    disk.flush()
    assert disk.stats.allocmap_checkpoints == 1
    before = os.stat(os.path.join(directory, "_alloc.json"))
    disk.flush()
    disk.flush()
    after = os.stat(os.path.join(directory, "_alloc.json"))
    assert disk.stats.allocmap_checkpoints == 1
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino,
                                                 before.st_mtime_ns)
    # growth alone (no record yet) is a change the next flush persists
    disk.extend("r")
    disk.flush()
    assert disk.stats.allocmap_checkpoints == 2
    assert MagneticDisk("f", SimClock(), directory).nblocks("r") == 2
    disk.close()


def alloc_bytes_written(directory: str, seen: dict) -> int:
    """Bytes that reached ``_alloc.json`` / ``_alloc.log`` since the
    last call, observed from outside: a replaced checkpoint is a new
    inode and counts whole, a journal counts by how much it grew."""
    written = 0
    ckpt = os.path.join(directory, "_alloc.json")
    if os.path.exists(ckpt):
        st = os.stat(ckpt)
        if (st.st_ino, st.st_mtime_ns) != seen.get("ckpt"):
            seen["ckpt"] = (st.st_ino, st.st_mtime_ns)
            written += st.st_size
    log = os.path.join(directory, "_alloc.log")
    size = os.path.getsize(log) if os.path.exists(log) else 0
    written += max(0, size - seen.get("log", 0))
    seen["log"] = size
    return written


def test_map_bytes_written_per_create_do_not_grow_with_the_map(tmp_path):
    """Counts, not clocks.  Creating relations 351-400 writes about what
    creating relations 1-50 wrote (the parent rewrote the whole map
    each time: over 5x more), and 400 creates write a few records'
    worth each, not a map's worth."""
    directory = str(tmp_path / "m0")
    disk = MagneticDisk("m0", SimClock(), directory)
    seen: dict = {}
    window = {}
    total = 0
    for i in range(1, 401):
        disk.create_relation(f"inv{i:05d}")
        disk.extend(f"inv{i:05d}")            # first page: a new extent
        wrote = alloc_bytes_written(directory, seen)
        total += wrote
        for lo in (1, 351):
            if lo <= i < lo + 50:
                window[lo] = window.get(lo, 0) + wrote
    assert window[351] < 2 * window[1]
    assert total < 400 * 400
    disk.close()
    assert MagneticDisk("f", SimClock(), directory).list_relations() == \
        [f"inv{i:05d}" for i in range(1, 401)]


def test_journal_checkpointed_once_it_outgrows_map_and_floor(tmp_path):
    """Amortised O(1): past the floor the journal is folded into a
    checkpoint when it is larger than the map, and starts again empty."""
    directory = str(tmp_path / "m0")
    disk = MagneticDisk("m0", SimClock(), directory)
    log = os.path.join(directory, "_alloc.log")
    peak = 0
    for i in range(10_000):
        # the map stays tiny, the journal grows
        op = disk.drop_relation if i % 2 else disk.create_relation
        op("r")
        if disk.stats.allocmap_checkpoints:
            break
        peak = os.path.getsize(log)
    assert magnetic.JOURNAL_MIN_BYTES - 200 < peak < \
        magnetic.JOURNAL_MIN_BYTES + 200
    assert not os.path.exists(log) or os.path.getsize(log) == 0
    disk.simulate_crash()
    assert MagneticDisk("f", SimClock(), directory).list_relations() == \
        disk.list_relations()


def test_journal_and_checkpoint_counters_in_the_registry(db):
    """Mirrored per device: DDL appends records, a flush with changes
    pending takes one checkpoint, an idle flush none."""
    from repro.db.tuples import Column, Schema
    value = db.obs.metrics.value
    records = value("device.allocmap_journal_records", device="magnetic0")
    checkpoints = value("device.allocmap_checkpoints", device="magnetic0")
    tx = db.begin()
    db.create_table(tx, "t", Schema([Column("x", "int4")]), indexes=[["x"]])
    db.commit(tx)
    # two relations, and the index's first page opens an extent
    assert value("device.allocmap_journal_records",
                 device="magnetic0") >= records + 3
    assert value("device.allocmap_checkpoints",
                 device="magnetic0") == checkpoints
    db.switch.flush_all()
    db.switch.flush_all()
    assert value("device.allocmap_checkpoints",
                 device="magnetic0") == checkpoints + 1


def test_corrupt_record_inside_the_journal_is_refused(tmp_path):
    """Only the last line can be torn by a crash; damage before it is
    not something to guess around."""
    from repro.errors import DeviceError
    directory = str(tmp_path / "m0")
    disk = MagneticDisk("m0", SimClock(), directory)
    for rel in ("a", "b", "c"):
        disk.create_relation(rel)
    disk.simulate_crash()
    log = os.path.join(directory, "_alloc.log")
    lines = read_bytes(log).split(b"\n")
    lines[1] = lines[1][:10]
    with open(log, "wb") as f:
        f.write(b"\n".join(lines))
    with pytest.raises(DeviceError, match="corrupt allocation journal"):
        MagneticDisk("m0", SimClock(), directory)

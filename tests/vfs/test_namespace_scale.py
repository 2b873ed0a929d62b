"""A create costs the same at file 1 500 as at file 1 — in simulated CPU
and simulated elapsed time — and takes a handful of blocks.  The
tier-1 gate reads counts and simulated seconds only; the 10 000-file
gate under ``-m torture`` also reads the host's clock."""

import time

import pytest

from repro.core.filesystem import InversionFS
from repro.core.library import InversionClient
from repro.db.database import Database
from repro.vfs import VFS

FILES = 1500


def first_and_last_decile(series: list) -> tuple[float, float]:
    decile = len(series) // 10
    return sum(series[:decile]), sum(series[-decile:])


def blocks_used(db) -> int:
    dev = db.switch.get(db.switch.default_name)
    return dev._next_block - dev.meta_region_blocks


def test_create_cost_is_flat_in_the_number_of_files(tmp_path):
    """Before the syscache every create scanned ``pg_class`` to the
    match and ``pg_index`` to the end: simulated CPU per create grew
    14.8x from the first decile to the last and simulated time 2.34x.
    Before extents grew from one page, every relation took a 64-page
    extent and the default device was full at file 1 311."""
    db = Database.create(str(tmp_path / "db"))
    vfs = VFS(InversionClient(InversionFS.mkfs(db)))
    before = blocks_used(db)
    cpu, sim = [], []
    for i in range(FILES):
        cpu0, sim0 = db.cpu.busy_seconds, db.clock.now()
        vfs.write_file(f"/f{i}", b"x" * 512)
        cpu.append(db.cpu.busy_seconds - cpu0)
        sim.append(db.clock.now() - sim0)
    first, last = first_and_last_decile(cpu)
    assert last <= 1.3 * first
    first, last = first_and_last_decile(sim)
    assert last <= 1.3 * first
    # a heap page, an index meta page and a root with one page to spare,
    # plus the file's share of the catalogs, ``naming`` and ``fileatt``
    assert blocks_used(db) - before <= 6 * FILES
    # One build, at the first lookup; afterwards a create is a handful
    # of probes and no scan, however many relations there are.
    catalog = db.catalog
    assert catalog.rebuilds == 1
    assert catalog.probes <= 6 * FILES
    db.close()


@pytest.mark.torture
def test_ten_thousand_files(tmp_path):
    """ROADMAP item 4's gate: 10 000 creates, a stat of each and a paged
    readdir; host time per file and simulated time per create flat
    within 1.5x from the first decile to the last, the device under a
    third full."""
    files = 10_000
    db = Database.create(str(tmp_path / "db"))
    vfs = VFS(InversionClient(InversionFS.mkfs(db)))
    host, sim = [], []
    for i in range(files):
        host0, sim0 = time.perf_counter(), db.clock.now()
        vfs.write_file(f"/f{i:05d}", b"x" * 512)
        host.append(time.perf_counter() - host0)
        sim.append(db.clock.now() - sim0)
    first, last = first_and_last_decile(host)
    assert last <= 1.5 * first, "host time per create"
    first, last = first_and_last_decile(sim)
    assert last <= 1.5 * first, "simulated time per create"
    host = []
    for i in range(files):
        host0 = time.perf_counter()
        assert vfs.stat(f"/f{i:05d}").size == 512
        host.append(time.perf_counter() - host0)
    first, last = first_and_last_decile(host)
    assert last <= 1.5 * first, "host time per stat"
    assert list(vfs.iterdir("/", page_size=500)) == \
        [f"f{i:05d}" for i in range(files)]
    dev = db.switch.get(db.switch.default_name)
    assert 3 * blocks_used(db) < dev.disk.geometry.total_blocks
    db.close()

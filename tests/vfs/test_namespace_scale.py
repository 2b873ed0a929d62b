"""A create costs the same at file 600 as at file 1 — in simulated CPU
and simulated elapsed time.  Counts and simulated seconds only: nothing
here reads a wall clock."""

from repro.core.filesystem import InversionFS
from repro.core.library import InversionClient
from repro.db.database import Database
from repro.vfs import VFS

FILES = 600
DECILE = FILES // 10


def test_create_cost_is_flat_in_the_number_of_files(tmp_path):
    """Before the syscache every create scanned ``pg_class`` to the
    match and ``pg_index`` to the end: simulated CPU per create grew
    14.8x from the first decile to the last and simulated time 2.34x.
    What growth is left in simulated time is seek distance as 64-page
    extents fill the device (ROADMAP item 4, the extent bullet)."""
    db = Database.create(str(tmp_path / "db"))
    vfs = VFS(InversionClient(InversionFS.mkfs(db)))
    cpu, sim = [], []
    for i in range(FILES):
        cpu0, sim0 = db.cpu.busy_seconds, db.clock.now()
        vfs.write_file(f"/f{i}", b"x" * 512)
        cpu.append(db.cpu.busy_seconds - cpu0)
        sim.append(db.clock.now() - sim0)
    assert sum(cpu[-DECILE:]) <= 1.5 * sum(cpu[:DECILE])
    assert sum(sim[-DECILE:]) <= 1.5 * sum(sim[:DECILE])
    # One build, at the first lookup; afterwards a create is a handful
    # of probes and no scan, however many relations there are.
    catalog = db.catalog
    assert catalog.rebuilds == 1
    assert catalog.probes <= 6 * FILES
    db.close()

"""``namespace_churn`` — metadata operations through the VFS, one
client, no network.

Why: Inversion keeps a table and an index per file, so creating a file
is DDL.  ``db.catalog``, the ``devices.magnetic`` allocation map,
``core.naming`` and ``db.transactions`` do the work and the data path
does little.  The workload is host-bound and super-linear in the file
count today (ROADMAP item 2), which ``host_growth_ratio`` — host time
of the second half of the creates over the first half — exposes.

Stack: ``VFS`` over a local ``InversionClient``.  Sequence: mkdir the
directories, create the files (512 B each), stat them all, stat a tenth
as many misses, page through every directory, then rename, reflink and
unlink a tenth of the files each, and read every file the model still
holds, in an order the seed shuffles.

The read-back is of everything, not of a sample, for the median's sake:
stats cost 0.29 ms, unlinks 36 ms, renames 47 or 50 ms and the n-th
create always the same, so with few reads the median op sat on one of
those steps and jumped to the next with the seed (36 or 47 ms), or —
with the stats doubled — read 0.292 ms for every seed.  Reads cost what
the drive's position makes them cost, 50 to 60 ms, a different value
each; with enough of them the median is one of them.
"""

from __future__ import annotations

import os

from .common import (BenchError, ModelFS, Recorder, Stack,
                     reopen_databases, rng_for, sha_payload)

from repro.core.filesystem import InversionFS
from repro.core.library import InversionClient
from repro.db.database import Database
from repro.devices.magnetic import EXTENT_PAGES
from repro.errors import FileNotFoundError_
from repro.vfs.api import VFS

NAME = "namespace_churn"
WHY = ("create/stat/readdir/rename/reflink/unlink of small files via the "
       "VFS: catalog, allocation map, naming and transactions do the "
       "work; data path little, no network")

DIRS = 8
FILES = 160
#: files that already exist when the window opens (set-up): the
#: namespace a client churns is never empty.
FIXTURE_FILES = 40
FILE_BYTES = 512
READDIR_PAGE = 16


def build(workdir: str, seed: int, smoke: bool, pace) -> Stack:
    path = os.path.join(workdir, "db")
    db = Database.create(path)
    fs = InversionFS.mkfs(db)
    client = InversionClient(fs)
    vfs = VFS(client, obs=db.obs)
    nfiles = 24 if smoke else FILES
    # Every file takes two relations, each relation a whole extent: say
    # so before the device does.
    root = db.switch.get(db.switch.default_name)
    room = root.disk.geometry.total_blocks // EXTENT_PAGES
    if 2 * (nfiles + nfiles // 10 + FIXTURE_FILES) + 64 > room:
        raise BenchError(
            f"namespace_churn needs {2 * nfiles} relation extents but the "
            f"default device holds {room}: lower FILES")
    model = ModelFS()
    vfs.mkdir("/base")
    model.apply(("mkdir", "/base"))
    for i in range(4 if smoke else FIXTURE_FILES):
        data = sha_payload(seed, f"ns-base:{i}", FILE_BYTES)
        vfs.write_file(f"/base/b{i:02d}", data)
        model.apply(("write", f"/base/b{i:02d}", data))
        pace.tick()
    return Stack(dbs=[db], close=db.close, model=model,
                 fs_groups=[[fs]], reopen=reopen_databases([[path]]),
                 parts={"vfs": vfs, "seed": seed, "nfiles": nfiles,
                        "ndirs": 2 if smoke else DIRS})


def run(stack: Stack, rec: Recorder) -> None:
    p = stack.parts
    vfs, seed, nfiles, ndirs = p["vfs"], p["seed"], p["nfiles"], p["ndirs"]
    clock = stack.dbs[0].clock
    model = stack.model
    rng = rng_for(seed, "namespace")
    tenth = max(1, nfiles // 10)

    def done(op: tuple) -> None:
        model.apply(op)

    for d in range(ndirs):
        rec.op("create", clock, vfs.mkdir, f"/d{d}")
        done(("mkdir", f"/d{d}"))
    names = [f"/d{i % ndirs}/f{i:04d}" for i in range(nfiles)]
    rec.mark(0)
    for i, path in enumerate(names):
        data = sha_payload(seed, f"ns:{path}", FILE_BYTES)
        rec.op("create", clock, vfs.write_file, path, data)
        rec.user_bytes_written += len(data)
        done(("write", path, data))
        rec.mark(i + 1)

    for path in names:
        att = rec.op("stat", clock, vfs.stat, path)
        rec.check(att is not None and att.size == FILE_BYTES,
                  f"stat {path}: wrong size")
    for i in range(tenth):
        miss = f"/d{i % ndirs}/absent{i}"
        found = rec.op("stat", clock, vfs.exists, miss)
        rec.check(found is False, f"stat {miss}: found a file never made")

    for d in range(ndirs):
        listed, cookie = [], None
        while True:
            page = rec.op("readdir", clock, vfs.readdir_page, f"/d{d}",
                          cookie, READDIR_PAGE)
            if page is None:
                break
            listed += page[0]
            cookie = page[1]
            if cookie is None:
                break
        want = sorted(os.path.basename(c) for c in model.children(f"/d{d}"))
        rec.check(listed == want, f"readdir /d{d}: wrong listing")

    picks = rng.sample(range(nfiles), 3 * tenth)
    for i in picks[:tenth]:
        new = f"/d{(i + 1) % ndirs}/r{i:04d}"
        rec.op("rename", clock, vfs.rename, names[i], new)
        done(("rename", names[i], new))
    for i in picks[tenth:2 * tenth]:
        new = f"/d{i % ndirs}/l{i:04d}"
        rec.op("reflink", clock, vfs.reflink, names[i], new)
        done(("reflink", names[i], new))
    for i in picks[2 * tenth:]:
        rec.op("unlink", clock, vfs.unlink, names[i])
        done(("unlink", names[i]))
    survivors = sorted(name for name, data in model.entries.items()
                       if data is not None and name.startswith("/d"))
    rng.shuffle(survivors)
    for path in survivors:
        data = rec.op("read", clock, vfs.read_file, path)
        rec.check(data == model.entries[path], f"read {path}: wrong bytes")
    # an unlinked name must be gone
    gone = names[picks[2 * tenth]]
    try:
        vfs.stat(gone)
        rec.fail(f"{gone} still stats after unlink")
    except FileNotFoundError_:
        pass


def finish(stack: Stack, rec: Recorder) -> None:
    """Nothing to derive: ops were recorded as they ran and the model
    followed every one of them."""

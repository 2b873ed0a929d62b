"""Large-namespace and structural-op workload scenarios.

Two shapes live here, sharing the same four scenario families:

- **Explorer workloads** (`*_workload` factories, collected in
  :data:`VFS_WORKLOADS`): data-only scripts in the
  :mod:`repro.testkit.workload` format, so the crash-schedule explorer
  and the deterministic multi-session scheduler can run them
  unchanged.  They exercise the new model op kinds — ``reflink``,
  ``concat``, ``slice``, ``truncate`` — against the differential
  oracle at every crash point.

- **VFS drivers** (plain functions taking a :class:`~repro.vfs.api.VFS`
  session): the same scenarios expressed as application code — atomic
  multi-file groups via ``vfs.transaction()``, directory scans via the
  paged ``iterdir`` — sized by their callers.

The families, after the paper's workloads plus WTF's (PAPERS.md):

``flat_dir``     one directory with very many children (the
                 million-file case, scaled by a parameter), built in
                 per-transaction batches, listed in bounded pages.
``build_tree``   an Andrew-benchmark-style source tree compiled into
                 ``/build.tmp`` and atomically published by a single
                 directory rename — the multi-file commit group.
``hotspot``      concurrent sessions contending on one hot file while
                 churning private subtrees.
``reflink_churn`` by-reference copies, slices and concats interleaved
                 with overwrites, truncates and vacuum passes — the
                 workload the shared-extents invariant polices.
"""

from __future__ import annotations

from repro.core.constants import CHUNK_SIZE
from repro.testkit.workload import (CRASH_GROUP_WINDOW, TxStep, VacuumStep,
                                    Workload, payload)


# -- explorer workloads ---------------------------------------------------

def flat_dir_workload(seed: int = 0, nfiles: int = 24,
                      per_tx: int = 6) -> Workload:
    """One directory, many children, created in per-transaction batches
    (each batch is one atomic group) with one aborted batch in the
    middle — after any crash the directory holds an exact multiple of
    ``per_tx`` files, never a partial batch."""
    p = lambda tag, size: payload(seed, tag, size)  # noqa: E731
    steps = [TxStep((("mkdir", "/flat"),))]
    batch: list[tuple] = []
    for i in range(nfiles):
        batch.append(("write", f"/flat/f{i:05d}", p(f"f{i}", 120 + i % 7)))
        if len(batch) == per_tx:
            steps.append(TxStep(tuple(batch)))
            batch = []
    if batch:
        steps.append(TxStep(tuple(batch)))
    # A batch that aborts: none of its files may ever be visible.
    steps.insert(3, TxStep(tuple(
        ("write", f"/flat/never{i}", p(f"n{i}", 90)) for i in range(per_tx)),
        abort=True))
    return Workload("vfs_flat_dir", steps)


def build_tree_workload(seed: int = 0) -> Workload:
    """An Andrew-style build: sources written under ``/src``, objects
    "compiled" into ``/build.tmp`` in per-module groups, then the whole
    tree published by one atomic rename to ``/build``.  The invariant a
    crash must never break: ``/build`` either does not exist or holds
    the complete tree — no half-published build."""
    p = lambda tag, size: payload(seed, tag, size)  # noqa: E731
    return Workload("vfs_build_tree", [
        TxStep((("mkdir", "/src"),
                ("mkdir", "/src/lib"),
                ("write", "/src/lib/a.c", p("a.c", 2200)),
                ("write", "/src/lib/b.c", p("b.c", 900)),
                ("write", "/src/main.c", p("main.c", 3100)))),
        TxStep((("mkdir", "/build.tmp"),
                ("mkdir", "/build.tmp/lib"),
                ("write", "/build.tmp/lib/a.o", p("a.o", 4100)),
                ("write", "/build.tmp/lib/b.o", p("b.o", 1700)))),
        TxStep((("write", "/build.tmp/main.o", p("main.o", 5200)),
                ("write", "/build.tmp/prog", p("prog", 9000)))),
        TxStep((("write", "/build.tmp/prog.dbg", p("dbg", 12000)),),
               abort=True),
        TxStep((("rename", "/build.tmp", "/build"),)),       # the publish
        TxStep((("write", "/src/main.c", p("main2", 2800)),)),
    ])


def hotspot_workload(seed: int = 0) -> Workload:
    """Three sessions through the deterministic scheduler: all contend
    on ``/hot`` (serialized by its exclusive lock), each churns a
    private subtree, one truncates the hot file mid-stream."""
    p = lambda tag, size: payload(seed, tag, size)  # noqa: E731
    return Workload("vfs_hotspot", [], sessions=(
        (TxStep((("mkdir", "/h0"),
                 ("write", "/h0/a", p("0a", 2600)))),
         TxStep((("write", "/hot", p("0h", 1900)),)),
         TxStep((("reflink", "/hot", "/h0/snap"),)),
         TxStep((("write", "/h0/b", p("0b", 7000)),))),
        (TxStep((("write", "/hot", p("1h", 2400)),)),
         TxStep((("truncate", "/hot", 700),)),
         TxStep((("mkdir", "/h1"),
                 ("write", "/h1/a", p("1a", 5000)),), abort=True),
         TxStep((("mkdir", "/h1"),
                 ("write", "/h1/a", p("1b", 1100)),))),
        (TxStep((("mkdir", "/h2"),
                 ("write", "/h2/a", p("2a", 12000)))),
         TxStep((("write", "/hot", p("2h", 800)),)),
         TxStep((("write", "/h2/a", p("2b", 300)),))),
    ), setup_ops=(("write", "/hot", p("seedh", 1200)),),
        group_commit_window=CRASH_GROUP_WINDOW, sched_seed=seed)


def reflink_churn_workload(seed: int = 0) -> Workload:
    """Structural ops under churn: a chunk-aligned base file reflinked,
    sliced and concatenated, sources overwritten (copy-on-write must
    isolate the clones), clones truncated, and vacuum passes — one
    history-discarding — that the ``vfsref`` pin guard must survive.
    The differential oracle holds physical copies; any divergence means
    a reference resolved to the wrong version (or nothing)."""
    p = lambda tag, size: payload(seed, tag, size)  # noqa: E731
    two = CHUNK_SIZE * 2
    return Workload("vfs_reflink_churn", [
        TxStep((("write", "/base", p("base", two + 511)),
                ("write", "/al", p("al", two)))),            # aligned
        TxStep((("reflink", "/base", "/copy1"),
                ("mkdir", "/snaps"))),
        TxStep((("slice", "/base", 0, CHUNK_SIZE + 200, "/snaps/head"),
                ("concat", ("/al", "/base"), "/joined"))),
        TxStep((("write", "/base", p("base2", 1500)),)),     # CoW divergence
        TxStep((("reflink", "/joined", "/copy2"),), abort=True),
        VacuumStep(path="/base"),                            # history kept
        TxStep((("truncate", "/copy1", CHUNK_SIZE + 77),
                ("reflink", "/al", "/snaps/al"))),
        VacuumStep(path="/base", keep_history=False),        # pin guard
        TxStep((("write", "/al", p("al2", 640)),
                ("unlink", "/copy1"))),
        VacuumStep(path="/al", keep_history=False),
    ])


#: The VFS scenario workloads, explored separately from ALL_WORKLOADS
#: (tests opt in; single-server tooling listing ALL_WORKLOADS is
#: unchanged).
VFS_WORKLOADS = {
    "vfs_flat_dir": flat_dir_workload,
    "vfs_build_tree": build_tree_workload,
    "vfs_hotspot": hotspot_workload,
    "vfs_reflink_churn": reflink_churn_workload,
}


# -- VFS drivers (application-shaped; the benchmark runs these) -----------

def populate_flat_dir(vfs, nfiles: int, dirpath: str = "/flat",
                      per_tx: int = 64, size: int = 64,
                      seed: int = 0) -> None:
    """Create ``nfiles`` children of one directory in atomic batches of
    ``per_tx`` — the large-namespace fixture."""
    vfs.mkdir(dirpath)
    for lo in range(0, nfiles, per_tx):
        with vfs.transaction():
            for i in range(lo, min(lo + per_tx, nfiles)):
                vfs.write_file(f"{dirpath}/f{i:07d}",
                               payload(seed, f"flat{i}", size))


def scan_flat_dir(vfs, dirpath: str = "/flat",
                  page_size: int = 512) -> int:
    """List a huge directory in bounded pages via the paged readdir
    cookie protocol; returns the number of names seen."""
    count = 0
    for _name in vfs.iterdir(dirpath, page_size=page_size):
        count += 1
    return count


def build_and_publish(vfs, modules: int = 4, files_per: int = 4,
                      seed: int = 0) -> None:
    """The Andrew-style scenario as application code: write sources,
    compile into ``/build.tmp`` one atomic group per module, publish
    with a single rename inside the final group."""
    with vfs.transaction():
        vfs.mkdir("/src")
        for m in range(modules):
            vfs.mkdir(f"/src/m{m}")
            for f in range(files_per):
                vfs.write_file(f"/src/m{m}/s{f}.c",
                               payload(seed, f"s{m}.{f}", 1400))
    vfs.mkdir("/build.tmp")
    for m in range(modules):
        with vfs.transaction():
            vfs.mkdir(f"/build.tmp/m{m}")
            for f in range(files_per):
                vfs.write_file(f"/build.tmp/m{m}/o{f}.o",
                               payload(seed, f"o{m}.{f}", 2100))
    with vfs.transaction():
        vfs.write_file("/build.tmp/prog", payload(seed, "prog", 6200))
        vfs.rename("/build.tmp", "/build")


def reflink_churn(vfs, rounds: int = 4, chunks: int = 4,
                  seed: int = 0) -> None:
    """Structural-op churn: keep reflinking/slicing/concatenating a
    chunk-aligned base while overwriting it, unlinking stale clones."""
    base_size = CHUNK_SIZE * chunks
    vfs.write_file("/base", payload(seed, "base", base_size))
    vfs.mkdir("/clones")
    for r in range(rounds):
        with vfs.transaction():
            vfs.reflink("/base", f"/clones/r{r}")
            vfs.slice("/base", 0, CHUNK_SIZE, f"/clones/head{r}")
        vfs.concat([f"/clones/r{r}", f"/clones/head{r}"],
                   f"/clones/joined{r}")
        vfs.write_file("/base", payload(seed, f"base{r}", CHUNK_SIZE))
        if r:
            vfs.unlink(f"/clones/joined{r - 1}")

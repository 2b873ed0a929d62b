"""The transactional-VFS experiment (BENCH_vfsio.json).

Two workloads over the :class:`repro.vfs.api.VFS` surface:

* **structural** — an 8 MB chunk-aligned file copied two ways on the
  single-process configuration: physically (read every byte, write
  every byte) and by reference (``vfs.reflink`` — chunk-pointer rows,
  no payload movement), plus a by-reference ``concat`` and ``slice`` of
  the same source.  The claim measured: the by-reference path is at
  least **10×** faster in simulated time and moves no data chunks
  (``chunks_materialized == 0``, device page writes a sliver of the
  file size).

* **namespace** — a 512-file flat directory over the client/server
  protocol, listed whole (one unbounded reply) and in bounded pages
  via the readdir cookie protocol.  Paged listing costs more messages
  but every reply is bounded by the page size — the property that
  makes a million-file directory listable at all.

The numbers are deterministic — simulated clock, message and page
counters, never wall time — so :func:`verdict` asserts on them exactly.

Regenerate with ``python -m repro.bench run vfsio``.
"""

from __future__ import annotations

from repro.bench.harness import build_inversion_cs, build_inversion_sp
from repro.core.constants import CHUNK_SIZE
from repro.testkit.workload import payload
from repro.vfs.api import VFS
from repro.vfs.scenarios import populate_flat_dir

#: the structural-op source: 8 MB, chunk-aligned.
STRUCT_CHUNKS = 1024
STRUCT_SIZE = STRUCT_CHUNKS * CHUNK_SIZE

#: the flat directory, full versus paged listing.
NAMESPACE_FILES = 512
NAMESPACE_PAGE = 128

#: by-reference copies must beat the physical path by at least this
#: factor in simulated time.
MIN_SPEEDUP = 10.0

#: buffer pool sized to the structural working set (source + physical
#: copy), so the comparison isolates what each path *writes*: with both
#: paths reading warm, the physical copy still pays ~1 040 data-page
#: writes while the reflink pays only its pointer-row metadata.
STRUCT_BUFFERS = 3072


def _pages_written(db) -> float:
    return db.obs.metrics.get("device.pages_written").total()


def run_structural() -> dict:
    """Physical copy versus reflink/concat/slice of the same source."""
    built = build_inversion_sp(buffer_pages=STRUCT_BUFFERS)
    try:
        client = built.adapter.client
        db = built.adapter.db
        clock = built.adapter.clock
        vfs = VFS(client, obs=db.obs)
        data = payload(0, "struct", STRUCT_SIZE)
        vfs.write_file("/data", data)

        # Physical: read every byte, write every byte, commit.
        t0, p0 = clock.now(), _pages_written(db)
        with vfs.transaction():
            vfs.write_file("/copy.phys", vfs.read_file("/data"))
        phys = {"elapsed_s": clock.now() - t0,
                "pages_written": _pages_written(db) - p0}

        # By reference: chunk-pointer rows only.
        t0, p0 = clock.now(), _pages_written(db)
        with vfs.transaction():
            referenced, materialized = vfs.reflink("/data", "/copy.ref")
        ref = {"elapsed_s": clock.now() - t0,
               "pages_written": _pages_written(db) - p0,
               "chunks_referenced": referenced,
               "chunks_materialized": materialized}

        if vfs.read_file("/copy.ref") != data:
            raise AssertionError("reflink copy reads back wrong bytes")

        t0, p0 = clock.now(), _pages_written(db)
        cat_ref, cat_mat = vfs.concat(["/data", "/copy.ref"], "/cat")
        concat = {"elapsed_s": clock.now() - t0,
                  "pages_written": _pages_written(db) - p0,
                  "chunks_referenced": cat_ref,
                  "chunks_materialized": cat_mat}

        half = (STRUCT_CHUNKS // 2) * CHUNK_SIZE
        t0, p0 = clock.now(), _pages_written(db)
        sl_ref, sl_mat = vfs.slice("/data", 0, half + 200, "/slice")
        sliced = {"elapsed_s": clock.now() - t0,
                  "pages_written": _pages_written(db) - p0,
                  "chunks_referenced": sl_ref,
                  "chunks_materialized": sl_mat}

        return {
            "file_size": STRUCT_SIZE,
            "chunks": STRUCT_CHUNKS,
            "physical_copy": phys,
            "reflink": ref,
            "concat": concat,
            "slice": sliced,
            "speedup": phys["elapsed_s"] / ref["elapsed_s"],
        }
    finally:
        built.close()


def run_namespace() -> dict:
    """Full versus paged listing of a 512-file flat directory over
    the client/server protocol."""
    built = build_inversion_cs()
    try:
        client = built.adapter.client
        clock = built.adapter.clock
        vfs = VFS(client)
        populate_flat_dir(vfs, NAMESPACE_FILES, per_tx=128, size=0)

        m0, t0 = client.network.stats.messages, clock.now()
        full = vfs.readdir("/flat")
        full_stats = {"elapsed_s": clock.now() - t0,
                      "net_messages": client.network.stats.messages - m0,
                      "names": len(full),
                      "max_reply_names": len(full)}

        m0, t0 = client.network.stats.messages, clock.now()
        paged, pages, biggest = [], 0, 0
        cookie = None
        while True:
            names, cookie = vfs.readdir_page("/flat", cookie,
                                             NAMESPACE_PAGE)
            paged.extend(names)
            pages += 1
            biggest = max(biggest, len(names))
            if cookie is None:
                break
        paged_stats = {"elapsed_s": clock.now() - t0,
                       "net_messages": client.network.stats.messages - m0,
                       "names": len(paged),
                       "pages": pages,
                       "page_size": NAMESPACE_PAGE,
                       "max_reply_names": biggest}

        if paged != full:
            raise AssertionError("paged listing diverges from full listing")
        return {
            "files": NAMESPACE_FILES,
            "full": full_stats,
            "paged": paged_stats,
        }
    finally:
        built.close()


def run_vfsio() -> dict:
    """The full experiment: by-reference structural ops plus the
    large-namespace paged listing."""
    return {
        "experiment": ("transactional VFS: by-reference copy/concat/slice "
                       "versus physical copy, and paged large-directory "
                       "listing"),
        "structural": run_structural(),
        "namespace": run_namespace(),
    }



def verdict(doc: dict) -> list[str]:
    """The claims a ``BENCH_vfsio`` document must support: by-reference
    copies move pointer rows, not data, and a paged listing is the full
    listing in bounded replies."""
    s, n = doc["structural"], doc["namespace"]
    claims = {
        "a reflink references every chunk and materializes none":
            s["reflink"]["chunks_referenced"] == STRUCT_CHUNKS
            and s["reflink"]["chunks_materialized"] == 0,
        "it writes a sliver of the physical copy's pages":
            s["reflink"]["pages_written"]
            <= s["physical_copy"]["pages_written"] / 20,
        f"it beats the physical copy at least {MIN_SPEEDUP:g}x":
            s["speedup"] >= MIN_SPEEDUP,
        "concat stays by reference":
            s["concat"]["chunks_referenced"] == 2 * STRUCT_CHUNKS
            and s["concat"]["chunks_materialized"] == 0,
        "slice materializes only its partial tail chunk":
            s["slice"]["chunks_referenced"] == STRUCT_CHUNKS // 2
            and s["slice"]["chunks_materialized"] == 1,
        "full and paged listings both return every name":
            n["full"]["names"] == NAMESPACE_FILES
            and n["paged"]["names"] == NAMESPACE_FILES,
        "every page of the listing stays within the page size":
            n["paged"]["max_reply_names"] <= NAMESPACE_PAGE
            and n["paged"]["pages"] == -(-NAMESPACE_FILES // NAMESPACE_PAGE),
    }
    return [claim for claim, holds in claims.items() if not holds]

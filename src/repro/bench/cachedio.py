"""The client-cache experiment (BENCH_cachedio.json).

Two workloads over the client/server protocol with the lease-coherent
client cache (:mod:`repro.cache`) enabled:

* **hot** — a file is written, statted and read once (warming the
  path, fileatt and chunk tiers), then re-statted and re-read many
  times.  Every warm pass is served entirely from the cache: the
  SEEK_SET rewind is absorbed client-side and the reads and stats ship
  **zero** network messages.
* **deep_tree** — a path-heavy workload: repeated ``p_stat`` passes
  over leaf files at the bottom of a deep directory chain, cached
  versus uncached.  Uncached, every pass pays the full per-message
  Ethernet overhead for every leaf; cached, only the first pass does,
  so N passes cost about one pass and the speedup approaches N.

The numbers are deterministic — simulated clock and message counters,
never wall time — so :func:`verdict` asserts on them exactly.

Regenerate with ``python -m repro.bench run cachedio``.
"""

from __future__ import annotations

from repro.bench.harness import build_inversion_cs
from repro.core.constants import CHUNK_SIZE

#: the hot file: 8 chunks, read back whole.
HOT_CHUNKS = 8
HOT_FILE_SIZE = HOT_CHUNKS * CHUNK_SIZE
HOT_FILE = "/hot/data"

#: warm re-read/re-stat passes measured after warm-up.
HOT_PASSES = 16

#: the deep tree: leaves this many directories down, statted this many
#: passes over.
TREE_DEPTH = 8
TREE_LEAVES = 8
TREE_PASSES = 5


def _payload(nbytes: int) -> bytes:
    unit = b"0123456789abcdef"
    return (unit * (nbytes // len(unit) + 1))[:nbytes]


def run_hot() -> dict:
    """Write once, warm once, then re-stat + rewind + re-read
    ``HOT_PASSES`` times — the warm passes must ship zero messages."""
    built = build_inversion_cs(cache_paths=64, cache_chunks=HOT_CHUNKS)
    try:
        client = built.adapter.client
        clock = built.adapter.clock
        data = _payload(HOT_FILE_SIZE)
        client.p_mkdir("/hot")
        fd = client.p_creat(HOT_FILE)
        client.p_write(fd, data)
        client.p_close(fd)
        # Warm-up: the stat fills the path and fileatt tiers, the full
        # read fills every chunk.
        client.p_stat(HOT_FILE)
        fd = client.p_open(HOT_FILE, 0)
        if client.p_read(fd, HOT_FILE_SIZE) != data:
            raise AssertionError("wrong bytes in warm-up read")
        warm_messages = client.network.stats.messages
        t0 = clock.now()
        for _ in range(HOT_PASSES):
            client.p_stat(HOT_FILE)
            client.p_lseek(fd, 0, 0)
            if client.p_read(fd, HOT_FILE_SIZE) != data:
                raise AssertionError("wrong bytes in hot read")
        hot_messages = client.network.stats.messages - warm_messages
        hot_elapsed = clock.now() - t0
        client.p_close(fd)
        stats = client._cache.stats
        return {
            "file_size": HOT_FILE_SIZE,
            "passes": HOT_PASSES,
            "warmup_messages": warm_messages,
            "hot_messages": hot_messages,
            "hot_elapsed_s": hot_elapsed,
            "cache_hits": dict(sorted(stats.hits.items())),
            "cache_misses": dict(sorted(stats.misses.items())),
        }
    finally:
        built.close()


def _tree_paths() -> tuple[str, list[str]]:
    parts = [f"d{i}" for i in range(TREE_DEPTH)]
    deepest = "/" + "/".join(parts)
    leaves = [f"{deepest}/leaf{j}" for j in range(TREE_LEAVES)]
    return deepest, leaves


def run_tree(cached: bool) -> dict:
    """``TREE_PASSES`` stat passes over the leaves of a deep chain."""
    built = build_inversion_cs(cache_paths=256 if cached else 0)
    try:
        client = built.adapter.client
        clock = built.adapter.clock
        _, leaves = _tree_paths()
        path = ""
        for i in range(TREE_DEPTH):
            path += f"/d{i}"
            client.p_mkdir(path)
        for leaf in leaves:
            client.p_close(client.p_creat(leaf))
        m0 = client.network.stats.messages
        t0 = clock.now()
        for _ in range(TREE_PASSES):
            for leaf in leaves:
                att = client.p_stat(leaf)
                if att.size != 0:
                    raise AssertionError(f"unexpected size for {leaf}")
        return {
            "cached": cached,
            "depth": TREE_DEPTH,
            "leaves": TREE_LEAVES,
            "passes": TREE_PASSES,
            "elapsed_s": clock.now() - t0,
            "net_messages": client.network.stats.messages - m0,
        }
    finally:
        built.close()


def run_cachedio() -> dict:
    """The full experiment: zero-RPC hot reads plus the deep-tree
    path-lookup speedup."""
    hot = run_hot()
    uncached = run_tree(cached=False)
    cached = run_tree(cached=True)
    speedup = uncached["elapsed_s"] / cached["elapsed_s"]
    return {
        "experiment": ("lease-coherent client cache: hot re-read/re-stat "
                       "and deep-tree path lookups"),
        "hot": hot,
        "deep_tree": {
            "uncached": uncached,
            "cached": cached,
            "speedup": speedup,
        },
    }



def verdict(doc: dict) -> list[str]:
    """The claims a ``BENCH_cachedio`` document must support: warm
    passes cross the wire zero times, and the deep tree pays for one
    pass however many it makes."""
    hot, tree = doc["hot"], doc["deep_tree"]
    per_pass = 2 * TREE_LEAVES          # request + reply per stat
    claims = {
        "after warm-up not one message crosses the simulated wire":
            hot["hot_messages"] == 0 and hot["hot_elapsed_s"] == 0.0,
        "every hot pass hits the att, seek and chunk tiers":
            hot["cache_hits"]["att"] == HOT_PASSES
            and hot["cache_hits"]["seek"] == HOT_PASSES
            and hot["cache_hits"]["chunk"] >= HOT_PASSES,
        "deep-tree lookups run at least 3x faster cached":
            tree["speedup"] >= 3.0,
        "cached, only the first pass reaches the server":
            tree["cached"]["net_messages"] == per_pass,
        "uncached, every pass pays it":
            tree["uncached"]["net_messages"] == per_pass * TREE_PASSES,
    }
    return [claim for claim, holds in claims.items() if not holds]

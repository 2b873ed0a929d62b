"""Client-side caching with leases (PR 7).

The package has two halves:

- :mod:`repro.cache.leases` — the server side: per-object version
  epochs, per-session invalidation channels, transactional bump
  queues flushed at commit (visibility-before-notice), grants, and
  revocation.
- :mod:`repro.cache.client` — the client side: bounded LRU tiers for
  path→oid resolution, negative (ENOENT) lookups, fileatt rows, and
  chunk payloads.
- :mod:`repro.cache.link` — the serving protocol: a server connection
  with its cache in front, and every rule about when that cache may
  answer or be filled.  The remote client, the sharded client's
  per-shard links and the scheduler's sessions all go through it.

:func:`session_cache_factory` is the one place a cache is wired to a
server (leases on, session subscribed, ``cache.*`` metrics mirrored);
every link that caches is handed one of its factories.
"""

from __future__ import annotations

from repro.cache.client import CacheStats, ClientCache
from repro.cache.link import SessionLink
from repro.cache.leases import (
    EPOCH_MODULUS,
    LeaseManager,
    LeaseStats,
    epoch_newer,
    normalize_path,
)

__all__ = [
    "CacheStats",
    "ClientCache",
    "EPOCH_MODULUS",
    "LeaseManager",
    "LeaseStats",
    "SessionLink",
    "epoch_newer",
    "normalize_path",
    "session_cache_factory",
]


def session_cache_factory(max_paths: int = 128, max_chunks: int = 64,
                          stats: CacheStats | None = None):
    """A ``cache_factory(server, conn)`` callable for
    :class:`~repro.cache.link.SessionLink` (and so for
    :class:`~repro.sched.scheduler.MultiUserScheduler`, which takes one
    as a constructor argument): enables leases on the server,
    subscribes the session, and returns a :class:`ClientCache`.  All
    caches produced by one factory share one :class:`CacheStats`, so
    the ``cache.*`` metrics aggregate across a scheduler's sessions or
    a sharded client's shards."""
    shared = stats if stats is not None else CacheStats()

    def factory(server, conn: int) -> ClientCache:
        leases = server.enable_leases()
        leases.subscribe(conn)
        obs = getattr(getattr(server.fs, "db", None), "obs", None)
        if obs is not None:
            obs.metrics.mirror_all(shared)
        return ClientCache(leases, conn, max_paths=max_paths,
                           max_chunks=max_chunks, stats=shared)

    factory.stats = shared
    return factory

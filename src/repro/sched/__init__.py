"""Deterministic multi-session scheduling.

The paper's promise — "a standard database two-phase locking protocol
[GRAY76] allows concurrent access to files" — only earns its keep when
more than one session is in flight.  This package interleaves N client
sessions over one :class:`~repro.core.server.InversionServer` — or,
through :class:`~repro.shard.sched.ShardedScheduler`'s deployment
seam, over a cluster's shards — without real threads; the loop itself
is described in :mod:`repro.sched.scheduler`.  Same seed ⇒ identical
interleaving, which keeps the crash-schedule explorer and the
byte-identical bench gates working under concurrency.
"""

from repro.sched.scheduler import (Apply, Call, MultiUserScheduler, Ref,
                                   SchedStats, Session, Txn)

__all__ = [
    "Apply", "Call", "MultiUserScheduler", "Ref", "SchedStats", "Session",
    "Txn",
]

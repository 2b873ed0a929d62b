"""Log-shipping replication: promotable read-only replicas.

The no-overwrite storage manager is its own replication log — see
REPLICATION.md for the design, :mod:`repro.replica.feed` for the
primary side (delta feed + device tap), :mod:`repro.replica.backup`
for base backups, :mod:`repro.replica.server` for the apply loop and
promotion, and :mod:`repro.replica.cluster` for the wired topology.

Everything here is off by default: a database with no
:meth:`PrimaryFeed.attach` call carries zero replication state and
byte-identical behaviour.
"""

from repro.replica.backup import clone_database, copy_device
from repro.replica.cluster import ReplicatedCluster
from repro.replica.feed import (ENTRY_HEADER_BYTES, FeedEntry, FeedTapDevice,
                                PrimaryFeed, ReplStats)
from repro.replica.server import (DEFAULT_BATCH_ENTRIES, REPL_CURSOR_TAG,
                                  ReplicaServer)

__all__ = [
    "ENTRY_HEADER_BYTES",
    "DEFAULT_BATCH_ENTRIES",
    "REPL_CURSOR_TAG",
    "FeedEntry",
    "FeedTapDevice",
    "PrimaryFeed",
    "ReplStats",
    "ReplicaServer",
    "ReplicatedCluster",
    "clone_database",
    "copy_device",
]

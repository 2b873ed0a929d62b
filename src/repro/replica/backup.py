"""Base backup: cloning a primary database into a replica directory.

A replica starts life as a *base backup* — a page-exact copy of the
primary taken at a known feed position.  The copy is logical (relation
by relation, metadata blob by metadata blob, through the ordinary
device-manager interface) so it works for any device type the switch
knows, and it charges simulated I/O on both sides: sequential reads on
the primary's clock, sequential writes on the replica's.

The caller must quiesce the primary first —
:meth:`repro.replica.feed.PrimaryFeed.checkpoint` forces dirty buffer
pages, queued group-commit records, and device-private caches down to
the media — and record ``feed.next_seq`` as the backup's cursor
*before* any further write.  :meth:`repro.replica.server.ReplicaServer.seed`
does both in the right order.
"""

from __future__ import annotations

import json
import os

from repro.db.database import (DEVICE_KINDS, _DEVICE_REGISTRY, _DEVICES_FILE,
                               Database)
from repro.errors import ReplicaError
from repro.sim.clock import SimClock

#: pages copied per device read — sequential runs keep the primary's
#: disk model on its fast contiguous-transfer path during the backup.
COPY_BATCH_PAGES = 64


def copy_device(src, dst, batch: int = COPY_BATCH_PAGES) -> tuple[int, int]:
    """Copy every relation and metadata blob from ``src`` to ``dst``
    through the device-manager interface.  Returns (relations copied,
    pages copied)."""
    npages_total = 0
    relnames = sorted(src.list_relations())
    for relname in relnames:
        dst.create_relation(relname)
        npages = src.nblocks(relname)
        for _ in range(npages):
            dst.extend(relname)
        for start in range(0, npages, batch):
            count = min(batch, npages - start)
            pages = src.read_pages(relname, start, count)
            dst.write_pages(relname, start, pages)
        npages_total += npages
    for tag in src.meta_tags():
        blob = src.read_meta(tag)
        if blob is not None:
            dst.sync_write_meta(tag, blob)
    return len(relnames), npages_total


def clone_database(db: Database, replica_path: str,
                   clock: SimClock | None = None) -> Database:
    """Clone ``db`` (already checkpointed — see the module docstring)
    into ``replica_path`` and open the copy as an independent
    :class:`~repro.db.database.Database` on its own simulated clock.

    Magnetic devices get fresh backing directories under
    ``replica_path``; in-memory media (memdisk, jukebox, tape) get
    fresh instances registered under the replica's path so
    :meth:`Database.open` adopts them."""
    config = db._load_device_config()
    if config is None:
        raise ReplicaError(f"no database at {db.path}")
    if os.path.exists(os.path.join(replica_path, _DEVICES_FILE)):
        raise ReplicaError(f"replica path {replica_path} already holds "
                           f"a database")
    clock = clock or SimClock()
    os.makedirs(replica_path, exist_ok=True)
    for entry in config["devices"]:
        name, kind = entry["name"], entry["type"]
        if kind not in DEVICE_KINDS:
            raise ReplicaError(f"cannot clone device type {kind!r}")
        src = db.switch.get(name)
        dst = DEVICE_KINDS[kind](name, clock, replica_path)
        copy_device(src, dst)
        if kind == "magnetic":
            # Database.open rebuilds magnetic managers from the backing
            # files; flush and let go of this construction-time one.
            dst.close()
        else:
            _DEVICE_REGISTRY[(os.path.abspath(replica_path), name)] = dst
    with open(os.path.join(replica_path, _DEVICES_FILE), "w",
              encoding="utf-8") as f:
        json.dump(config, f, indent=2)
    return Database.open(replica_path, clock=clock)

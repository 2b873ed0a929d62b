"""Unified observability: metrics registry, trace spans, per-transaction
I/O accounting.

One :class:`Observability` object rides on each
:class:`~repro.db.database.Database` session (``db.obs``) and bundles:

- ``db.obs.metrics`` — a :class:`~repro.obs.registry.MetricsRegistry`
  reading every counter the storage system keeps off the stats field
  that declares it with its unit/help/labels (``python -m repro.obs
  --write-docs`` renders them to METRICS.md);
- ``db.obs.tracer`` — a :class:`~repro.obs.tracing.Tracer`, off by
  default and zero-cost when off, emitting parent/child spans with
  sim-clock timestamps;
- ``db.obs.tx`` — a :class:`~repro.obs.accounting.TxAccountant`
  attributing buffer hits/misses, device I/O, lock waits and
  status-file forces to the owning xid.

Everything here observes the simulation without participating in it:
no method advances the :class:`~repro.sim.clock.SimClock` or touches a
device, which is what makes benchmark numbers and crash schedules
byte-identical with observability active (the invisibility tests pin
this).
"""

from __future__ import annotations

from repro.obs.accounting import FIELDS, TxAccountant
from repro.obs.registry import (HistogramValue, Metric, MetricSpec,
                                MetricsRegistry)
from repro.obs.tracing import NO_SPAN, Tracer

__all__ = [
    "FIELDS", "HistogramValue", "Metric", "MetricSpec", "MetricsRegistry",
    "NO_SPAN", "Observability", "Tracer", "TxAccountant",
]


class Observability:
    """The per-session bundle: registry + tracer + accountant, plus the
    hot-path charge helpers the instrumented layers call."""

    def __init__(self, clock=None) -> None:
        from repro.core.chunks import ChunkStats
        from repro.core.server import RpcStats
        from repro.db.buffer import DeviceIOStats
        from repro.db.heap import HeapStats

        self.metrics = MetricsRegistry()
        self.tracer = Tracer(clock)
        self.tx = TxAccountant()
        # The session's counters of components made per file, relation
        # or call: one instance each, whichever component bumps it.
        self.device_io = DeviceIOStats()
        self.heap = HeapStats()
        self.chunks = ChunkStats()
        self.rpc = RpcStats()
        for stats in (self.tracer.stats, self.device_io, self.heap,
                      self.chunks, self.rpc):
            self.metrics.mirror_all(stats)

    # -- tracing ---------------------------------------------------------

    def span(self, name: str, **attrs):
        """A trace span, or the shared no-op when tracing is off.  Hot
        paths should still guard with ``obs.tracer.enabled`` to skip
        the keyword packing."""
        tracer = self.tracer
        if not tracer.enabled:
            return NO_SPAN
        return tracer.span(name, **attrs)

    # -- binding ---------------------------------------------------------

    def bind_database(self, db) -> None:
        """Adopt a Database session: mirror its components' stats onto
        the registry.  Called from ``Database.create``/``open`` once the
        transaction manager and the catalog exist."""
        for stats in (db.buffers.stats, db.tm.stats, db.catalog.stats,
                      db.locks.stats):
            self.metrics.mirror_all(stats)
        self.bind_btree()
        for dev in db.switch:
            self.bind_device(dev)

    def bind_device(self, dev) -> None:
        """Mirror one device's stats, labelled ``device=<name>``: its
        drive model's, a staging drive's (as ``<name>.staging``) and
        its own, whichever it carries (a proxy forwards all three)."""
        for attr, name in (("disk", dev.name),
                           ("staging_disk", f"{dev.name}.staging")):
            model = getattr(dev, attr, None)
            if model is not None:
                self.metrics.mirror_all(model.stats, device=name)
        stats = getattr(dev, "stats", None)
        if stats is not None:
            self.metrics.mirror_all(stats, device=dev.name)

    def bind_btree(self) -> None:
        """Expose B-tree descent counts and the page-layer cache
        counter.  The legacy class attributes are process-global
        (benchmarks read them as absolutes), so the registry snapshots
        them here and reports session-relative deltas — the reset
        rule's escape hatch for process-lived state."""
        from repro.db import btree as btree_mod
        from repro.db import page as page_mod

        cls = btree_mod.BTree
        base_total = cls.total_descents
        base_rel = dict(cls.descents_by_rel)
        base_decoded = cls.leaf_entries_decoded
        page_cls = page_mod.Page
        base_inval = page_cls.header_cache_invalidations

        def descents():
            return {rel: n - base_rel.get(rel, 0)
                    for rel, n in cls.descents_by_rel.items()
                    if n != base_rel.get(rel, 0)}

        live = {
            "total_descents": lambda: cls.total_descents - base_total,
            "descents": descents,
            "leaf_entries_decoded":
                lambda: cls.leaf_entries_decoded - base_decoded,
            "header_cache_invalidations":
                lambda: page_cls.header_cache_invalidations - base_inval,
        }
        for stats_cls in (page_mod.PageStats, btree_mod.BTreeStats):
            for name, spec in stats_cls.metric_specs:
                self.metrics.register(spec).mirror(live[name])

    def bind_client(self, client) -> None:
        """Mirror a remote client's RPC counters and its network
        model's stats (client-side components live outside the
        Database, so the client binds itself on construction)."""
        self.metrics.mirror_all(client.stats)
        self.metrics.mirror_all(client.network.stats)

    # -- hot-path charge helpers ----------------------------------------

    def device_read(self, device: str, relation: str, pages: int) -> None:
        """One device read call moving ``pages`` pages (a batched run
        counts once — the batch totals stay disjoint from the per-page
        totals)."""
        stats, key = self.device_io, (device, relation)
        stats.reads[key] = stats.reads.get(key, 0) + 1
        stats.pages_read[key] = stats.pages_read.get(key, 0) + pages
        self.tx.charge_io("device_read_ops", 1, "device_pages_read", pages)

    def device_write(self, device: str, relation: str, pages: int) -> None:
        """One device write call moving ``pages`` pages."""
        stats, key = self.device_io, (device, relation)
        stats.writes[key] = stats.writes.get(key, 0) + 1
        stats.pages_written[key] = stats.pages_written.get(key, 0) + pages
        self.tx.charge_io("device_write_ops", 1,
                          "device_pages_written", pages)

    def heap_inserted(self, relation: str, n: int = 1) -> None:
        rows = self.heap.rows_inserted
        rows[relation] = rows.get(relation, 0) + n

    def chunk_range_read(self) -> None:
        self.chunks.range_reads += 1

    def chunk_flush(self, nwritten: int) -> None:
        self.chunks.flushes += 1
        self.chunks.chunks_written += nwritten

    def rpc_dispatch(self, method: str) -> None:
        calls = self.rpc.dispatches
        calls[method] = calls.get(method, 0) + 1

    def lock_wait(self, xid: int, seconds: float) -> None:
        self.tx.charge_xid(xid, "lock_waits")
        self.tx.charge_xid(xid, "lock_wait_seconds", seconds)

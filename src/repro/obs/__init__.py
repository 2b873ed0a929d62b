"""Unified observability: metrics registry, trace spans, per-transaction
I/O accounting.

One :class:`Observability` object rides on each
:class:`~repro.db.database.Database` session (``db.obs``) and bundles:

- ``db.obs.metrics`` — a :class:`~repro.obs.registry.MetricsRegistry`
  holding every counter the storage system keeps, self-described with
  unit/help/labels (``python -m repro.obs --write-docs`` renders them
  to METRICS.md);
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
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(clock)
        self.tx = TxAccountant()
        from repro.obs import tracing
        self.metrics.register(tracing.METRICS[0]).mirror(
            lambda: self.tracer.spans_emitted)
        # Pushed per-relation device families, bound by bind_database().
        self._m_dev_reads = None
        self._m_dev_pages_read = None
        self._m_dev_writes = None
        self._m_dev_pages_written = None
        self._m_lock_waits = None
        self._m_lock_wait_seconds = None
        self._m_lock_deadlocks = None
        self._m_lock_timeouts = None
        self._m_heap_rows = None
        self._m_chunk_range_reads = None
        self._m_chunk_flushes = None
        self._m_chunks_written = None
        self._m_rpc_dispatches = None

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
        """Adopt a Database session: mirror every existing stats object
        onto the registry and create the pushed per-relation device
        families.  Called from ``Database.create``/``open`` once the
        transaction manager and the catalog exist; idempotent, so
        ``add_device`` can re-invoke it."""
        from repro.db import buffer as buffer_mod
        from repro.db import catalog as catalog_mod
        from repro.db import locks as locks_mod
        from repro.db import transactions as tx_mod

        self.metrics.mirror_all(buffer_mod.METRICS, db.buffers.stats)
        self.metrics.mirror_all(tx_mod.METRICS, db.tm.stats)
        self.metrics.mirror_all(catalog_mod.METRICS, db.catalog)
        for spec in buffer_mod.DEVICE_METRICS:
            self.metrics.register(spec)
        self._m_dev_reads = self.metrics.get("device.reads")
        self._m_dev_pages_read = self.metrics.get("device.pages_read")
        self._m_dev_writes = self.metrics.get("device.writes")
        self._m_dev_pages_written = self.metrics.get("device.pages_written")
        for spec in locks_mod.METRICS:
            self.metrics.register(spec)
        self._m_lock_waits = self.metrics.get("lock.waits")
        self._m_lock_wait_seconds = self.metrics.get("lock.wait_seconds")
        self._m_lock_deadlocks = self.metrics.get("lock.deadlocks")
        self._m_lock_timeouts = self.metrics.get("lock.timeouts")
        from repro.core import chunks as chunks_mod
        from repro.db import heap as heap_mod
        self._m_heap_rows = self.metrics.register(heap_mod.METRICS[0])
        for spec in chunks_mod.METRICS:
            self.metrics.register(spec)
        self._m_chunk_range_reads = self.metrics.get("chunks.range_reads")
        self._m_chunk_flushes = self.metrics.get("chunks.flushes")
        self._m_chunks_written = self.metrics.get("chunks.chunks_written")
        self.bind_btree()
        for dev in db.switch:
            self.bind_device(dev)

    def bind_device(self, dev) -> None:
        """Mirror one device's stats, labelled ``device=<name>``.  The
        spec tuple lives in the device's own module; which one applies
        is decided by what the instance carries."""
        from repro.sim import disk as disk_mod

        inner = getattr(dev, "inner", dev)   # FaultyDevice proxies stats
        if hasattr(inner, "disk"):
            self.metrics.mirror_all(disk_mod.METRICS, inner.disk.stats,
                                    device=dev.name)
        if hasattr(inner, "staging_disk"):
            self.metrics.mirror_all(disk_mod.METRICS,
                                    inner.staging_disk.stats,
                                    device=f"{dev.name}.staging")
        stats = getattr(inner, "stats", None)
        if stats is None:
            return
        module = __import__(type(inner).__module__, fromlist=["METRICS"])
        specs = getattr(module, "METRICS", ())
        if specs:
            self.metrics.mirror_all(specs, stats, device=dev.name)

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
        total = self.metrics.register(btree_mod.METRICS[0])
        total.mirror(lambda: cls.total_descents - base_total)
        per_rel = self.metrics.register(btree_mod.METRICS[1])

        def _series():
            out = {}
            for rel, n in cls.descents_by_rel.items():
                delta = n - base_rel.get(rel, 0)
                if delta:
                    out[(rel,)] = delta
            return out

        per_rel.mirror_series(_series)
        base_decoded = cls.leaf_entries_decoded
        decoded = self.metrics.register(btree_mod.METRICS[2])
        decoded.mirror(lambda: cls.leaf_entries_decoded - base_decoded)
        page_cls = page_mod.Page
        base_inval = page_cls.header_cache_invalidations
        inval = self.metrics.register(page_mod.METRICS[0])
        inval.mirror(lambda: page_cls.header_cache_invalidations - base_inval)

    def bind_client(self, client) -> None:
        """Mirror a remote client's RPC counters and its network
        model's stats (client-side components live outside the
        Database, so the client binds itself on construction)."""
        from repro.core import client as client_mod
        from repro.sim import network as network_mod

        self.metrics.mirror_all(client_mod.METRICS, client)
        self.metrics.mirror_all(network_mod.METRICS, client.network.stats)

    def bind_vfs(self, vfs) -> None:
        """Mirror a transactional-VFS session's counters (the VFS sits
        above whatever client it wraps, so it binds itself the same way
        clients do)."""
        from repro.vfs import api as vfs_mod

        self.metrics.mirror_all(vfs_mod.METRICS, vfs)

    # -- hot-path charge helpers ----------------------------------------

    def device_read(self, device: str, relation: str, pages: int) -> None:
        """One device read call moving ``pages`` pages (a batched run
        counts once — the batch totals stay disjoint from the per-page
        totals)."""
        if self._m_dev_reads is not None:
            self._m_dev_reads.inc(1, device=device, relation=relation)
            self._m_dev_pages_read.inc(pages, device=device, relation=relation)
        self.tx.charge_io("device_read_ops", 1, "device_pages_read", pages)

    def device_write(self, device: str, relation: str, pages: int) -> None:
        """One device write call moving ``pages`` pages."""
        if self._m_dev_writes is not None:
            self._m_dev_writes.inc(1, device=device, relation=relation)
            self._m_dev_pages_written.inc(pages, device=device,
                                          relation=relation)
        self.tx.charge_io("device_write_ops", 1,
                          "device_pages_written", pages)

    def heap_inserted(self, relation: str, n: int = 1) -> None:
        if self._m_heap_rows is not None:
            self._m_heap_rows.inc(n, relation=relation)

    def chunk_range_read(self) -> None:
        if self._m_chunk_range_reads is not None:
            self._m_chunk_range_reads.inc()

    def chunk_flush(self, nwritten: int) -> None:
        if self._m_chunk_flushes is not None:
            self._m_chunk_flushes.inc()
            if nwritten:
                self._m_chunks_written.inc(nwritten)

    def rpc_dispatch(self, method: str) -> None:
        if self._m_rpc_dispatches is None:
            from repro.core import server as server_mod
            self._m_rpc_dispatches = self.metrics.register(
                server_mod.METRICS[0])
        self._m_rpc_dispatches.inc(method=method)

    def lock_wait(self, xid: int, seconds: float) -> None:
        if self._m_lock_waits is not None:
            self._m_lock_waits.inc()
            self._m_lock_wait_seconds.observe(seconds)
        self.tx.charge_xid(xid, "lock_waits")
        self.tx.charge_xid(xid, "lock_wait_seconds", seconds)

    def lock_deadlock(self, xid: int) -> None:
        if self._m_lock_deadlocks is not None:
            self._m_lock_deadlocks.inc()

    def lock_timeout(self, xid: int) -> None:
        if self._m_lock_timeouts is not None:
            self._m_lock_timeouts.inc()

"""Fault-injecting device manager proxy.

:class:`FaultyDevice` wraps any :class:`~repro.devices.base.DeviceManager`
and is registered through the device switch's
:meth:`~repro.devices.switch.DeviceSwitch.wrap` hook (or, for a whole
database at once, :meth:`repro.db.database.Database.wrap_devices`, which
also rebinds the transaction manager's root-device handle so status-file
forces are intercepted too).

Injectable faults:

- **counted crash** — the shared :class:`CrashController` counts every
  durable write (each page of a ``write_pages``, ``sync_write_meta``,
  ``sync_append_meta``) across all proxied devices; at write index
  ``crash_after`` it raises :class:`~repro.errors.SimulatedCrashError`
  *instead of* performing the write, so exactly ``crash_after`` writes
  reached the media.  Every boundary in a run is therefore a distinct,
  deterministic crash point.
- **torn append** — with ``torn_append=True``, when the crash lands on a
  status-file append, a seeded prefix of the record is written first —
  the classic torn log tail.
- **partial multi-page flushes** fall out of the counted crash: a flush
  of *M* dirty pages crashed at write *k* leaves only the first pages
  durable.
- **transient I/O errors** — ``read_errors``/``write_errors`` name
  global operation indices that fail once with
  :class:`~repro.errors.InjectedFaultError`; a retry (the next index)
  succeeds.
- **permanent failures** — any I/O touching a relation named in
  ``broken_relations`` fails, always.

After the crash fires, every subsequent operation on the proxy raises —
a halted machine does not service I/O — until :meth:`CrashController.
disarm` is called (the explorer does this before discarding volatile
state and reopening).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.devices.base import DeviceManager, DeviceProxy
from repro.errors import InjectedFaultError, SimulatedCrashError


@dataclass(frozen=True)
class FaultPlan:
    """What to inject, declared up front so runs are reproducible."""

    #: crash in place of the durable write with this 0-based global
    #: index (None → never crash; counting still happens).
    crash_after: int | None = None
    #: when the crash lands on a status-file append, write a seeded
    #: prefix of the record before halting.
    torn_append: bool = False
    #: global read-operation indices that fail once (transient).
    read_errors: frozenset = frozenset()
    #: global write-operation indices that fail once (transient).
    write_errors: frozenset = frozenset()
    #: relations whose every read/write fails (permanent media damage).
    broken_relations: frozenset = frozenset()
    seed: int = 0


@dataclass
class CrashController:
    """Shared fault state across all of one database's proxies.

    One controller serves every :class:`FaultyDevice` of a database, so
    the write counter gives a single global ordering of durable writes
    regardless of which device they land on."""

    plan: FaultPlan = field(default_factory=FaultPlan)
    writes: int = 0
    reads: int = 0
    crashed: bool = False
    armed: bool = True
    #: (kind, device, detail) per performed durable write — lets tests
    #: inspect exactly what reached the media before a crash.
    write_log: list = field(default_factory=list)

    def disarm(self) -> None:
        """Stop injecting (recovery and post-mortem inspection run
        against the real devices' behavior)."""
        self.armed = False

    # -- gates -----------------------------------------------------------

    def _check_down(self) -> None:
        if self.armed and self.crashed:
            raise SimulatedCrashError("machine is down (crash already fired)")

    def read_gate(self, device: str, detail: str, relname: str | None = None) -> None:
        self._check_down()
        if not self.armed:
            return
        if relname is not None and relname in self.plan.broken_relations:
            raise InjectedFaultError(
                f"permanent media failure on {device}:{relname}")
        index = self.reads
        self.reads += 1
        if index in self.plan.read_errors:
            raise InjectedFaultError(
                f"transient read error #{index} on {device} ({detail})")

    def write_gate(self, kind: str, device: str, detail: str,
                   relname: str | None = None) -> None:
        """Gate one durable write.  Raises to suppress it; returns to
        let it through (and logs it as performed)."""
        self._check_down()
        if not self.armed:
            return
        if relname is not None and relname in self.plan.broken_relations:
            raise InjectedFaultError(
                f"permanent media failure on {device}:{relname}")
        index = self.writes
        if self.plan.crash_after is not None and index >= self.plan.crash_after:
            self.crashed = True
            raise SimulatedCrashError(
                f"simulated power failure in place of write #{index} "
                f"({kind} {device} {detail})")
        self.writes += 1
        if index in self.plan.write_errors:
            raise InjectedFaultError(
                f"transient write error #{index} on {device} ({detail})")
        self.write_log.append((kind, device, detail))

    def append_gate(self, device: str, tag: str, length: int) -> int | None:
        """Gate a status-file append.  Returns None for a full write, or
        the number of prefix bytes to write before halting (torn tail)."""
        self._check_down()
        if not self.armed:
            return None
        index = self.writes
        if self.plan.crash_after is not None and index >= self.plan.crash_after:
            self.crashed = True
            if self.plan.torn_append and length > 0:
                # Seeded by (seed, index): the same crash point always
                # tears at the same byte.  The cut never includes the
                # final newline, so a torn record is visibly incomplete.
                return random.Random(f"{self.plan.seed}:{index}").randrange(length)
            raise SimulatedCrashError(
                f"simulated power failure in place of append #{index} "
                f"({device} meta:{tag})")
        self.writes += 1
        if index in self.plan.write_errors:
            raise InjectedFaultError(
                f"transient write error #{index} on {device} (meta:{tag})")
        self.write_log.append(("append", device, tag))
        return None


class FaultyDevice(DeviceProxy):
    """Interposing proxy: the controller's gates in front of the I/O
    paths; everything else is :class:`DeviceProxy`'s delegation."""

    def __init__(self, inner: DeviceManager, controller: CrashController) -> None:
        super().__init__(inner)
        self.ctrl = controller

    # -- relation lifecycle.  create/drop/rename mutate durable device
    # metadata, so each is a counted crash boundary — that is what lets
    # the explorer land *between* the renames of vacuum's heap+index
    # swap and prove the redo journal completes it.  extend is only
    # allocation bookkeeping (no data reaches the medium until the page
    # is written) and is not counted.

    def create_relation(self, relname: str) -> None:
        self.ctrl.write_gate("create", self.name, relname)
        self.inner.create_relation(relname)

    def drop_relation(self, relname: str) -> None:
        self.ctrl.write_gate("drop", self.name, relname)
        self.inner.drop_relation(relname)

    def rename_relation(self, src: str, dst: str) -> None:
        self.ctrl.write_gate("rename", self.name, f"{src}->{dst}")
        self.inner.rename_relation(src, dst)

    def extend(self, relname: str) -> int:
        self.ctrl._check_down()
        return self.inner.extend(relname)

    # -- gated page I/O ---------------------------------------------------

    def read_pages(self, relname: str, start: int, count: int) -> list[bytes]:
        # Each page of the run passes the read gate individually, so an
        # injected read error or a broken relation hits the page it
        # names wherever the run around it starts.
        for pageno in range(start, start + count):
            self.ctrl.read_gate(self.name, f"{relname}:{pageno}", relname)
        return self.inner.read_pages(relname, start, count)

    def write_pages(self, relname: str, start: int,
                    datas: list[bytes]) -> None:
        # Every page of the run is its own counted crash boundary and
        # is written through individually: a flush crashed at write k
        # leaves exactly the first pages of the run durable.
        for pageno, data in enumerate(datas, start):
            self.ctrl.write_gate("page", self.name,
                                 f"{relname}:{pageno}", relname)
            self.inner.write_pages(relname, pageno, [data])

    # -- gated durability -------------------------------------------------

    def flush(self) -> None:
        self.ctrl._check_down()
        self.inner.flush()

    def sync_write_meta(self, tag: str, data: bytes) -> None:
        self.ctrl.write_gate("meta", self.name, f"meta:{tag}")
        self.inner.sync_write_meta(tag, data)

    def sync_append_meta(self, tag: str, data: bytes) -> None:
        cut = self.ctrl.append_gate(self.name, tag, len(data))
        if cut is None:
            self.inner.sync_append_meta(tag, data)
            return
        if cut:
            self.inner.sync_append_meta(tag, data[:cut])
        raise SimulatedCrashError(
            f"simulated power failure tore append to {tag!r} at byte {cut}")

    def read_meta(self, tag: str) -> bytes | None:
        self.ctrl._check_down()
        return self.inner.read_meta(tag)

    def describe(self) -> dict[str, object]:
        row = self.inner.describe()
        row["fault_proxy"] = True
        return row

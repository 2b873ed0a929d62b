"""Deterministic crash/fault-injection testkit.

The paper's headline claim is that every file-system service — data,
metadata, naming — is transaction-protected by the no-overwrite storage
manager, with "essentially instantaneous" crash recovery.  This package
turns that claim into a checkable property:

- :mod:`repro.testkit.faults` interposes a :class:`FaultyDevice` proxy
  between the buffer cache / transaction manager and the real device
  managers, able to inject torn status-file appends, transient and
  permanent I/O errors, and a counted "crash in place of write #N"
  trigger.
- :mod:`repro.testkit.oracle` is a dict-based model file system that
  applies only committed operations — the differential oracle a
  recovered database is compared against.
- :mod:`repro.testkit.workload` holds deterministic scripted workloads
  (create/write/unlink/rename/vacuum/migrate) expressed as data.
- :mod:`repro.testkit.stacks` builds every deployment — one server
  mounted locally, behind remote, cached and batched clients or the
  scheduler; a sharded cluster; a primary with replicas — behind one
  interface, named by a stack id (:func:`open_stack`, :data:`STACKS`).
  A stack's ``crash()`` returns a fresh stack over the media the crash
  left: reopened, recovered in doubt, or a replica promoted.
- :mod:`repro.testkit.explorer` enumerates every durable-write boundary
  of a workload on the stack it is given by id, crashes it at each one,
  recovers through ``crash()``, and checks the recovered state against
  the oracle and the ``core.checker`` invariants.

Everything is seeded and driven by the simulated clock, so CI results
are bit-for-bit reproducible.
"""

from repro.testkit.explorer import (
    CrashExplorer,
    CrashPointResult,
    ExplorationReport,
    WorkloadRunner,
)
from repro.testkit.faults import CrashController, FaultPlan, FaultyDevice
from repro.testkit.oracle import ModelFS, harvest_state
from repro.testkit.stacks import STACKS, open_stack
from repro.testkit.workload import (
    MigrateStep,
    TxStep,
    VacuumStep,
    Workload,
    commit_workload,
    migration_workload,
    payload,
    vacuum_workload,
)

__all__ = [
    "CrashController",
    "CrashExplorer",
    "CrashPointResult",
    "ExplorationReport",
    "FaultPlan",
    "FaultyDevice",
    "MigrateStep",
    "ModelFS",
    "STACKS",
    "TxStep",
    "VacuumStep",
    "Workload",
    "WorkloadRunner",
    "commit_workload",
    "harvest_state",
    "migration_workload",
    "open_stack",
    "payload",
    "vacuum_workload",
]

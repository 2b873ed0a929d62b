"""Concurrent workloads for the crash-schedule explorer.

:class:`ConcurrentWorkloadRunner` is the single-session
:class:`~repro.testkit.explorer.WorkloadRunner` (same ``oracle``,
``pending``, ``floating``, ``run()``, ``completed_state()``) driving
a :class:`~repro.testkit.workload.Workload` whose ``sessions`` field
holds one step list *per client* through the deterministic
multi-session scheduler (:mod:`repro.sched`).  Each
:class:`~repro.testkit.workload.TxStep` becomes a scheduler ``Txn`` of
``Apply`` items running :func:`~repro.testkit.oracle.apply_fs_op`, so
the crash explorer's model ops flow through real interleaved
transactions — lock parks, deadlock-victim retries and group-commit
batches included.

The oracle stays correct under interleaving because two-phase locking
makes the committed transactions serializable *in commit order*: the
scheduler's ``commit_hook`` fires the instant each commit dispatch
returns, and the runner applies that step's ops to the model right
there (or holds them in the floating list while the commit record sits
in the group-commit queue).  A crash may lose any suffix of the
floating list — exactly the acceptance rule the explorer already
applies to single-session group-commit runs.

Determinism: the scheduler is seeded from ``workload.sched_seed`` and
everything advances on the simulated clock, so the profiling pass and
every crash-point rebuild replay byte-identical write sequences —
"crash at write #k" stays a meaningful coordinate even with eight
clients in flight.
"""

from __future__ import annotations

from repro.core.server import InversionServer
from repro.sched import Apply, MultiUserScheduler, Txn
from repro.testkit.explorer import WorkloadRunner
from repro.testkit.oracle import apply_fs_op
from repro.testkit.workload import TxStep, Workload


class ConcurrentWorkloadRunner(WorkloadRunner):
    """Executes a workload's per-session step lists through the
    multi-session scheduler, keeping the differential oracle in
    lock-step at commit order.

    ``pending`` stays None: concurrent runs are explored without torn
    appends, where an in-flight transaction can never land on the
    committed side, so there is never a pending candidate.

    On the ``scheduled`` stack the sessions run through its server with
    its lease caches attached (the cache must be invisible: lease
    bookkeeping is pure dict work, so write boundaries and oracle
    outcomes are unchanged); on ``local`` / ``grouped`` uncached."""

    def __init__(self, stack, workload: Workload) -> None:
        if stack.kind not in ("local", "grouped", "scheduled"):
            raise ValueError(f"stack {stack.kind!r} runs no scheduler "
                             f"sessions")
        if not workload.sessions:
            raise ValueError(f"workload {workload.name!r} has no sessions")
        super().__init__(stack, workload)

    def _program(self, steps) -> list[Txn]:
        program = []
        for step in steps:
            if not isinstance(step, TxStep):
                raise TypeError(
                    f"concurrent workloads take TxStep only, got {step!r}")
            items = [Apply(op[0],
                           lambda fs, tx, op=op: apply_fs_op(fs, tx, op))
                     for op in step.ops]
            program.append(Txn(items, abort=step.abort, tag=step))
        return program

    def run(self) -> None:
        if self.stack.kind == "scheduled":
            server, factory = self.stack.server, self.stack.factory
        else:
            server, factory = InversionServer(self.fs), None
        sched = MultiUserScheduler(server, seed=self.workload.sched_seed,
                                   cache_factory=factory)
        sched.commit_hook = (
            lambda session, step, xid: self._committed(xid, step.ops))
        try:
            for i, steps in enumerate(self.workload.sessions):
                sched.add_session(self._program(steps), name=f"s{i}")
            sched.run(strict=True)
        finally:
            sched.close()
        self._flush_final_group()

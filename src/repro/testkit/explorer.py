"""The crash-schedule explorer.

For a scripted workload :class:`CrashExplorer` first runs a *profiling*
pass that counts every durable write (the write boundaries), then — for
each chosen boundary ``k`` — rebuilds a pristine deployment, arms the
:class:`~repro.testkit.faults.FaultyDevice` proxies to crash in place
of write ``k``, runs the workload until the crash fires, discards
volatile state, recovers, and checks the recovered mounts three ways:

1. **differential oracle** — the visible state must equal the
   :class:`~repro.testkit.oracle.ModelFS` built from exactly the
   transactions whose commit records became durable: the durable base,
   plus any prefix of the commits still floating in the group-commit
   queue, plus the one in-flight transaction where its record may have
   survived a torn append or its fate was in doubt under 2PC;
2. **storage invariants** — ``core.checker.ConsistencyChecker`` must
   report zero corruptions on every recovered mount (self-identifying
   chunks, and every chunk reference resolving and registered);
3. **recovery accounting** — the recovery report must load without
   error (its numbers are recorded per crash point).

The deployment is named by a stack id (one of
:data:`~repro.testkit.stacks.STACKS`): each pass builds it with
:func:`~repro.testkit.stacks.open_stack`, runs the workload's setup
there, arms the stack's ``node`` and, on a crash, judges the stack
``stack.crash()`` returns — a fresh instance over the crashed media is
the whole interface.  A new deployment is a new stack id, with no pass
logic of its own.

Everything is seeded and simulated-clock-driven; the same (workload,
seed, k) always reproduces the same crash byte-for-byte.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, field

from repro.core.checker import ConsistencyChecker
from repro.db.transactions import atomic
from repro.errors import ReproError, SimulatedCrashError
from repro.testkit.faults import CrashController, FaultPlan, FaultyDevice
from repro.testkit.oracle import (ModelFS, apply_client_op, apply_fs_op,
                                  diff_states)
from repro.testkit.stacks import open_stack
from repro.testkit.workload import (FlushStep, MigrateStep, TxStep,
                                    VacuumStep, Workload)


class WorkloadRunner:
    """Executes a workload's steps against the stack's one (or primary)
    mount, keeping the oracle in lock-step: a step's ops reach the
    model only once its commit returned (i.e. its commit record was
    performed)."""

    def __init__(self, stack, workload: Workload) -> None:
        self.stack = stack
        self.fs = stack.mounts[0]
        self.db = self.fs.db
        self.workload = workload
        # what setup committed before the run was armed: the base.
        self.oracle = ModelFS(stack.ground_truth())
        #: ops of the transaction in flight when a crash fired, or None
        #: when the crash hit outside any visible-state-changing commit.
        self.pending: tuple | None = None
        #: (xid, ops) of transactions committed in memory whose group-
        #: commit records are still queued (not durable), in commit
        #: order.  A crash may lose any *suffix* of this list; the
        #: explorer therefore accepts the oracle base plus every prefix.
        self.floating: list[tuple[int, tuple]] = []

    def run(self) -> None:
        for step in self.workload.steps:
            self.pending = None
            self._drain_floating()
            if isinstance(step, TxStep):
                self._run_tx(step)
            elif isinstance(step, VacuumStep):
                self._run_vacuum(step)
            elif isinstance(step, MigrateStep):
                self._run_migrate(step)
            elif isinstance(step, FlushStep):
                self.db.tm.flush_commits()
            else:
                raise TypeError(f"unknown step {step!r}")
        self.pending = None
        self._flush_final_group()

    def _flush_final_group(self) -> None:
        """Force the group ``close()`` would, inside the run, so the
        armed run can crash in it too, then fold it into the oracle."""
        for db in self.stack.dbs():
            db.tm.flush_commits()
        self._drain_floating()

    def _drain_floating(self) -> None:
        """Fold floating commits whose records have since been durably
        flushed (group-commit batches force at later begins/commits)
        into the oracle base, keeping the set of crash-ambiguous
        transactions as small as the device state allows."""
        still_pending = set(self.db.tm.pending_commit_xids())
        while self.floating and self.floating[0][0] not in still_pending:
            _, ops = self.floating.pop(0)
            self.oracle.apply_many(ops)

    def _committed(self, xid: int, ops: tuple) -> None:
        """A commit just returned: its ops join the oracle base, or the
        floating list while group commit still queues the record
        (committed in memory, not yet durable — a crash may lose it)."""
        self._drain_floating()
        if xid in set(self.db.tm.pending_commit_xids()):
            self.floating.append((xid, ops))
        else:
            self.oracle.apply_many(ops)

    def completed(self) -> ModelFS:
        """The expected visible state of a run that finished without a
        crash: the durable oracle base plus every floating commit (they
        are visible in memory even before their records are forced)."""
        model = self.oracle
        for _, ops in self.floating:
            model = model.preview(ops)
        return model

    def _run_tx(self, step: TxStep) -> None:
        tx = self.fs.begin()
        if not step.abort:
            # From the first op until commit returns, a crash leaves
            # this transaction's fate to the recovered status file.
            self.pending = step.ops
        for op in step.ops:
            apply_fs_op(self.fs, tx, op)
        if step.abort:
            self.fs.abort(tx)
        else:
            self.fs.commit(tx)
            self.pending = None
            self._committed(tx.xid, step.ops)
        self.stack.step_done()

    def _run_vacuum(self, step: VacuumStep) -> None:
        table = step.table or self.fs.chunk_table_of(step.path)
        self.db.vacuum(table, keep_history=step.keep_history)

    def _run_migrate(self, step: MigrateStep) -> None:
        from repro.core.migration import MigrationEngine
        engine = MigrationEngine(self.fs)
        if all(r.name != step.rule_name for r in engine.rules):
            engine.add_rule(step.rule_name, step.qualification, step.target)
        with atomic(self.db) as tx:
            engine.run(tx)


class ClientWorkloadRunner(WorkloadRunner):
    """The lock-step runner with each
    :class:`~repro.testkit.workload.TxStep` one explicit transaction
    through the stack's ``p_*`` client — on a cluster a step that
    touches two subtrees commits through 2PC, and the in-flight step's
    fate at a crash is decided by the prepare records and the
    coordinator's decision log.

    A client does not say which xid its commit got, so nothing may
    float: client workloads run without a group-commit window, and the
    oracle is two-valued at every boundary — the durable base, or the
    base plus the one in-flight step."""

    def __init__(self, stack, workload: Workload) -> None:
        if workload.group_commit_window:
            raise ValueError(f"workload {workload.name!r} floats commits "
                             f"a client runner cannot see")
        super().__init__(stack, workload)

    def _run_tx(self, step: TxStep) -> None:
        client = self.stack.client
        client.p_begin()
        if not step.abort:
            self.pending = step.ops
        for op in step.ops:
            apply_client_op(client, op)
        if step.abort:
            client.p_abort()
        else:
            client.p_commit()
            self.pending = None
            self.oracle.apply_many(step.ops)


#: the stacks a lock-step workload runs on straight through their one
#: (or primary) mount; every other stack but ``scheduled`` runs its
#: transaction steps through its client.
FS_STACKS = ("local", "grouped", "replica")


def make_runner(stack, workload: Workload):
    """The runner that drives ``workload`` on ``stack``: per-client
    sessions through the scheduler (on ``local``, or ``scheduled`` with
    its lease caches), lock-step steps on the mount or the client."""
    if workload.sessions or stack.kind == "scheduled":
        from repro.testkit.concurrent import ConcurrentWorkloadRunner
        return ConcurrentWorkloadRunner(stack, workload)
    if stack.kind in FS_STACKS:
        return WorkloadRunner(stack, workload)
    return ClientWorkloadRunner(stack, workload)


# -- the engine -------------------------------------------------------------

@dataclass
class CrashPointResult:
    """Verdict for one crash point."""

    point: int
    completed: bool          # the run finished before the crash fired
    state_ok: bool
    checker_clean: bool
    ambiguous: bool          # recovered to a state past the durable base
    recovery: dict = field(default_factory=dict)
    detail: str = ""
    #: the stack's own verdicts and counts (``extra_verdicts``).
    extra: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return (self.state_ok and self.checker_clean
                and all(value is not False for value in self.extra.values()))


@dataclass
class ExplorationReport:
    workload: str
    total_writes: int
    labels: dict = field(default_factory=dict)
    results: list = field(default_factory=list)

    @property
    def points_tested(self) -> list[int]:
        return [r.point for r in self.results if not r.completed]

    @property
    def violations(self) -> list:
        return [r for r in self.results if not r.ok]

    def summary(self) -> str:
        labels = "".join(f"{k}={v} " for k, v in self.labels.items())
        return (f"workload={self.workload} {labels}"
                f"boundaries={self.total_writes} "
                f"tested={len(self.points_tested)} "
                f"violations={len(self.violations)}")


class CrashExplorer:
    """Enumerates a workload's write boundaries and crash-tests each,
    on the stack named ``kind`` (``replicas``: the replica stack's
    replica count)."""

    def __init__(self, base_dir: str, workload: Workload, kind: str,
                 torn_append: bool = False, seed: int = 0,
                 replicas: int = 1) -> None:
        self.base_dir = str(base_dir)
        self.workload = workload
        self.kind = kind
        self.torn_append = torn_append
        self.seed = seed
        self.replicas = replicas

    def _start(self, run_name: str, crash_after: int | None):
        """A pristine stack with the workload's setup done, its runner,
        and a controller armed to crash in place of write
        ``crash_after`` (None: count writes, never crash)."""
        stack = open_stack(self.kind, os.path.join(self.base_dir, run_name),
                           setup=self.workload.setup, replicas=self.replicas)
        runner = make_runner(stack, self.workload)
        plan = FaultPlan(crash_after=crash_after,
                         torn_append=self.torn_append, seed=self.seed)
        controller = CrashController(plan)
        stack.node.wrap_devices(lambda dev: FaultyDevice(dev, controller))
        return stack, controller, runner

    def count_write_boundaries(self) -> int:
        """Profiling pass: run to completion, return the number of
        durable writes — each index is one crash point.  Also checks
        that the completed run shows the oracle's state, through the
        stack's read path and underneath."""
        stack, controller, runner = self._start("profile", None)
        try:
            runner.run()
            controller.disarm()
            expected = runner.completed()
            try:
                stack.check(expected)
            except AssertionError as exc:
                raise AssertionError(
                    f"stack {self.kind!r} diverges from the oracle even "
                    f"without a crash: "
                    f"{diff_states(stack.ground_truth(), expected.state())}"
                ) from exc
        finally:
            stack.close()
        self.labels = stack.labels
        #: what each boundary wrote, by index: (kind, device, detail).
        self.write_log = controller.write_log
        return controller.writes

    def run_crash_point(self, point: int) -> CrashPointResult:
        stack, controller, runner = self._start(f"run{point:05d}", point)
        try:
            try:
                runner.run()
            except SimulatedCrashError:
                pass
            controller.disarm()
            if not controller.crashed:
                return CrashPointResult(point, completed=True, state_ok=True,
                                        checker_clean=True, ambiguous=False)
            # Only the recovered stack is closed: the crashed one holds
            # nothing but media.
            crashed, stack = stack, None
            try:
                stack = crashed.crash()
            except Exception as exc:
                # Recovery itself must never fail — "no special log
                # processing is required at crash recovery time".
                return CrashPointResult(point, completed=False,
                                        state_ok=False, checker_clean=False,
                                        ambiguous=False,
                                        detail=f"recovery failed: {exc!r}")
            return self._judge(point, stack, runner)
        finally:
            if stack is not None:
                stack.close()

    def _judge(self, point: int, stack, runner) -> CrashPointResult:
        """Hold the stack recovered from a crash to the oracle, the
        checker and the stack's own verdicts."""
        # a failed verdict unless the checks below say otherwise.
        verdict = functools.partial(CrashPointResult, point, completed=False,
                                    state_ok=False, checker_clean=False,
                                    ambiguous=False)
        try:
            state = stack.ground_truth()
        except ReproError as exc:
            # The recovered store is so damaged it cannot even be
            # read back — the strongest possible violation verdict.
            return verdict(detail=f"harvest raised: {exc!r}")
        # Allowed recovered states: the durable oracle base, plus —
        # because group-commit batches are forced as one append and
        # a crash (or tear) can cut that append anywhere — every
        # prefix of the floating commit list.
        model = runner.oracle
        allowed = [model.state()]
        for _, ops in runner.floating:
            model = model.preview(ops)
            allowed.append(model.state())
        if runner.pending is not None and (self.torn_append
                                           or stack.in_doubt):
            # The in-flight transaction lands on either side: a tear
            # may have left a parseable commit record, or 2PC left it
            # in doubt for recovery to decide.
            allowed.append(model.preview(runner.pending).state())
        state_ok = state in allowed
        ambiguous = state_ok and len(allowed) > 1 and state != allowed[0]
        extra, extra_detail = stack.extra_verdicts()
        corruptions = []
        try:
            for index, fs in enumerate(stack.mounts):
                check = ConsistencyChecker(fs).check_all()
                corruptions += [f"mount {index}: {c}"
                                for c in check.corruptions]
        except ReproError as exc:
            return verdict(state_ok=state_ok, ambiguous=ambiguous,
                           detail=f"checker raised: {exc!r}", extra=extra)
        detail = extra_detail
        if not state_ok:
            detail = diff_states(state, allowed[0])
        elif corruptions and not detail:
            detail = (f"{len(corruptions)} corruptions; "
                      f"first: {corruptions[0]}")
        return verdict(state_ok=state_ok, checker_clean=not corruptions,
                       ambiguous=ambiguous, detail=detail,
                       recovery=stack.recovery_report(), extra=extra)

    def explore(self, max_points: int | None = None) -> ExplorationReport:
        """Crash-test the workload at every write boundary (or, with
        ``max_points``, an evenly spaced deterministic sample that
        always includes the first and last boundaries)."""
        total = self.count_write_boundaries()
        report = ExplorationReport(self.workload.name, total, self.labels)
        for point in select_points(total, max_points):
            report.results.append(self.run_crash_point(point))
        return report


def select_points(total: int, max_points: int | None) -> list[int]:
    """0-based write indices to crash at: all of them, or an evenly
    spaced sample of ``max_points`` including both endpoints."""
    if total <= 0:
        return []
    if max_points is None or max_points >= total:
        return list(range(total))
    if max_points == 1:
        return [0]
    step = (total - 1) / (max_points - 1)
    return sorted({round(i * step) for i in range(max_points)})

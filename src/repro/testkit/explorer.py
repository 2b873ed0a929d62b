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

There is one engine and one :class:`Topology` per kind of deployment:
a fresh instance over crashed media is the whole interface.
:class:`OneServer` and :class:`ShardedServers` live here,
:class:`~repro.testkit.failover.PrimaryWithReplicas` beside the
replication code it drives.  A new deployment is a new ``Topology``
subclass, passed to the explorer (its options bound with
``functools.partial``) — no pass logic.

Everything is seeded and simulated-clock-driven; the same (workload,
seed, k) always reproduces the same crash byte-for-byte.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, field

from repro.core.checker import ConsistencyChecker
from repro.core.filesystem import InversionFS
from repro.db.database import Database
from repro.errors import ReproError, SimulatedCrashError
from repro.testkit.faults import CrashController, FaultPlan, FaultyDevice
from repro.testkit.oracle import (ModelFS, apply_client_op, apply_fs_op,
                                  harvest_state)
from repro.testkit.workload import (FlushStep, MigrateStep, TxStep,
                                    VacuumStep, Workload)


class WorkloadRunner:
    """Executes a workload's steps against one mounted fs, keeping the
    oracle in lock-step: a step's ops reach the model only once its
    commit returned (i.e. its commit record was performed)."""

    def __init__(self, db: Database, fs: InversionFS, workload: Workload) -> None:
        self.db = db
        self.fs = fs
        self.workload = workload
        # setup ops committed before the run was armed: part of the base.
        self.oracle = ModelFS()
        self.oracle.apply_many(workload.setup_ops)
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

    def completed_state(self) -> dict:
        """The expected visible state of a run that finished without a
        crash: the durable oracle base plus every floating commit (they
        are visible in memory even before their records are forced)."""
        model = self.oracle
        for _, ops in self.floating:
            model = model.preview(ops)
        return model.state()

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

    def _run_vacuum(self, step: VacuumStep) -> None:
        table = step.table or self.fs.chunk_table_of(step.path)
        self.db.vacuum(table, keep_history=step.keep_history)

    def _run_migrate(self, step: MigrateStep) -> None:
        from repro.core.migration import MigrationEngine
        engine = MigrationEngine(self.fs)
        if all(r.name != step.rule_name for r in engine.rules):
            engine.add_rule(step.rule_name, step.qualification, step.target)
        tx = self.db.begin()
        try:
            engine.run(tx)
        except BaseException:
            self.db.abort(tx)
            raise
        self.db.commit(tx)


class ShardedWorkloadRunner:
    """Executes a sharded workload's steps through one
    :class:`~repro.shard.client.ShardedInversionClient`, each
    :class:`~repro.testkit.workload.TxStep` as one explicit cluster
    transaction — so a step that touches two subtrees commits through
    2PC, and the in-flight step's fate at a crash is decided by the
    prepare records and the coordinator's decision log.

    Sharded workloads run without a group-commit window (2PC forces
    bypass the batching queue anyway), so nothing ever floats and the
    oracle is strictly two-valued at every boundary: the durable base,
    or the base plus the one in-flight group."""

    floating: tuple = ()

    def __init__(self, cluster, workload: Workload,
                 cached: bool = False) -> None:
        self.cluster = cluster
        self.workload = workload
        self.client = (cluster.client(cache_paths=64, cache_chunks=32)
                       if cached else cluster.client())
        # setup ops committed before the run was armed: part of the base.
        self.oracle = ModelFS()
        self.oracle.apply_many(workload.setup_ops)
        #: ops of the group in flight when a crash fired, or None.
        self.pending: tuple | None = None

    def run(self) -> None:
        for step in self.workload.steps:
            if not isinstance(step, TxStep):
                raise TypeError(
                    f"sharded workloads take TxStep only, got {step!r}")
            self.pending = None
            self._run_tx(step)
        self.pending = None

    def _run_tx(self, step: TxStep) -> None:
        client = self.client
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

    def completed_state(self) -> dict:
        return self.oracle.state()


def _harvest(mounts) -> dict[str, bytes | None]:
    """The committed visible state of a set of mounts, in the model's
    shape.  Each shard's root lists only the top-level entries it owns,
    so the union over a cluster's mounts is disjoint by construction."""
    state: dict[str, bytes | None] = {}
    for fs in mounts:
        state.update(harvest_state(fs))
    return state


def harvest_cluster(cluster) -> dict[str, bytes | None]:
    """The committed visible state of a whole cluster."""
    return _harvest(cluster.fss)


# -- topologies -------------------------------------------------------------

class Topology:
    """One deployment under test, built pristine per run: what the
    engine needs beyond "run the workload".  A subclass's constructor
    builds the deployment under ``run_dir``, runs the workload's setup,
    and leaves the live node — anything with ``wrap_devices``,
    ``simulate_crash`` and ``close`` — in ``self.node``."""

    #: True when the in-flight step may land on the committed side
    #: even without a torn append (its fate was in doubt).
    in_doubt = False
    #: what a report's summary line says about the deployment.
    labels: dict = {}

    def __init__(self, run_dir: str, workload: Workload,
                 cached: bool = False) -> None:
        self.run_dir = run_dir
        self.workload = workload
        #: drive the workload through caching clients — leases keep
        #: them coherent and the bookkeeping does no device I/O, so
        #: crash points and oracle outcomes are identical either way.
        self.cached = cached
        #: the live :class:`Database` / cluster; None while crashed.
        self.node = None

    def wrap_devices(self, wrapper) -> None:
        """Interpose ``wrapper`` over every device (one controller, so
        the deployment's durable writes form one global ordering)."""
        self.node.wrap_devices(wrapper)

    def make_runner(self):
        """A runner exposing ``run()``, ``oracle``, ``pending``,
        ``floating`` and ``completed_state()``."""
        raise NotImplementedError

    def live_states(self):
        """After a crash-free run: settle the deployment and yield
        ``(who, visible state)`` for every member that must agree with
        the oracle."""
        raise NotImplementedError

    def crash(self) -> None:
        """Discard every volatile byte; only the media survive."""
        self.node.simulate_crash()
        self.node = None

    def recover(self) -> list:
        """Bring a fresh instance up over the crashed media; returns
        the recovered mounts whose union is the visible state."""
        raise NotImplementedError

    def recovery_report(self) -> dict:
        raise NotImplementedError

    def extra_verdicts(self, state: dict) -> tuple[dict, str]:
        """Deployment-specific checks on the recovered ``state``: the
        result's ``extra`` (a ``False`` in it fails the point), and a
        detail line when one failed."""
        return {}, ""

    def close(self) -> None:
        if self.node is not None:
            self.node.close()
            self.node = None


class OneServer(Topology):
    """One database, one mount; recovery is ``Database.open`` +
    ``InversionFS.attach``.  Workloads that declare per-client
    ``sessions`` run through the scheduler-driven concurrent runner,
    the rest through the lock-step one (same interface)."""

    def __init__(self, run_dir: str, workload: Workload,
                 cached: bool = False) -> None:
        super().__init__(run_dir, workload, cached)
        self.node = Database.create(run_dir)
        self.fs = InversionFS.mkfs(self.node)
        workload.setup(self.node, self.fs)

    def make_runner(self):
        if self.workload.sessions:
            from repro.testkit.concurrent import ConcurrentWorkloadRunner
            return ConcurrentWorkloadRunner(self.node, self.fs, self.workload,
                                            cached=self.cached)
        return WorkloadRunner(self.node, self.fs, self.workload)

    def live_states(self):
        yield f"workload {self.workload.name!r}", harvest_state(self.fs)

    def recover(self) -> list:
        self.node = Database.open(self.run_dir)
        return [InversionFS.attach(self.node)]

    def recovery_report(self) -> dict:
        return self.node.tm.recovery_report()


class ShardedServers(Topology):
    """A sharded cluster.  One controller is shared by every device
    proxy on every shard, so "crash at write #k" is a cluster-wide
    coordinate that lands, across the sweep, on every prepare force,
    every coordinator decision force, and every phase-two commit
    record, on coordinator and participant shards alike.  Recovery is
    :meth:`~repro.shard.cluster.ShardedCluster.open`, which resolves
    in-doubt prepared transactions against the decision log.

    Both sides of the in-flight group are reachable without tears: a
    crash between the last prepare and the decision force aborts it,
    one between the decision force and the last phase-two record
    commits it through in-doubt recovery.  Half a cross-shard rename —
    either name missing from both shards, or present on both — matches
    neither and is a violation."""

    in_doubt = True

    def __init__(self, run_dir: str, workload: Workload,
                 cached: bool = False) -> None:
        from repro.shard.cluster import ShardedCluster
        if not workload.shards:
            raise ValueError(
                f"workload {workload.name!r} is not sharded "
                f"(shards={workload.shards})")
        super().__init__(run_dir, workload, cached)
        self.node = ShardedCluster.create(
            run_dir, workload.shards, policy="subtree",
            assignments=dict(workload.assignments))
        client = self.node.client()
        for op in workload.setup_ops:
            # auto-commit, one op per transaction, before arming.
            apply_client_op(client, op)
        client.close()

    def make_runner(self):
        return ShardedWorkloadRunner(self.node, self.workload,
                                     cached=self.cached)

    def live_states(self):
        yield (f"sharded workload {self.workload.name!r}",
               harvest_cluster(self.node))

    def recover(self) -> list:
        from repro.shard.cluster import ShardedCluster
        self.node = ShardedCluster.open(self.run_dir)
        return self.node.fss

    def recovery_report(self) -> dict:
        return {
            "shards": [db.tm.recovery_report() for db in self.node.dbs],
            "in_doubt_commits": self.node.stats.in_doubt_commits,
            "in_doubt_aborts": self.node.stats.in_doubt_aborts,
        }


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
    #: the topology's own verdicts and counts (``extra_verdicts``).
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
    on the deployment ``topology(run_dir, workload)`` builds."""

    def __init__(self, base_dir: str, workload: Workload, topology,
                 torn_append: bool = False, seed: int = 0) -> None:
        self.base_dir = str(base_dir)
        self.workload = workload
        self.topology = topology
        self.torn_append = torn_append
        self.seed = seed

    def _start(self, run_name: str, crash_after: int | None):
        """A pristine deployment, armed to crash in place of write
        ``crash_after`` (None: count writes, never crash), and its
        runner."""
        deployment = self.topology(os.path.join(self.base_dir, run_name),
                                   self.workload)
        plan = FaultPlan(crash_after=crash_after,
                         torn_append=self.torn_append, seed=self.seed)
        controller = CrashController(plan)
        deployment.wrap_devices(lambda dev: FaultyDevice(dev, controller))
        return deployment, controller, deployment.make_runner()

    def count_write_boundaries(self) -> int:
        """Profiling pass: run to completion, return the number of
        durable writes — each index is one crash point.  Also sanity-
        checks that the completed run matches the oracle."""
        deployment, controller, runner = self._start("profile", None)
        runner.run()
        controller.disarm()
        expected = runner.completed_state()
        for who, state in deployment.live_states():
            if state != expected:
                raise AssertionError(
                    f"{who} diverges from the oracle even without a "
                    f"crash: {_diff(state, expected)}")
        deployment.close()
        self.labels = deployment.labels
        #: what each boundary wrote, by index: (kind, device, detail).
        self.write_log = controller.write_log
        return controller.writes

    def run_crash_point(self, point: int) -> CrashPointResult:
        deployment, controller, runner = self._start(f"run{point:05d}", point)
        try:
            runner.run()
        except SimulatedCrashError:
            pass
        controller.disarm()
        try:
            if not controller.crashed:
                return CrashPointResult(point, completed=True, state_ok=True,
                                        checker_clean=True, ambiguous=False)
            deployment.crash()
            return self._judge(point, deployment, runner)
        finally:
            deployment.close()

    def _judge(self, point: int, deployment, runner) -> CrashPointResult:
        """Recover the crashed deployment and hold it to the oracle,
        the checker and the topology's own verdicts."""
        # a failed verdict unless the checks below say otherwise.
        verdict = functools.partial(CrashPointResult, point, completed=False,
                                    state_ok=False, checker_clean=False,
                                    ambiguous=False)
        try:
            mounts = deployment.recover()
        except Exception as exc:
            # Recovery itself must never fail — "no special log
            # processing is required at crash recovery time".
            return verdict(detail=f"recovery failed: {exc!r}")
        try:
            state = _harvest(mounts)
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
                                           or deployment.in_doubt):
            # The in-flight transaction lands on either side: a tear
            # may have left a parseable commit record, or 2PC left it
            # in doubt for recovery to decide.
            allowed.append(model.preview(runner.pending).state())
        state_ok = state in allowed
        ambiguous = state_ok and len(allowed) > 1 and state != allowed[0]
        extra, extra_detail = deployment.extra_verdicts(state)
        corruptions = []
        try:
            for index, fs in enumerate(mounts):
                check = ConsistencyChecker(fs).check_all()
                corruptions += [f"mount {index}: {c}"
                                for c in check.corruptions]
        except ReproError as exc:
            return verdict(state_ok=state_ok, ambiguous=ambiguous,
                           detail=f"checker raised: {exc!r}", extra=extra)
        detail = extra_detail
        if not state_ok:
            detail = _diff(state, allowed[0])
        elif corruptions and not detail:
            detail = (f"{len(corruptions)} corruptions; "
                      f"first: {corruptions[0]}")
        return verdict(state_ok=state_ok, checker_clean=not corruptions,
                       ambiguous=ambiguous, detail=detail,
                       recovery=deployment.recovery_report(), extra=extra)

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


def _diff(got: dict, want: dict) -> str:
    missing = sorted(set(want) - set(got))
    extra = sorted(set(got) - set(want))
    changed = sorted(k for k in set(got) & set(want) if got[k] != want[k])
    parts = []
    if missing:
        parts.append(f"missing={missing[:5]}")
    if extra:
        parts.append(f"extra={extra[:5]}")
    if changed:
        parts.append(f"changed={changed[:5]}")
    return " ".join(parts) or "states differ"

"""Every deployment, built one way.

The ``p_*`` protocol is declared once (:mod:`repro.core.protocol`) and
carried by several deployments.  :func:`open_stack` builds any of them
behind one small interface, so the VFS suite (``tests/vfs``), the
executable spec (``tests/integration/test_spec_machine.py``) and the
crash explorer (:mod:`repro.testkit.explorer`) run over all of them:

``client``
    the ``p_*`` surface operations are applied through.
``prefix``
    the directory a test that wants one subtree should work under.
``apply(op, model, atomic=False)``
    apply one :class:`~repro.testkit.oracle.ModelFS` op; ``model`` is
    the state *before* it; ``atomic``: as one transaction of its own.
``check(model)``
    assert the stack shows exactly ``model.state()`` — through its own
    read path (so a stale cache, a lost buffered write or a lagging
    replica is a failure) and in the committed state underneath.
``node``
    the :class:`Database` or cluster underneath — anything with
    ``wrap_devices`` and ``simulate_crash`` — for tests that arm faults.
``mounts`` / ``dbs()``
    every file system the stack serves, and the databases under them.
``crash()``
    power fails under ``node``; returns a fresh stack of the same kind
    over the media it left: reopened, or on ``replica`` the most
    caught-up replica promoted (and a new one seeded from it).
``in_doubt`` / ``labels`` / ``recovery_report()`` / ``extra_verdicts()``
    what the crash explorer needs to know beyond that: whether a
    transaction in flight at a crash may land committed without a torn
    append (2PC), what its summary line says, what recovery did, and
    the deployment's own verdicts on the recovery (a ``False`` among
    them fails the crash point).
"""

from __future__ import annotations

import os

from repro.cache import session_cache_factory
from repro.core.client import RemoteInversionClient
from repro.core.constants import O_RDONLY, O_RDWR
from repro.core.filesystem import InversionFS
from repro.core.library import InversionClient
from repro.core.server import InversionServer
from repro.db.database import Database
from repro.db.vacuum import RENAME_JOURNAL_TAG
from repro.errors import InversionError
from repro.replica import ReplicatedCluster
from repro.sched import Call, MultiUserScheduler, Ref, Txn
from repro.shard import ShardedCluster
from repro.sim.clock import SimClock
from repro.sim.network import ETHERNET_10MBIT, NetworkModel
from repro.testkit.oracle import apply_client_op, diff_states, harvest_state

#: the capacities of every leased stack's client cache.
_CACHE = {"cache_paths": 64, "cache_chunks": 32}
#: remote-client batch sizes per single-server stack, and whether its
#: client is leased (a cache of :data:`_CACHE`'s capacities).
_REMOTE = {
    "remote": ({}, False),
    "cached": ({}, True),
    "batched": ({"read_batch_chunks": 4, "write_batch_chunks": 4}, False),
    "cached_batched": ({"read_batch_chunks": 4, "write_batch_chunks": 4},
                       True),
}
#: shard count, partitioning and client options per sharded stack.
#: ``sharded`` pins two subtrees to two shards (work under ``/a`` stays on
#: one), and ``sharded_cached`` is it with a leased client; the hashed
#: ones spread top-level names, so a script crosses shards freely.
_SUBTREES = {"policy": "subtree", "assignments": {"a": 0, "b": 1}}
_SHARDED = {
    "sharded": (2, _SUBTREES, {}),
    "sharded_cached": (2, _SUBTREES, _CACHE),
    "sharded1": (1, {}, {}),
    "sharded3": (3, {}, {}),
}

#: ``grouped`` is ``local`` under a 0.5 s group-commit window: commits
#: float, and groups close at deadlines mid-run.
STACKS = ("local", "grouped", *_REMOTE, *_SHARDED, "scheduled", "replica")
#: transaction steps between the replica stack's sync rounds under the
#: crash explorer, so crashes land while its replicas lag by varying
#: amounts.
SYNC_EVERY = 3


def observe(client) -> dict:
    """The visible state as ``client`` reads it, in the model's shape:
    path → contents, or None for a directory."""
    state: dict = {}

    def walk(directory: str) -> None:
        for name in client.p_readdir(directory):
            path = directory.rstrip("/") + "/" + name
            assert path.count("/") < 32, f"a directory cycle at {path}"
            att = client.p_stat(path)
            if att.type == "directory":
                state[path] = None
                walk(path)
            else:
                fd = client.p_open(path, O_RDONLY)
                state[path] = client.p_read(fd, att.size + 1)
                client.p_close(fd)

    walk("/")
    return state


class Stack:
    """A stack whose operations take effect as they are applied."""

    prefix = ""
    #: run every op as one transaction even outside ``p_begin``.  A
    #: write is up to three auto-commits (create, write, close); under a
    #: window a group may close between them, and a crash would keep a
    #: state no sequence of whole ops reaches.
    atomic = False
    #: a transaction in flight at a crash may come back committed even
    #: without a torn append: its fate was in doubt for recovery to decide.
    in_doubt = False
    #: what a crash report's summary line says about the deployment.
    labels: dict = {}

    def __init__(self, kind: str, workdir: str, client, mounts: list,
                 node, closers: list) -> None:
        self.kind, self.workdir, self.client = kind, workdir, client
        self.mounts, self.node, self._closers = mounts, node, closers

    def apply(self, op: tuple, model, atomic: bool = False) -> None:
        if not atomic:
            apply_client_op(self.client, op)
            return
        self.client.p_begin()
        try:
            apply_client_op(self.client, op)
        except InversionError:
            self.client.p_abort()
            raise
        self.client.p_commit()

    def reader(self):
        """The client the state is observed through."""
        return self.client

    def ground_truth(self) -> dict:
        """The committed state, read off the mounts themselves."""
        state: dict = {}
        for fs in self.mounts:
            state.update(harvest_state(fs))
        return state

    def check(self, model) -> None:
        assert observe(self.reader()) == model.state()
        assert self.ground_truth() == model.state()

    def dbs(self) -> list:
        return [fs.db for fs in self.mounts]

    def pending(self) -> list[int]:
        """xids committed in memory whose records still wait in a group."""
        return [x for db in self.dbs() for x in db.tm.pending_commit_xids()]

    def recovery_report(self) -> dict:
        """What recovery did when this stack came up over crashed media."""
        return self.node.tm.recovery_report()

    def extra_verdicts(self) -> tuple[dict, str]:
        """The deployment's own verdicts on the recovery that brought
        this stack up, and a detail line when one of them failed."""
        return {}, ""

    def step_done(self) -> None:
        """A crash-explorer runner finished one transaction step."""

    def crash(self) -> "Stack":
        self.node.simulate_crash()
        return open_stack(self.kind, self.workdir, recover=True)

    def close(self) -> None:
        for close in self._closers:
            close()


class ShardedStack(Stack):
    """A sharded cluster.  Both sides of an in-flight group are
    reachable without tears: a crash between the last prepare and the
    decision force aborts it, one between the decision force and the
    last phase-two record commits it through in-doubt recovery."""

    in_doubt = True

    def recovery_report(self) -> dict:
        return {
            "shards": [db.tm.recovery_report() for db in self.node.dbs],
            "in_doubt_commits": self.node.stats.in_doubt_commits,
            "in_doubt_aborts": self.node.stats.in_doubt_aborts,
        }


class ReplicaStack(Stack):
    """Writes go to the primary; the state is read back on a replica
    that has been synced since.  A crash takes the primary: the most
    caught-up replica is promoted, and a new one is seeded from it.

    Failover is crash recovery replayed on another machine: the feed
    records only writes that reached the media (a fault proxy wraps
    outside its tap), so the promoted replica must show what a local
    restart of the dead primary would, and every surviving follower
    must be a promotable copy of it.  :meth:`crash` judges both before
    it seeds the new replica (:meth:`extra_verdicts`)."""

    def __init__(self, kind: str, workdir: str, cluster=None, setup=None,
                 replicas: int = 1, verdicts=({}, "")) -> None:
        if cluster is None:
            cluster = ReplicatedCluster.create(workdir, 0)
            if setup is not None:
                setup(cluster.primary_db, cluster.primary_fs)
            for _ in range(replicas):
                cluster.add_replica()
        self.cluster = cluster
        self.labels = {"replicas": len(cluster.replicas)}
        self._verdicts = verdicts
        self._steps = 0
        writer = cluster.writer_client()
        self._reader = cluster.reader_client()
        super().__init__(kind, workdir, writer,
                         [cluster.primary_fs,
                          *(r.fs for r in cluster.replicas)],
                         cluster.primary_db,
                         [writer.close, self._reader.close, cluster.close])

    def reader(self):
        self.node.tm.flush_commits()
        self.cluster.sync_all()
        return self._reader

    def ground_truth(self) -> dict:
        return harvest_state(self.cluster.primary_fs)

    def check(self, model) -> None:
        super().check(model)
        for replica in self.cluster.replicas:
            assert harvest_state(replica.fs) == model.state(), \
                replica.replica_id

    def step_done(self) -> None:
        self._steps += 1
        if self._steps % SYNC_EVERY == 0:
            self.cluster.sync_all()

    def extra_verdicts(self) -> tuple[dict, str]:
        return self._verdicts

    def crash(self) -> "Stack":
        self.node.simulate_crash()
        victim = self.cluster.max_horizon_replica()
        applied = victim.cursor
        self.cluster.promote(victim)
        verdicts = self._judge_failover(victim.cursor - applied)
        self.cluster.add_replica()
        return ReplicaStack(self.kind, self.workdir, self.cluster,
                            verdicts=verdicts)

    def _judge_failover(self, drained: int) -> tuple[dict, str]:
        """``matches_local_recovery``: the promoted state is what the
        dead primary's media recover to locally — local recovery keeps
        every durable commit, so nothing durable was lost;
        ``followers_converged``: every surviving follower, synced from
        the new feed, shows that state over the same media;
        ``drained_entries``: what promotion drained from the old feed."""
        primary = self.cluster.primary_db
        state = harvest_state(self.cluster.primary_fs)
        detail = ""
        try:
            local_db = Database.open(self.node.path)
            local = harvest_state(InversionFS.attach(local_db))
            local_db.close()
            matches = state == local
            if not matches:
                detail = "promoted != local recovery: " + diff_states(state,
                                                                      local)
        except Exception as exc:
            matches = False
            detail = f"local recovery failed: {exc!r}"
        converged = True
        for follower in self.cluster.replicas:
            try:
                follower.sync()
                same = (harvest_state(follower.fs) == state
                        and _media(follower.db) == _media(primary))
                problem = "" if same else "diverged after failover"
            except Exception as exc:
                problem = f"resume failed: {exc!r}"
            if problem:
                converged = False
                detail = detail or f"{follower.replica_id} {problem}"
        return {"matches_local_recovery": matches,
                "followers_converged": converged,
                "drained_entries": drained}, detail


def _media(db) -> tuple:
    """What a later promotion of this node would start from, beyond
    file contents: every device's relations and the rename journal."""
    switch = db.switch
    root = switch.get(switch.default_name)
    return ({name: sorted(switch.get(name).list_relations())
             for name in switch.names()},
            root.read_meta(RENAME_JOURNAL_TAG) or b"")


class ScheduledStack(Stack):
    """One scheduler session per call, with a lease cache in front of
    it.  A session is a program, not a live client, so an op is compiled
    into ``Call`` items (the model says whether a write opens or
    creates) between probes of the paths it touches, before and after —
    the later ones read what its own write left in the session's cache
    — and runs at once.  :meth:`check` probes the whole model twice
    over (the second pass is what the cache serves)."""

    def __init__(self, kind: str, workdir: str, fs: InversionFS) -> None:
        super().__init__(kind, workdir, None, [fs], fs.db, [fs.db.close])
        self.server = InversionServer(fs)
        self.factory = session_cache_factory()
        self.program: list = []
        self.expect: dict[int, object] = {}

    def _call(self, method: str, *args, expect=None, **kwargs) -> Ref:
        # A Txn's items take one ordinal each, like top-level Calls.
        ordinal = sum(len(item.items) if isinstance(item, Txn) else 1
                      for item in self.program)
        self.program.append(Call(method, *args, **kwargs))
        if expect is not None:
            self.expect[ordinal] = expect
        return Ref(ordinal)

    def _probe(self, path: str, content) -> None:
        self._call("p_stat", path)      # the chunk tier fills under an att
        if content is None:
            return
        fd = self._call("p_open", path, O_RDONLY)
        self._call("p_read", fd, len(content) + 1, expect=content)
        self._call("p_close", fd)

    def _probe_paths(self, op: tuple, model) -> None:
        for path in op[1:]:
            if isinstance(path, str) and model.exists(path):
                self._probe(path, model.entries[path])

    def apply(self, op: tuple, model, atomic: bool = False) -> None:
        self._probe_paths(op, model)
        start = len(self.program)
        if op[0] != "write":
            # One request each: drive the recorder like a client.
            apply_client_op(self, op)
        else:
            _, path, data = op
            fd = (self._call("p_open", path, O_RDWR) if model.is_file(path)
                  else self._call("p_creat", path))
            self._call("p_write", fd, data)
            self._call("p_close", fd)
        if atomic:
            self.program[start:] = [Txn(self.program[start:])]
        if model.why_invalid(op) is None:
            self._probe_paths(op, model.preview([op]))
        self._run()

    def __getattr__(self, verb: str):
        if not verb.startswith("p_"):
            raise AttributeError(verb)
        return lambda *args: self._call(verb, *args)

    def _run(self) -> None:
        program, expect, self.program, self.expect = (
            self.program, self.expect, [], {})
        sched = MultiUserScheduler(self.server, seed=0,
                                   cache_factory=self.factory)
        try:
            session = sched.add_session(program)
            sched.run(strict=True)
        finally:
            sched.close()
        assert session.state == "done"
        assert {n: session.values[n] for n in expect} == expect

    def check(self, model) -> None:
        for directory in ["/"] + [p for p in model.entries
                                  if model.is_dir(p)]:
            names = sorted(p.rsplit("/", 1)[1]
                           for p in model.children(directory))
            self._call("p_readdir", directory, expect=names)
        for _ in range(2):
            for path, content in model.entries.items():
                self._probe(path, content)
        self._run()
        assert self.ground_truth() == model.state()


def open_stack(kind: str, workdir: str, recover: bool = False,
               setup=None, replicas: int = 1) -> Stack:
    """Build the stack named ``kind`` (one of :data:`STACKS`) under
    ``workdir`` — or, with ``recover``, bring it up again over the media
    a crash left there.  ``setup(db, fs)`` runs on every fresh database
    right after mkfs: on each shard of a cluster, and on the primary
    before any of the ``replicas`` is seeded.  The caller closes it."""
    if kind == "replica":
        return ReplicaStack(kind, workdir, setup=setup, replicas=replicas)
    if kind in _SHARDED:
        nshards, partitioning, options = _SHARDED[kind]
        if recover:
            cluster = ShardedCluster.open(workdir)
        else:
            cluster = ShardedCluster.create(workdir, nshards, **partitioning)
            if setup is not None:
                for fs in cluster.fss:
                    setup(fs.db, fs)
        client = cluster.client(**options)
        stack = ShardedStack(kind, workdir, client, cluster.fss, cluster,
                             [client.close, cluster.close])
        if partitioning is _SUBTREES:
            stack.prefix = "/a"
            if not recover:
                client.p_mkdir("/a")
                client.p_mkdir("/b")
        return stack
    clock = SimClock()
    window = 0.5 if kind == "grouped" else 0.0
    if recover:
        db = Database.open(workdir, clock=clock, group_commit_window=window)
        fs = InversionFS.attach(db)
    else:
        db = Database.create(workdir, clock=clock)
        fs = InversionFS.mkfs(db)
        db.tm.group_commit_window = window   # after mkfs: its commits forced
        if setup is not None:
            setup(db, fs)
    if kind == "scheduled":
        return ScheduledStack(kind, workdir, fs)
    if kind in ("local", "grouped"):
        stack = Stack(kind, workdir, InversionClient(fs), [fs], db,
                      [db.close])
        stack.atomic = kind == "grouped"
        return stack
    network = NetworkModel(clock=clock, params=ETHERNET_10MBIT)
    batching, leased = _REMOTE[kind]
    factory = session_cache_factory(*_CACHE.values()) if leased else None
    client = RemoteInversionClient(InversionServer(fs), network,
                                   cache_factory=factory, **batching)
    return Stack(kind, workdir, client, [fs], db, [client.close, db.close])

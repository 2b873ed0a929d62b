"""Every client stack, built one way.

The ``p_*`` protocol is declared once (:mod:`repro.core.protocol`) and
carried by several deployments.  :func:`open_stack` builds any of them
behind one small interface, so the VFS suite (``tests/vfs``) and the
conformance suite (``tests/integration/test_stack_conformance.py``)
run the same assertions over all of them:

``client``
    the ``p_*`` surface operations are applied through.
``prefix``
    the directory a test that wants one subtree should work under.
``apply(op, model)``
    apply one :class:`~repro.testkit.oracle.ModelFS` op; ``model`` is
    the state *before* it.
``check(model)``
    assert the stack shows exactly ``model.state()`` — through its own
    read path (so a stale cache, a lost buffered write or a lagging
    replica is a failure) and in the committed state underneath.
``node``
    the :class:`Database` or cluster underneath — anything with
    ``wrap_devices`` and ``simulate_crash`` — for tests that arm faults.
"""

from __future__ import annotations

from repro.cache import session_cache_factory
from repro.core.client import RemoteInversionClient
from repro.core.constants import O_RDONLY, O_RDWR
from repro.core.filesystem import InversionFS
from repro.core.library import InversionClient
from repro.core.server import InversionServer
from repro.db.database import Database
from repro.replica import ReplicatedCluster
from repro.sched import Call, MultiUserScheduler, Ref
from repro.shard import ShardedCluster
from repro.sim.clock import SimClock
from repro.sim.network import ETHERNET_10MBIT, NetworkModel
from repro.testkit.explorer import harvest_cluster
from repro.testkit.oracle import apply_client_op, harvest_state

#: remote-client options per single-server stack.
_REMOTE = {
    "remote": {},
    "cached": {"cache_paths": 64, "cache_chunks": 32},
    "batched": {"read_batch_chunks": 4, "write_batch_chunks": 4},
}
#: shard count and partitioning per sharded stack.  ``sharded`` pins two
#: subtrees to two shards (work under ``/a`` stays on one); the hashed
#: ones spread top-level names, so a script crosses shards freely.
_SHARDED = {
    "sharded": (2, {"policy": "subtree", "assignments": {"a": 0, "b": 1}}),
    "sharded1": (1, {}),
    "sharded3": (3, {}),
}

STACKS = ("local", *_REMOTE, *_SHARDED, "scheduled", "replica")


def observe(client) -> dict:
    """The visible state as ``client`` reads it, in the model's shape:
    path → contents, or None for a directory."""
    state: dict = {}

    def walk(directory: str) -> None:
        for name in client.p_readdir(directory):
            path = directory.rstrip("/") + "/" + name
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

    def __init__(self, client, ground_truth, closers, node=None) -> None:
        self.client = client
        self._ground_truth = ground_truth
        self._closers = closers
        self.node = node

    def apply(self, op: tuple, model) -> None:
        apply_client_op(self.client, op)

    def reader(self):
        """The client the state is observed through."""
        return self.client

    def check(self, model) -> None:
        assert observe(self.reader()) == model.state()
        assert self._ground_truth() == model.state()

    def close(self) -> None:
        for close in self._closers:
            close()


class ReplicaStack(Stack):
    """Writes go to the primary; the state is read back on a replica
    that has been synced since."""

    def __init__(self, workdir: str) -> None:
        self.cluster = ReplicatedCluster.create(workdir, 1)
        writer = self.cluster.writer_client()
        self._reader = self.cluster.reader_client()
        super().__init__(writer,
                         lambda: harvest_state(self.cluster.primary_fs),
                         [writer.close, self._reader.close,
                          self.cluster.close])

    def reader(self):
        self.cluster.sync_all()
        return self._reader


class ScheduledStack(Stack):
    """One scheduler session with a lease cache in front of it.  A
    session is a program, not a live client, so ops are compiled into
    ``Call`` items (the model says whether a write opens or creates)
    and every op is followed by a probe of the path it touched; the
    program runs at :meth:`check`, which also probes the whole model
    twice over (the second pass is what the cache serves)."""

    client = None

    def __init__(self, workdir: str) -> None:
        self.db = Database.create(workdir, clock=SimClock())
        self.fs = InversionFS.mkfs(self.db)
        self.server = InversionServer(self.fs)
        self.factory = session_cache_factory()
        self.program: list = []
        self.expect: dict[int, object] = {}
        self._ground_truth = lambda: harvest_state(self.fs)
        self._closers = [self.db.close]

    def _call(self, method: str, *args, expect=None, **kwargs) -> Ref:
        self.program.append(Call(method, *args, **kwargs))
        ordinal = len(self.program) - 1
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

    def apply(self, op: tuple, model) -> None:
        if op[0] != "write":
            # One request each: drive the recorder like a client.
            apply_client_op(self, op)
        else:
            _, path, data = op
            fd = (self._call("p_open", path, O_RDWR) if model.is_file(path)
                  else self._call("p_creat", path))
            self._call("p_write", fd, data)
            self._call("p_close", fd)
        after = model.preview([op])
        for path in op[1:]:
            if isinstance(path, str) and after.exists(path):
                self._probe(path, after.entries[path])

    def __getattr__(self, verb: str):
        if not verb.startswith("p_"):
            raise AttributeError(verb)
        return lambda *args: self._call(verb, *args)

    def check(self, model) -> None:
        for directory in ["/"] + [p for p in model.entries
                                  if model.is_dir(p)]:
            names = sorted(p.rsplit("/", 1)[1]
                           for p in model.children(directory))
            self._call("p_readdir", directory, expect=names)
        for _ in range(2):
            for path, content in model.entries.items():
                self._probe(path, content)
        sched = MultiUserScheduler(self.server, seed=0,
                                   cache_factory=self.factory)
        try:
            session = sched.add_session(self.program)
            sched.run(strict=True)
        finally:
            sched.close()
        assert session.state == "done"
        got = {n: session.values[n] for n in self.expect}
        assert got == self.expect
        self.program, self.expect = [], {}
        assert self._ground_truth() == model.state()


def open_stack(kind: str, workdir: str) -> Stack:
    """Build the stack named ``kind`` (one of :data:`STACKS`) under
    ``workdir``; the caller closes it."""
    if kind == "replica":
        return ReplicaStack(workdir)
    if kind == "scheduled":
        return ScheduledStack(workdir)
    if kind in _SHARDED:
        nshards, partitioning = _SHARDED[kind]
        cluster = ShardedCluster.create(workdir, nshards, **partitioning)
        client = cluster.client()
        stack = Stack(client, lambda: harvest_cluster(cluster),
                      [client.close, cluster.close], node=cluster)
        if kind == "sharded":
            client.p_mkdir("/a")
            client.p_mkdir("/b")
            stack.prefix = "/a"
        return stack
    clock = SimClock()
    db = Database.create(workdir, clock=clock)
    fs = InversionFS.mkfs(db)
    if kind == "local":
        return Stack(InversionClient(fs), lambda: harvest_state(fs),
                     [db.close], node=db)
    network = NetworkModel(clock=clock, params=ETHERNET_10MBIT)
    client = RemoteInversionClient(InversionServer(fs), network,
                                   **_REMOTE[kind])
    return Stack(client, lambda: harvest_state(fs), [client.close, db.close],
                 node=db)

"""One executable spec: every client stack against ModelFS, as a state
machine (after Yggdrasil's: an invariant, and a crash that returns a
fresh instance over the damaged disk).

Rules: one per writing verb of ``core.protocol.VERBS``, drawing valid and
invalid ops alike — what the model refuses must raise an InversionError
and leave the transaction usable; ``begin`` / ``commit`` / ``abort``;
``flush`` on ``grouped``; and ``crash``, one op armed to fail at durable
write *k*, after which the state must be one ``CrashExplorer._judge``
allows: the durable base, a prefix of the floating commits, or the op in
flight once a status force landed.  Invariants, whenever no transaction
is open: the stack reads back the model, ``ConsistencyChecker`` is clean
on every mount, no lock is held.  ``-m torture`` runs it at length."""

import shutil
import tempfile

import pytest
from hypothesis import HealthCheck, note, settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, precondition, rule,
                                 run_state_machine_as_test)

from repro.core.checker import ConsistencyChecker
from repro.core.constants import CHUNK_SIZE
from repro.core.protocol import REMOTE, VERBS, WRITE
from repro.db.transactions import STATUS_TAG
from repro.errors import InversionError, SimulatedCrashError
from repro.testkit import CrashController, FaultPlan, FaultyDevice
from repro.testkit.oracle import ModelFS
from repro.testkit.stacks import STACKS, open_stack
from repro.testkit.workload import payload

TOP = st.sampled_from(["a", "b", "c", "d"])
NAMES = st.sampled_from(["x", "y", "sub"])
#: empty to a few chunks; chunk multiples are what concat accepts.
SIZES = st.one_of(st.integers(0, 3000),
                  st.integers(CHUNK_SIZE - 2, 3 * CHUNK_SIZE),
                  st.sampled_from([CHUNK_SIZE, 2 * CHUNK_SIZE]))
ANYWHERE = st.tuples(TOP, st.lists(NAMES, max_size=2)).map(
    lambda parts: "/" + "/".join([parts[0], *parts[1]]))

#: writing verb → the model op it is: a source is mostly an existing
#: entry, a target mostly a name in an existing directory.
OPS = {
    "p_mkdir": lambda m, d: ("mkdir", m.new(d)),
    "p_write": lambda m, d: m.write(d),
    "p_unlink": lambda m, d: ("unlink", m.old(d)),
    "p_rmdir": lambda m, d: ("rmdir", m.old(d, files=False)),
    "p_rename": lambda m, d: m.rename(d),
    "p_reflink": lambda m, d: ("reflink", m.old(d), m.new(d)),
    "p_concat": lambda m, d: ("concat", tuple(
        m.old(d) for _ in range(d.draw(st.integers(1, 3)))), m.new(d)),
    "p_slice": lambda m, d: ("slice", m.old(d), d.draw(st.sampled_from(
        [0, CHUNK_SIZE, 100])), d.draw(SIZES), m.new(d)),
    "p_truncate": lambda m, d: ("truncate", m.old(d),
                                d.draw(st.one_of(SIZES, st.just(-1)))),
}


def test_every_writing_verb_has_a_rule():
    writing = {v.name for v in VERBS.values()
               if v.kind == WRITE and v.reach >= REMOTE}
    assert writing - {"p_creat", "p_query"} == set(OPS)


class SpecMachine(RuleBasedStateMachine):
    def __init__(self, kind: str) -> None:
        super().__init__()
        self.root = tempfile.mkdtemp(prefix=f"spec-{kind}-")
        self.stack = open_stack(kind, self.root + "/stack")
        #: the committed state; the open transaction's, or None.
        self.model = ModelFS(self.stack.ground_truth())
        self.scratch: ModelFS | None = None
        #: what a crash may not lose, then (xid, state) per commit whose
        #: record still waits in an open group.
        self.durable = self.model.copy()
        self.floating: list[tuple[int, ModelFS]] = []

    def teardown(self) -> None:
        try:
            self.stack.close()
        finally:
            shutil.rmtree(self.root, ignore_errors=True)

    # -- drawing and sending ops -----------------------------------------

    def old(self, data, files: bool | None = True) -> str:
        """Mostly an existing file (directory, ``files=False``; either,
        None), sometimes any entry, or any path at all."""
        view = self.scratch or self.model
        entries = sorted(view.entries)
        fitting = [p for p in entries
                   if files is None or view.is_file(p) == files]
        pick = data.draw(st.integers(0, 7))
        pool = fitting if pick < 6 and fitting else entries if pick < 7 else []
        return data.draw(st.sampled_from(pool) if pool else ANYWHERE)

    def new(self, data) -> str:
        view = self.scratch or self.model
        if data.draw(st.integers(0, 3)) == 3:
            return data.draw(ANYWHERE)
        parent = data.draw(st.sampled_from(
            ["", *(p for p in sorted(view.entries) if view.is_dir(p))]))
        return parent + "/" + data.draw(NAMES if parent else TOP)

    def write(self, data) -> tuple:
        path = self.old(data) if data.draw(st.booleans()) else self.new(data)
        return ("write", path, payload(data.draw(st.integers(0, 7)), path,
                                       data.draw(SIZES)))

    def rename(self, data) -> tuple:
        old = self.old(data, files=None)
        below = data.draw(st.integers(0, 3)) == 3
        return ("rename", old,
                old + "/" + data.draw(NAMES) if below else self.new(data))

    def run_op(self, op: tuple, atomic: bool) -> bool:
        """Apply ``op``; True if it took effect, as the model says it
        must: a refusal is an InversionError, and the transaction goes
        on."""
        view = self.scratch or self.model
        reason = view.why_invalid(op)
        shown = tuple(len(a) if isinstance(a, bytes) else a for a in op[1:])
        note(f"{op[0]}{shown}{' in a transaction' if self.scratch else ''}"
             f": {reason or 'valid'}")
        try:
            self.stack.apply(op, view, atomic)
        except InversionError as exc:
            assert reason is not None, f"{op[:2]} refused: {exc!r}"
            return False
        assert reason is None, f"{op[:2]} accepted, but {reason}"
        view.apply(op)
        return True

    def send(self, verb: str, data) -> None:
        before = self.stack.pending()
        if (self.run_op(OPS[verb](self, data),
                        self.scratch is None and self.stack.atomic)
                and self.scratch is None):
            self.committed(before)

    def committed(self, before: list) -> None:
        """A commit returned (``before``: the records waiting as it
        began): fold in every floating commit whose group has closed;
        the new state floats while its own record waits."""
        pending = self.stack.pending()
        while self.floating and self.floating[0][0] not in pending:
            self.durable = self.floating.pop(0)[1]
        new = [xid for xid in pending if xid not in before]
        if new:
            self.floating.append((new[-1], self.model.copy()))
        elif not self.floating:
            self.durable = self.model.copy()

    # -- rules -----------------------------------------------------------

    @initialize(data=st.data())
    def populate(self, data):
        for verb in data.draw(st.lists(st.sampled_from(
                ["p_write", "p_mkdir", "p_write"]), min_size=2, max_size=6)):
            self.send(verb, data)

    @precondition(lambda self: self.scratch is None
                  and self.stack.client is not None)
    @rule()
    def begin(self):
        self.stack.client.p_begin()
        self.scratch = self.model.copy()

    @precondition(lambda self: self.scratch is not None)
    @rule()
    def commit(self):
        before = self.stack.pending()
        self.stack.client.p_commit()
        self.model, self.scratch = self.scratch, None
        self.committed(before)

    @precondition(lambda self: self.scratch is not None)
    @rule()
    def abort(self):
        self.stack.client.p_abort()
        self.scratch = None

    @precondition(lambda self: self.stack.kind == "grouped")
    @rule()
    def flush(self):
        self.stack.node.tm.flush_commits()
        self.committed(self.stack.pending())
        assert not self.floating

    @rule(data=st.data(), k=st.integers(0, 24))
    def crash(self, data, k):
        """One op with the devices armed to fail in place of durable
        write ``k`` (a power cut just after it, if it makes fewer); the
        stack comes back over what reached the media."""
        op = OPS[data.draw(st.sampled_from(sorted(OPS)))](self, data)
        self.committed(self.stack.pending())
        ctrl = CrashController(FaultPlan(crash_after=k))
        self.stack.node.wrap_devices(lambda dev: FaultyDevice(dev, ctrl))
        before, in_tx = self.stack.pending(), self.scratch is not None
        try:
            if self.run_op(op, atomic=not in_tx) and not in_tx:
                self.committed(before)
        except SimulatedCrashError:
            pass
        finally:
            ctrl.disarm()
        allowed = [self.durable] + [state for _, state in self.floating]
        forced = any(kind == "append" and tag == STATUS_TAG
                     for kind, _device, tag in ctrl.write_log)
        if (ctrl.crashed and forced and not in_tx
                and self.model.why_invalid(op) is None):
            allowed.append(allowed[-1].preview([op]))
        self.stack = self.stack.crash()
        verdicts, detail = self.stack.extra_verdicts()
        assert all(v is not False for v in verdicts.values()), detail
        state = self.stack.ground_truth()
        assert state in [model.state() for model in allowed], (
            f"{op[:2]} crashed at write {k}: {sorted(state)}")
        self.model, self.scratch = ModelFS(state), None
        self.durable, self.floating = self.model.copy(), []

    # -- what always holds -----------------------------------------------

    @precondition(lambda self: self.scratch is None)
    @invariant()
    def shows_the_model(self):
        self.stack.check(self.model)

    @precondition(lambda self: self.scratch is None)
    @invariant()
    def storage_is_consistent(self):
        for fs in self.stack.mounts:
            corruptions = ConsistencyChecker(fs).check_all().corruptions
            assert not corruptions, corruptions[:3]

    @precondition(lambda self: self.scratch is None)
    @invariant()
    def no_lock_outlives_its_transaction(self):
        for db in self.stack.dbs():
            assert db.locks._locks == {}, db.locks._locks


def _verb_rule(verb: str):
    def send_verb(self, data):
        self.send(verb, data)
    send_verb.__name__ = send_verb.__qualname__ = verb
    return rule(data=st.data())(send_verb)


for _verb in OPS:
    setattr(SpecMachine, _verb, _verb_rule(_verb))

BUDGET = settings(max_examples=6, stateful_step_count=25, deadline=None,
                  derandomize=True,
                  suppress_health_check=[HealthCheck.too_slow,
                                         HealthCheck.filter_too_much])


@pytest.mark.parametrize("kind", STACKS)
def test_stack_meets_the_spec(kind):
    run_state_machine_as_test(lambda: SpecMachine(kind), settings=BUDGET)


@pytest.mark.torture
@pytest.mark.parametrize("kind", STACKS)
def test_stack_meets_the_spec_at_length(kind):
    run_state_machine_as_test(lambda: SpecMachine(kind),
                              settings=settings(BUDGET, max_examples=300))

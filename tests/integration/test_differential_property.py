"""Property-based differential testing: InversionFS vs the ModelFS
oracle under random transaction scripts, on the local file system.

Each example builds a fresh database and drives both the real file
system and the model through the same transactions (aborted ones are
applied to a scratch copy that is discarded).  Ops the model calls
invalid are sent too: the file system must refuse them with an
``InversionError`` and leave the transaction usable.  The real visible
state must equal the model live and after a crash + reopen, which by
the no-overwrite design keeps exactly the committed state — under
group commit, exactly the commits that were forced.

The same contract, with crashes in the middle of a run and on every
client stack, is the executable spec's
(``tests/integration/test_spec_machine.py``).
"""

import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
import pytest

from repro.core.filesystem import InversionFS
from repro.db.database import Database
from repro.errors import InversionError
from repro.testkit.oracle import ModelFS, apply_fs_op, harvest_state

NAMES = ("a", "b", "c", "dir")

paths = st.lists(st.sampled_from(NAMES), min_size=1, max_size=3).map(
    lambda parts: "/" + "/".join(parts))
payloads = st.binary(min_size=0, max_size=300)

ops = st.one_of(
    st.tuples(st.just("mkdir"), paths),
    st.tuples(st.just("write"), paths, payloads),
    st.tuples(st.just("unlink"), paths),
    st.tuples(st.just("rmdir"), paths),
    st.tuples(st.just("rename"), paths, paths),
)

#: a script: each entry is one transaction — (ops, abort?).
scripts = st.lists(
    st.tuples(st.lists(ops, min_size=1, max_size=4), st.booleans()),
    min_size=1, max_size=6)

SETTINGS = settings(max_examples=25, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])


def run_script(fs: InversionFS, script):
    """Drive fs and a model through the script.  Returns the model of
    exactly the committed transactions, and (xid, model copy) after
    every commit, so a crash outcome can be matched against any
    commit-prefix of the history."""
    model = ModelFS()
    history = []
    for tx_ops, abort in script:
        tx = fs.begin()
        scratch = model.copy()
        for op in tx_ops:
            if scratch.why_invalid(op) is not None:
                with pytest.raises(InversionError):
                    apply_fs_op(fs, tx, op)
                continue
            apply_fs_op(fs, tx, op)
            scratch.apply(op)
        if abort:
            fs.abort(tx)
        else:
            fs.commit(tx)
            model = scratch
            history.append((tx.xid, model.copy()))
    return model, history


@given(script=scripts)
@SETTINGS
def test_fs_matches_oracle_under_commit_abort_interleavings(script):
    with tempfile.TemporaryDirectory() as root:
        db = Database.create(root + "/db")
        try:
            fs = InversionFS.mkfs(db)
            model, _history = run_script(fs, script)
            assert harvest_state(fs) == model.state()
        finally:
            db.close()


@given(script=scripts)
@SETTINGS
def test_committed_state_survives_crash_and_reopen(script):
    with tempfile.TemporaryDirectory() as root:
        db = Database.create(root + "/db")
        fs = InversionFS.mkfs(db)
        model, _history = run_script(fs, script)
        db.simulate_crash()  # volatile buffers vanish; media survives
        recovered = Database.open(root + "/db")
        try:
            assert harvest_state(InversionFS.attach(recovered)) == model.state()
        finally:
            recovered.close()


#: write-heavy scripts: multi-chunk payloads so commits leave dense
#: dirty runs for the coalesced write-back path, few aborts.
big_payloads = st.binary(min_size=0, max_size=20000)
write_ops = st.one_of(
    st.tuples(st.just("write"), paths, big_payloads),
    st.tuples(st.just("write"), paths, payloads),
    st.tuples(st.just("mkdir"), paths),
    st.tuples(st.just("unlink"), paths),
)
write_scripts = st.lists(
    st.tuples(st.lists(write_ops, min_size=1, max_size=3),
              st.sampled_from([False, False, False, True])),
    min_size=1, max_size=6)

WRITE_SETTINGS = settings(max_examples=15, deadline=None, derandomize=True,
                          suppress_health_check=[HealthCheck.too_slow])


@given(script=write_scripts, window=st.sampled_from([0.0, 0.5, 60.0]))
@WRITE_SETTINGS
def test_group_commit_crash_loses_only_a_floating_suffix(script, window):
    """Under group commit a crash may lose the queued (not yet forced)
    commit records — which are always the *most recent* writing
    commits.  The recovered state must equal the model at exactly the
    last durable commit: no torn middle, no resurrection, no partial
    transaction."""
    with tempfile.TemporaryDirectory() as root:
        db = Database.create(root + "/db")
        fs = InversionFS.mkfs(db)
        db.tm.group_commit_window = window  # after mkfs: bootstrap durable
        _model, history = run_script(fs, script)
        floating = set(db.tm.pending_commit_xids())
        expected = ModelFS()
        for xid, snapshot in history:
            if xid in floating:
                break  # this commit and everything after it is lost
            expected = snapshot
        if window == 0.0:
            assert not floating  # paper behaviour: nothing ever floats
        db.simulate_crash()  # the pending queue dies with the process
        recovered = Database.open(root + "/db")
        try:
            assert (harvest_state(InversionFS.attach(recovered))
                    == expected.state())
        finally:
            recovered.close()


@given(script=write_scripts)
@WRITE_SETTINGS
def test_flushed_group_commits_all_survive(script):
    """An explicit flush (what close/checkpoint do) makes every queued
    commit durable: after it, a crash loses nothing."""
    with tempfile.TemporaryDirectory() as root:
        db = Database.create(root + "/db")
        fs = InversionFS.mkfs(db)
        db.tm.group_commit_window = 60.0
        model, _history = run_script(fs, script)
        db.tm.flush_commits()
        db.simulate_crash()
        recovered = Database.open(root + "/db")
        try:
            assert (harvest_state(InversionFS.attach(recovered))
                    == model.state())
        finally:
            recovered.close()


@given(data=payloads, shorter=payloads)
@SETTINGS
def test_overwrite_semantics_match_model(data, shorter):
    """The subtlest model rule, pinned directly: an overwrite writes
    from offset 0 and never truncates."""
    with tempfile.TemporaryDirectory() as root:
        db = Database.create(root + "/db")
        try:
            fs = InversionFS.mkfs(db)
            tx = fs.begin()
            fs.write_file(tx, "/f", data)
            fs.write_file(tx, "/f", shorter)
            fs.commit(tx)
            assert fs.read_file("/f") == shorter + data[len(shorter):]
        finally:
            db.close()

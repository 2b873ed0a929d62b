"""Property-based differential testing: InversionFS vs the ModelFS
oracle under random operation sequences with commit/abort
interleavings.

Each example builds a fresh database, drives both the real file system
and the model through the same transactions (aborted transactions are
applied to a scratch copy that is discarded), then requires the real
visible state to equal the model — both live and after a simulated
crash + reopen, which by the no-overwrite design must preserve exactly
the committed state.
"""

import os
import tempfile

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.core.filesystem import InversionFS  # noqa: E402
from repro.db.database import Database  # noqa: E402
from repro.errors import InversionError  # noqa: E402
from repro.testkit.oracle import ModelFS, apply_fs_op, harvest_state  # noqa: E402

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


def run_script(fs: InversionFS, model: ModelFS, script) -> ModelFS:
    """Drive fs and model through the script; returns the model state
    reflecting exactly the committed transactions."""
    for tx_ops, abort in script:
        tx = fs.begin()
        scratch = model.copy()
        for op in tx_ops:
            reason = scratch.why_invalid(op)
            if reason == "target inside source subtree":
                # The model rejects directory-rename cycles the real fs
                # does not guard against; never send them.
                continue
            if reason is not None:
                # Both sides must agree the op is invalid — and the
                # rejection must leave the transaction usable.
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
    return model


@given(script=scripts)
@SETTINGS
def test_fs_matches_oracle_under_commit_abort_interleavings(script):
    with tempfile.TemporaryDirectory() as root:
        db = Database.create(root + "/db")
        try:
            fs = InversionFS.mkfs(db)
            model = run_script(fs, ModelFS(), script)
            assert harvest_state(fs) == model.state()
        finally:
            db.close()


@given(script=scripts)
@SETTINGS
def test_committed_state_survives_crash_and_reopen(script):
    with tempfile.TemporaryDirectory() as root:
        db = Database.create(root + "/db")
        fs = InversionFS.mkfs(db)
        model = run_script(fs, ModelFS(), script)
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


def run_script_with_history(fs, script):
    """Like run_script, but records (xid, model-copy) after every
    committed transaction, so a crash outcome can be matched against
    any commit-prefix of the history."""
    model = ModelFS()
    history = []
    for tx_ops, abort in script:
        tx = fs.begin()
        scratch = model.copy()
        for op in tx_ops:
            reason = scratch.why_invalid(op)
            if reason == "target inside source subtree":
                continue
            if reason is not None:
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
        model, history = run_script_with_history(fs, script)
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
        model, _history = run_script_with_history(fs, script)
        db.tm.flush_commits()
        db.simulate_crash()
        recovered = Database.open(root + "/db")
        try:
            assert (harvest_state(InversionFS.attach(recovered))
                    == model.state())
        finally:
            recovered.close()


@given(script=write_scripts)
@WRITE_SETTINGS
def test_a_torn_group_line_keeps_a_commit_prefix(script):
    """A group is one status line, its records in the order their
    transactions released their locks.  The script ends with T1 and T2
    writing one file in one group — T2 supersedes a chunk version whose
    record is still queued — so T1's record must precede T2's, and
    wherever a tear cuts the line recovery must keep a prefix of the
    commits: never T2 without T1."""
    script = script + [([("write", "/hot", b"one" * 400)], False),
                       ([("write", "/hot", b"TWO" * 300)], False)]
    with tempfile.TemporaryDirectory() as root:
        db = Database.create(root + "/db")
        fs = InversionFS.mkfs(db)
        db.tm.group_commit_window = 60.0
        _model, history = run_script_with_history(fs, script)
        db.tm.flush_commits()
        db.simulate_crash()
        status = os.path.join(root, "db", "magnetic0", "pg_status.meta")
        with open(status, "rb") as f:
            raw = f.read()
        start = raw.rindex(b"\n", 0, len(raw) - 1) + 1
        line = raw[start:]
        in_line = [int(tok) for tok in line.split()[1::4]]
        assert in_line == [xid for xid, _ in history if xid in in_line]
        assert in_line[-2:] == [xid for xid, _ in history[-2:]]
        prefixes = [ModelFS().state()] + [m.state() for _, m in history]
        ends = [i + 1 for i, byte in enumerate(line) if byte in b" \n"][3::4]
        kept = 0
        for cut in sorted({end - 2 for end in ends} | set(ends)):
            with open(status, "wb") as f:
                f.write(raw[:start] + line[:cut])
            recovered = Database.open(root + "/db")
            try:
                state = harvest_state(InversionFS.attach(recovered))
            finally:
                recovered.simulate_crash()
            # a prefix of the commits, and a longer tail loses no more
            kept = next(i for i in range(kept, len(prefixes))
                        if prefixes[i] == state)
        assert state == prefixes[-1]               # the whole line: everything


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

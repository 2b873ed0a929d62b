"""clone_range edge cases (satellite): empty ranges, the unindexed
ablation, clones resolving across the live heap and the archive,
which version a pin names, and a Hypothesis differential of
reflink-then-overwrite against the model's physical copies."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import InversionClient, InversionFS
from repro.core.checker import ConsistencyChecker
from repro.core.chunks import ChunkStore
from repro.core.constants import CHUNK_SIZE
from repro.db.database import Database
from repro.testkit.oracle import ModelFS, apply_fs_op, harvest_state
from repro.testkit.workload import payload


def _fileid(fs, path):
    from repro.db.snapshot import BootstrapSnapshot
    return fs.namespace.resolve(path, BootstrapSnapshot(fs.db.tm), None)


def test_clone_empty_and_inverted_range(fs, client):
    client.p_close(client.p_creat("/src"))
    client.p_close(client.p_creat("/dst"))
    tx = fs.begin()
    src = ChunkStore(fs.db, _fileid(fs, "/src"), tx)
    dst = ChunkStore(fs.db, _fileid(fs, "/dst"), tx)
    assert dst.clone_range(tx, src, 5, 2) == 0      # inverted
    assert dst.clone_range(tx, src, 0, 10) == 0     # source empty
    fs.commit(tx)


@pytest.mark.parametrize("later", [False, True], ids=["same", "later"])
def test_a_clone_takes_the_last_version_a_transaction_wrote(fs, later):
    """A chunk written twice in one transaction has two versions with one
    xmin, and a pin names a version by its xmin: a clone made in that
    transaction, or in any later one, used to read the superseded one."""
    second = payload(2, "v", 2 * CHUNK_SIZE)
    tx = fs.begin()
    fs.write_file(tx, "/src", payload(1, "v", 2 * CHUNK_SIZE))
    fs.write_file(tx, "/src", second)
    if later:
        fs.commit(tx)
        tx = fs.begin()
    fs.reflink(tx, "/src", "/dst")
    fs.commit(tx)
    assert fs.read_file("/dst") == second
    ConsistencyChecker(fs).raise_if_corrupt()


def test_clone_unindexed_ablation(tmp_path):
    """With per-file chunk indexes disabled, clone_range gathers by
    heap scan and reference resolution walks all versions — same
    answers, no index."""
    db = Database.create(str(tmp_path / "db"))
    try:
        fs = InversionFS.mkfs(db)
        fs.chunk_index = False
        client = InversionClient(fs)
        data = payload(7, "noidx", 2 * CHUNK_SIZE + 333)
        tx = fs.begin()
        fs.write_file(tx, "/src", data)
        fs.commit(tx)
        tx = fs.begin()
        referenced, materialized = fs.reflink(tx, "/src", "/dst")
        fs.commit(tx)
        assert referenced == 2 and materialized == 1
        assert fs.read_file("/dst") == data
        # Overwrite the source: the clone must keep resolving the
        # pinned versions via the all-versions scan.
        tx = fs.begin()
        fs.write_file(tx, "/src", payload(7, "new", 100))
        fs.commit(tx)
        assert fs.read_file("/dst") == data
        ConsistencyChecker(fs).raise_if_corrupt()
    finally:
        db.close()


def test_clone_resolves_across_live_and_archive(fs, client):
    """A clone pinning versions that vacuum later archives must keep
    reading the pinned bytes — part live heap, part archive."""
    data = payload(8, "arch", 3 * CHUNK_SIZE)
    tx = fs.begin()
    fs.write_file(tx, "/src", data)
    fs.commit(tx)
    tx = fs.begin()
    assert fs.reflink(tx, "/src", "/clone") == (3, 0)
    fs.commit(tx)
    # Supersede chunks 0 and 1; chunk 2's pinned version stays current.
    tx = fs.begin()
    fs.write_file(tx, "/src", payload(8, "v1", 2 * CHUNK_SIZE))
    fs.commit(tx)
    table = f"inv{_fileid(fs, '/src')}"
    stats = fs.db.vacuum(table, keep_history=False)
    # The pin guard must have archived instead of expunging.
    assert stats.history_pinned
    assert fs.db.archive_heap_for(table) is not None
    assert fs.read_file("/clone") == data
    ConsistencyChecker(fs).raise_if_corrupt()


def test_unpinned_purge_still_expunges(fs, client):
    """The guard must not tax ordinary files: vacuuming an unreferenced
    table with keep_history=False still discards history."""
    tx = fs.begin()
    fs.write_file(tx, "/plain", payload(9, "p0", CHUNK_SIZE))
    fs.commit(tx)
    tx = fs.begin()
    fs.write_file(tx, "/plain", payload(9, "p1", CHUNK_SIZE))
    fs.commit(tx)
    table = f"inv{_fileid(fs, '/plain')}"
    stats = fs.db.vacuum(table, keep_history=False)
    assert not stats.history_pinned
    assert fs.db.archive_heap_for(table) is None


def test_nested_clone_flattens(fs, client):
    """Cloning a clone copies the pointers verbatim: the grandchild
    references the original versions, not the intermediate file."""
    data = payload(10, "nest", 2 * CHUNK_SIZE)
    tx = fs.begin()
    fs.write_file(tx, "/a", data)
    fs.commit(tx)
    tx = fs.begin()
    fs.reflink(tx, "/a", "/b")
    fs.commit(tx)
    tx = fs.begin()
    fs.reflink(tx, "/b", "/c")
    fs.commit(tx)
    # Even with the middle file gone, /c reads the pinned originals.
    tx = fs.begin()
    fs.unlink(tx, "/b")
    fs.commit(tx)
    assert fs.read_file("/c") == data
    ConsistencyChecker(fs).raise_if_corrupt()


_PATHS = ("/f0", "/f1", "/f2")

_op = st.one_of(
    st.tuples(st.just("write"), st.sampled_from(_PATHS),
              st.binary(min_size=1, max_size=CHUNK_SIZE + 200)),
    st.tuples(st.just("reflink"), st.sampled_from(_PATHS),
              st.sampled_from(("/r0", "/r1", "/r2"))),
    st.tuples(st.just("slice"), st.sampled_from(_PATHS),
              st.sampled_from((0, CHUNK_SIZE)),
              st.integers(min_value=0, max_value=2 * CHUNK_SIZE),
              st.sampled_from(("/s0", "/s1"))),
    st.tuples(st.just("truncate"), st.sampled_from(_PATHS),
              st.integers(min_value=0, max_value=2 * CHUNK_SIZE)),
    st.tuples(st.just("unlink"), st.sampled_from(("/r0", "/r1", "/s0"))),
)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(ops=st.lists(_op, min_size=1, max_size=14))
def test_reflink_then_overwrite_matches_model(tmp_path_factory, ops):
    """Differential: random structural ops + overwrites against the
    ModelFS oracle, which implements them as physical copies.  Any
    divergence means a reference resolved to the wrong version."""
    workdir = tmp_path_factory.mktemp("clonediff")
    db = Database.create(str(workdir / "db"))
    try:
        fs = InversionFS.mkfs(db)
        model = ModelFS()
        for op in ops:
            if model.why_invalid(op) is not None:
                continue
            model.apply(op)
            tx = fs.begin()
            apply_fs_op(fs, tx, op)
            fs.commit(tx)
        assert harvest_state(fs) == model.state()
        ConsistencyChecker(fs).raise_if_corrupt()
    finally:
        db.close()

"""Property-based differential testing with client caches enabled.

Two concurrent cached sessions run random transaction scripts through
the deterministic scheduler; the final file-system state must equal
the commit-order ModelFS oracle — i.e. the cache never serves a stale
byte the oracle would not.  Each session owns a private subtree and
both contend on a shared hot file, so every interleaving is
semantically valid and the lease invalidation path (one session's
commit dropping the other's cached state) is exercised constantly.

Contended hot-file overwrites use *variable* lengths, including
zero-length ``write(b"")``: concurrent different-length overwrites of
one file are exactly the open-time-size lost update of ROADMAP open
item 4 (fixed by reconciling size under the write lock at flush), so
the suite generates them again instead of sidestepping them with one
fixed length.

The scheduler-level test at the bottom drives cache-served reads
directly (top-level ``Call`` requests are what the scheduler cache
intercepts) and checks no read ever returns a torn mix of two
committed versions.
"""

from __future__ import annotations

import tempfile

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.cache import session_cache_factory  # noqa: E402
from repro.core.filesystem import InversionFS  # noqa: E402
from repro.core.server import InversionServer  # noqa: E402
from repro.db.database import Database  # noqa: E402
from repro.sched import Apply, Call, MultiUserScheduler, Ref, Txn  # noqa: E402
from repro.sim.clock import SimClock  # noqa: E402
from repro.testkit.concurrent import ConcurrentWorkloadRunner  # noqa: E402
from repro.testkit.oracle import harvest_state  # noqa: E402
from repro.testkit.workload import TxStep, Workload  # noqa: E402

HOT_SIZE = 1000


def session_ops(session: int):
    own_file = st.integers(0, 2).map(lambda j: f"/s{session}/f{j}")
    sizes = st.integers(0, 20_000)
    versions = st.integers(1, 9)
    # Contended overwrites vary in length — 0 (a pure write(b""))
    # through past the seeded HOT_SIZE — so interleavings that used to
    # trigger the open-time-size lost update are generated.
    hot_sizes = st.one_of(st.just(0), st.integers(1, 3 * HOT_SIZE))
    return st.one_of(
        st.tuples(st.just("write"), own_file, sizes).map(
            lambda t: (t[0], t[1], bytes([65 + session]) * t[2])),
        st.tuples(st.just("write"), st.just("/hot"), versions,
                  hot_sizes).map(
            lambda t: (t[0], t[1], bytes([48 + t[2]]) * t[3])),
    )


def session_script(session: int):
    steps = st.tuples(
        st.lists(session_ops(session), min_size=1, max_size=3),
        st.booleans())
    return st.lists(steps, min_size=1, max_size=4).map(
        lambda raw: tuple(TxStep(tuple(ops), abort=abort)
                          for ops, abort in raw))


scripts = st.tuples(session_script(0), session_script(1))

SETTINGS = settings(max_examples=20, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])


def _setup_ops():
    return (("mkdir", "/s0"), ("mkdir", "/s1"),
            ("write", "/hot", b"0" * HOT_SIZE))


@given(sessions=scripts, seed=st.integers(0, 7))
@SETTINGS
def test_cached_concurrent_sessions_match_oracle(sessions, seed):
    workload = Workload("cached_diff", [], sessions=sessions,
                        sched_seed=seed, setup_ops=_setup_ops())
    with tempfile.TemporaryDirectory() as root:
        db = Database.create(root + "/db", clock=SimClock())
        try:
            fs = InversionFS.mkfs(db)
            workload.setup(db, fs)
            runner = ConcurrentWorkloadRunner(db, fs, workload, cached=True)
            runner.run()
            assert harvest_state(fs) == runner.completed_state()
        finally:
            db.close()


def _reader_program(rounds: int) -> list:
    """Top-level Calls (the requests the scheduler cache serves):
    stat, open, read the whole hot file, close — ``rounds`` times."""
    program = []
    ordinal = 0
    for _ in range(rounds):
        program.append(Call("p_stat", "/hot"))
        open_ord = ordinal + 1
        program.append(Call("p_open", "/hot", 0))
        program.append(Call("p_read", Ref(open_ord), HOT_SIZE))
        program.append(Call("p_close", Ref(open_ord)))
        ordinal += 4
    return program


def _writer_program(versions) -> list:
    return [Txn([Apply(f"hot v{v}",
                       lambda fs, tx, v=v: fs.write_file(
                           tx, "/hot", bytes([48 + v]) * HOT_SIZE))],
                tag=f"v{v}") for v in versions]


@pytest.mark.parametrize("seed", [0, 1, 5])
def test_scheduler_cached_reads_are_never_torn(tmp_path, seed):
    """A cached reader racing a writer must only ever observe whole
    committed versions of the hot file — a mix of two versions in one
    read means a stale chunk survived an invalidation."""
    db = Database.create(str(tmp_path / "db"), clock=SimClock())
    try:
        fs = InversionFS.mkfs(db)
        tx = fs.begin()
        fs.write_file(tx, "/hot", b"0" * HOT_SIZE)
        fs.commit(tx)
        db.tm.flush_commits()
        server = InversionServer(fs)
        factory = session_cache_factory()
        sched = MultiUserScheduler(server, seed=seed, cache_factory=factory)
        try:
            reader = sched.add_session(_reader_program(rounds=6), name="r")
            sched.add_session(_writer_program(range(1, 6)), name="w")
            sched.run(strict=True)
        finally:
            sched.close()
        legal = {bytes([48 + v]) * HOT_SIZE for v in range(0, 6)}
        reads = [v for v in reader.values.values() if isinstance(v, bytes)]
        assert len(reads) == 6
        for data in reads:
            assert data in legal, f"torn read: {data[:8]}...{data[-8:]}"
    finally:
        db.close()


def test_scheduler_cache_actually_serves(tmp_path):
    """A quiet re-read workload must land in the cache (guards against
    the factory wiring silently degrading to a no-op)."""
    db = Database.create(str(tmp_path / "db"), clock=SimClock())
    try:
        fs = InversionFS.mkfs(db)
        tx = fs.begin()
        fs.write_file(tx, "/hot", b"0" * HOT_SIZE)
        fs.commit(tx)
        db.tm.flush_commits()
        server = InversionServer(fs)
        factory = session_cache_factory()
        sched = MultiUserScheduler(server, seed=0, cache_factory=factory)
        try:
            sched.add_session(_reader_program(rounds=4), name="r")
            sched.run(strict=True)
        finally:
            sched.close()
        assert factory.stats.hits.get("att", 0) > 0
        assert factory.stats.hits.get("chunk", 0) > 0
    finally:
        db.close()


@pytest.mark.parametrize("cached", [False, True])
def test_keyword_arguments_are_the_same_request(tmp_path, cached):
    """A program may pass verb arguments by keyword.  The cache-serving
    path used to index them positionally (``args[0]``) and died with
    IndexError as soon as a cache was configured; arguments are now
    bound to the verb's parameters once, so the cached run is the
    uncached run."""
    db = Database.create(str(tmp_path / "db"), clock=SimClock())
    try:
        fs = InversionFS.mkfs(db)
        tx = fs.begin()
        fs.write_file(tx, "/hot", b"0" * HOT_SIZE)
        fs.commit(tx)
        db.tm.flush_commits()
        factory = session_cache_factory() if cached else None
        sched = MultiUserScheduler(InversionServer(fs), seed=0,
                                   cache_factory=factory)
        program = []
        for _ in range(2):                  # second round: cache-served
            first = len(program)
            program += [Call("p_stat", path="/hot"),
                        Call("p_open", fname="/hot", mode=0),
                        Call("p_read", Ref(first + 1), length=HOT_SIZE),
                        Call("p_read", length=10, fd=Ref(first + 1)),
                        Call("p_close", fd=Ref(first + 1))]
        try:
            session = sched.add_session(program, name="kw")
            sched.run(strict=True)
        finally:
            sched.close()
        assert session.state == "done"
        values = session.values
        assert values[0].size == values[5].size == HOT_SIZE
        assert values[2] == values[7] == b"0" * HOT_SIZE
        assert values[3] == values[8] == b""          # at end of file
        if cached:
            assert factory.stats.hits.get("att", 0) > 0
            assert factory.stats.hits.get("chunk", 0) > 0
    finally:
        db.close()

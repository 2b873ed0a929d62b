"""Client caches against the commit-order oracle, where one stack and
one session cannot reach: two cached sessions interleaved by the
scheduler on one hot file (variable-length overwrites, ``write(b"")``
included — the open-time-size lost update), reads racing a writer that
must never see two versions at once, and a guard that the cache serves
at all.  One session per stack is the ``scheduled`` and ``cached`` ids
of the executable spec (``tests/integration/test_spec_machine.py``).
"""

from __future__ import annotations

import tempfile

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cache import session_cache_factory
from repro.core.filesystem import InversionFS
from repro.core.server import InversionServer
from repro.db.database import Database
from repro.sched import Apply, Call, MultiUserScheduler, Ref, Txn
from repro.sim.clock import SimClock
from repro.testkit.concurrent import ConcurrentWorkloadRunner
from repro.testkit.stacks import open_stack
from repro.testkit.workload import TxStep, Workload

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
        stack = open_stack("scheduled", root + "/db", setup=workload.setup)
        try:
            runner = ConcurrentWorkloadRunner(stack, workload)
            runner.run()
            assert stack.ground_truth() == runner.completed().state()
        finally:
            stack.close()


@pytest.fixture
def hot_fs(tmp_path):
    """A mount whose ``/hot`` holds HOT_SIZE committed, forced bytes."""
    db = Database.create(str(tmp_path / "db"), clock=SimClock())
    fs = InversionFS.mkfs(db)
    tx = fs.begin()
    fs.write_file(tx, "/hot", b"0" * HOT_SIZE)
    fs.commit(tx)
    db.tm.flush_commits()
    yield fs
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


def _run(fs, factory, seed: int, **programs) -> dict:
    """Run one session per named program to completion; the sessions."""
    sched = MultiUserScheduler(InversionServer(fs), seed=seed,
                               cache_factory=factory)
    try:
        sessions = {name: sched.add_session(program, name=name)
                    for name, program in programs.items()}
        sched.run(strict=True)
    finally:
        sched.close()
    return sessions


@pytest.mark.parametrize("seed", [0, 1, 5])
def test_scheduler_cached_reads_are_never_torn(hot_fs, seed):
    """A cached reader racing a writer must only ever observe whole
    committed versions of the hot file — a mix of two versions in one
    read means a stale chunk survived an invalidation."""
    reader = _run(hot_fs, session_cache_factory(), seed,
                  r=_reader_program(rounds=6),
                  w=_writer_program(range(1, 6)))["r"]
    legal = {bytes([48 + v]) * HOT_SIZE for v in range(0, 6)}
    reads = [v for v in reader.values.values() if isinstance(v, bytes)]
    assert len(reads) == 6
    for data in reads:
        assert data in legal, f"torn read: {data[:8]}...{data[-8:]}"


def test_scheduler_cache_actually_serves(hot_fs):
    """A quiet re-read workload must land in the cache (guards against
    the factory wiring silently degrading to a no-op)."""
    factory = session_cache_factory()
    _run(hot_fs, factory, 0, r=_reader_program(rounds=4))
    assert factory.stats.hits.get("att", 0) > 0
    assert factory.stats.hits.get("chunk", 0) > 0


@pytest.mark.parametrize("cached", [False, True])
def test_keyword_arguments_are_the_same_request(hot_fs, cached):
    """A program may pass verb arguments by keyword.  The cache-serving
    path used to index them positionally (``args[0]``) and died with
    IndexError as soon as a cache was configured; arguments are now
    bound to the verb's parameters once, so the cached run is the
    uncached run."""
    factory = session_cache_factory() if cached else None
    program = []
    for _ in range(2):                  # second round: cache-served
        first = len(program)
        program += [Call("p_stat", path="/hot"),
                    Call("p_open", fname="/hot", mode=0),
                    Call("p_read", Ref(first + 1), length=HOT_SIZE),
                    Call("p_read", length=10, fd=Ref(first + 1)),
                    Call("p_close", fd=Ref(first + 1))]
    session = _run(hot_fs, factory, 0, kw=program)["kw"]
    assert session.state == "done"
    values = session.values
    assert values[0].size == values[5].size == HOT_SIZE
    assert values[2] == values[7] == b"0" * HOT_SIZE
    assert values[3] == values[8] == b""          # at end of file
    if cached:
        assert factory.stats.hits.get("att", 0) > 0
        assert factory.stats.hits.get("chunk", 0) > 0

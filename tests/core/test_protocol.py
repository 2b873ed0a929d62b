"""The verb table cannot drift from the code that carries it.

:data:`repro.core.protocol.VERBS` is the one declaration of the ``p_*``
protocol; the library is the one place a signature is written.  These
tests pin the two to each other and to every class that exposes verbs,
so a verb added in one place and forgotten in another fails here and
not in a benchmark three layers up.
"""

import inspect

import pytest

from repro.core.client import RemoteInversionClient
from repro.core.library import InversionClient
from repro.core.protocol import REMOTE, SERVER, SHARDED, VERBS
from repro.errors import InversionError, ReproError
from repro.shard.client import ShardedInversionClient


def _params(fn) -> list[tuple]:
    """(name, default) of every parameter after ``self``."""
    return [(p.name, p.default)
            for p in list(inspect.signature(fn).parameters.values())[1:]]


def _verbs_of(cls) -> set[str]:
    return {name for name in dir(cls) if name.startswith("p_")}


def test_one_row_per_library_method_and_back():
    assert set(VERBS) == _verbs_of(InversionClient)
    for name, verb in VERBS.items():
        assert verb.name == name
        assert [(p.name, p.default) for p in verb.params] == _params(
            getattr(InversionClient, name))


@pytest.mark.parametrize("cls, reach", [(RemoteInversionClient, REMOTE),
                                        (ShardedInversionClient, SHARDED)])
def test_client_classes_expose_exactly_what_the_table_says(cls, reach):
    want = {name for name, verb in VERBS.items() if verb.reach >= reach}
    assert _verbs_of(cls) == want
    for name in want:
        method = vars(cls)[name]          # in the class itself ...
        assert inspect.isfunction(method)  # ... as a real function
        assert method.__name__ == name
        assert _params(method) == _params(getattr(InversionClient, name))


def test_the_sharded_client_writes_by_hand_only_what_no_row_routes():
    """Every verb addressed by paths — the two-path ones included — is
    generated and routed by the ``paths`` column; transaction control
    and the root-spanning ``p_readdir`` are the only verbs written out."""
    by_hand = {name for name in _verbs_of(ShardedInversionClient)
               if vars(ShardedInversionClient)[name].__code__.co_filename
               != "<string>"}
    assert by_hand == {"p_begin", "p_commit", "p_abort", "p_readdir"}


def test_the_table_states_the_omissions():
    """The 2PC half-calls stop at the server and ``p_query`` stops
    short of the sharded client because a row says so, not because a
    class happens to lack the method."""
    assert VERBS["p_prepare"].reach == VERBS["p_resolve"].reach == SERVER
    assert VERBS["p_query"].reach == REMOTE
    assert all(verb.reach == SHARDED for name, verb in VERBS.items()
               if name not in ("p_prepare", "p_resolve", "p_query"))


def test_bind_applies_defaults_and_rejects_like_the_library():
    assert VERBS["p_creat"].bind("/f") == ("/f", 2, None, "root", "plain")
    assert VERBS["p_read"].bind(length=10, fd=3) == (3, 10)
    assert VERBS["p_begin"].bind() == ()
    with pytest.raises(TypeError, match="p_read"):
        VERBS["p_read"].bind(3)


def test_server_dispatches_the_table_and_nothing_else(fs):
    from repro.core.server import InversionServer
    server = InversionServer(fs)
    conn = server.connect()
    with pytest.raises(InversionError, match="unknown RPC method"):
        server.dispatch(conn, "p_format")
    with pytest.raises(InversionError, match="unknown RPC method"):
        server.dispatch(conn, "_run")
    for name in VERBS:                    # every row is dispatchable
        try:
            server.dispatch(conn, name)
        except ReproError as exc:
            assert "unknown RPC method" not in str(exc)

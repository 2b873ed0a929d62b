"""One conformance suite: every client stack against the executable
spec.

:class:`~repro.testkit.oracle.ModelFS` is the specification of what an
Inversion mount shows.  The ``p_*`` protocol is declared once and
carried by many deployments; whichever one an application speaks to,
the same operation script must leave the same visible state — read
back *through that stack*, so a cache that serves a stale byte, a
write buffer that loses one, a shard that keeps a moved file or a
replica that misses a commit all fail here — and the same committed
state underneath.

The script is checked twice, half way and at the end: whatever the
first look left in a client's cache or buffers has to survive (or be
invalidated by) the second half.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.constants import CHUNK_SIZE
from repro.testkit.oracle import ModelFS
from repro.testkit.workload import payload

from tests.stacks import STACKS, open_stack

TOP = st.sampled_from(["a", "b", "c", "d"])
NAMES = st.sampled_from(["x", "y", "z", "sub"])
#: from empty through one chunk to a few: single-chunk files are what
#: a chunk cache serves whole, multi-chunk ones what batching splits.
SIZES = st.one_of(st.integers(0, 3000),
                  st.integers(CHUNK_SIZE - 2, 3 * CHUNK_SIZE))


@st.composite
def paths(draw, max_depth=2):
    parts = [draw(TOP)] + draw(st.lists(NAMES, min_size=0,
                                        max_size=max_depth))
    return "/" + "/".join(parts)


@st.composite
def ops(draw):
    kind = draw(st.sampled_from(
        ["mkdir", "mkdir", "write", "write", "write", "unlink", "rmdir",
         "rename", "reflink", "truncate"]))
    if kind == "write":
        path = draw(paths())
        return ("write", path,
                payload(draw(st.integers(0, 7)), path, draw(SIZES)))
    if kind in ("rename", "reflink"):
        return (kind, draw(paths()), draw(paths()))
    if kind == "truncate":
        return ("truncate", draw(paths()), draw(SIZES))
    return (kind, draw(paths()))


@pytest.mark.parametrize("kind", [k for k in STACKS if k != "sharded"])
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(script=st.lists(ops(), min_size=2, max_size=24))
def test_stack_matches_model(tmp_path_factory, kind, script):
    stack = open_stack(kind, str(tmp_path_factory.mktemp(kind) / "stack"))
    try:
        model = ModelFS()
        for step, op in enumerate(script):
            if step == len(script) // 2:
                stack.check(model)
            if model.why_invalid(op) is None:
                stack.apply(op, model)        # auto-commit per op
                model.apply(op)
        stack.check(model)
    finally:
        stack.close()

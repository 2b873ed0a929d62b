"""A whole operation script on the local stack against the ModelFS
spec.

:class:`~repro.testkit.oracle.ModelFS` is the specification of what an
Inversion mount shows.  Here a script drawn up front is applied op by
op, each its own transaction, and read back through the stack twice,
half way and at the end: what the first look left in the stack has to
survive (or be invalidated by) the second half.  Every client
stack, with invalid ops, transactions and crashes, is held to the same
spec by ``tests/integration/test_spec_machine.py``.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.constants import CHUNK_SIZE
from repro.testkit.oracle import ModelFS
from repro.testkit.stacks import open_stack
from repro.testkit.workload import payload

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


@pytest.mark.parametrize("kind", ["local"])
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

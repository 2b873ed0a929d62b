"""Every broad exception handler in ``src/repro``, accounted for.

A handler that catches ``Exception`` or ``BaseException`` (or anything,
bare) either ends in ``raise`` — it cleans up and passes the error on —
or is a row of :data:`SWALLOWED`, which says what it does with the
error it keeps: records it where a caller reads it, or why dropping it
is safe.  A new swallowing handler fails here until it has a row; a
row whose handler is gone fails too.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "repro"
BROAD = {"Exception", "BaseException"}
#: Broad handlers in the package, swallowing or not: at most this many.
MAX_BROAD = 15

#: (module, enclosing function) → one reason per swallowing handler
#: there, in source order.
SWALLOWED = {
    ("core/checker.py", "ConsistencyChecker.check_file"): (
        "records: the file is flagged unreadable with the scan's error",),
    ("core/server.py", "InversionServer.disconnect"): (
        "records: a dead session's failed abort, in teardown_errors",
        "records: a failed close (its pending size lost), in "
        "teardown_errors",),
    ("shard/twophase.py", "TwoPhaseCoordinator._abort_prepared"): (
        "safe: no decision was logged, so recovery presumes abort",),
    ("testkit/explorer.py", "CrashExplorer.run_crash_point"): (
        "records: a failed recovery is the crash point's verdict",),
    ("testkit/stacks.py", "ReplicaStack._judge_failover"): (
        "records: a failed local recovery, in the verdict's detail",
        "records: a follower that cannot resume, in the verdict's detail",),
}


def _is_broad(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) \
        else [handler.type]
    return any(isinstance(t, ast.Name) and t.id in BROAD for t in types)


def _broad_handlers():
    """``(module, enclosing function, ends in raise)`` per broad
    handler of the package, in file and source order."""
    out = []

    def walk(node: ast.AST, module: str, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if isinstance(child, ast.ExceptHandler) and _is_broad(child):
                out.append((module, scope,
                            isinstance(child.body[-1], ast.Raise)))
            walk(child, module, inner)

    for path in sorted(PACKAGE.rglob("*.py")):
        module = path.relative_to(PACKAGE).as_posix()
        walk(ast.parse(path.read_text(encoding="utf-8"), str(path)),
             module, "")
    return out


def test_every_swallowing_broad_handler_has_a_reason():
    found: dict[tuple[str, str], int] = {}
    for module, scope, reraises in _broad_handlers():
        if not reraises:
            found[(module, scope)] = found.get((module, scope), 0) + 1
    assert found == {key: len(reasons) for key, reasons in SWALLOWED.items()}


def test_broad_handlers_stay_few():
    assert len(_broad_handlers()) <= MAX_BROAD


def test_the_audit_sees_what_it_audits():
    """The walk finds both kinds: the transaction runner's handler ends
    in ``raise``, the server's teardown ones do not."""
    handlers = _broad_handlers()
    assert ("db/transactions.py", "atomic", True) in handlers
    assert handlers.count(
        ("core/server.py", "InversionServer.disconnect", False)) == 2

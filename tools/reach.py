#!/usr/bin/env python
"""The functions of ``src/repro`` that the tier-1 suite never enters.

Runs pytest in this process under a ``sys.setprofile`` hook that keeps
the code object of every frame it sees, then walks the source with
``ast`` and prints ``file:line qualname lines`` for each function whose
code object never ran.  Abstract methods and bodies that hold nothing
but a docstring, ``...``, ``pass`` or ``raise NotImplementedError`` are
not counted: there is nothing in them to enter.  Functions built by
``exec`` (the verb table's generated methods) have no source file and
are not listed either.  It is a gate: it exits 1 when the list is not
empty (each function on it is owed a test or a deletion), and with
pytest's status when the suite fails.  Arguments go to pytest, so
``python tools/reach.py tests/shard`` asks what one package's tests
reach.  Under the hook tier-1 runs three to four times slower.

Run:  python tools/reach.py [PYTEST ARGS...]
"""

from __future__ import annotations

import ast
import os
import sys

REPO = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))
SRC = os.path.join(REPO, "src")
PACKAGE = os.path.join(SRC, "repro")


def _trivial(node: ast.AST) -> bool:
    """Is ``node`` (a def) abstract, or its body nothing to enter?"""
    for dec in node.decorator_list:
        name = dec.attr if isinstance(dec, ast.Attribute) else \
            getattr(dec, "id", None)
        if name == "abstractmethod":
            return True
    body = node.body
    if (body and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)):
        body = body[1:]
    if not body:
        return True
    if len(body) > 1:
        return False
    (stmt,) = body
    if isinstance(stmt, ast.Pass):
        return True
    if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant) \
            and stmt.value.value is Ellipsis:
        return True
    if isinstance(stmt, ast.Raise) and stmt.exc is not None:
        exc = stmt.exc.func if isinstance(stmt.exc, ast.Call) else stmt.exc
        return getattr(exc, "id", None) == "NotImplementedError"
    return False


def functions(path: str):
    """``(first line, qualname, name, lines)`` of every def in the
    module at ``path`` that has something to enter.  The first line is
    the code object's: the first decorator's, if the def has any."""
    with open(path, encoding="utf-8") as f:
        tree = ast.parse(f.read(), path)
    out = []

    def walk(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + child.name
                first = min([child.lineno] + [d.lineno
                                              for d in child.decorator_list])
                if not _trivial(child):
                    out.append((first, qualname, child.name,
                                child.end_lineno - child.lineno + 1))
                walk(child, qualname + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, prefix + child.name + ".")
            else:
                walk(child, prefix)
    walk(tree, "")
    return out


def package_functions() -> list[tuple]:
    """``(path, first line, qualname, name, lines)`` of every function
    of ``src/repro`` that has something to enter, in file order."""
    out = []
    for dirpath, dirs, files in os.walk(PACKAGE):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                out.extend((path, *fn) for fn in functions(path))
    return out


def main() -> int:
    sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    import pytest

    # Read before the run, as the run imports it: edit nothing meanwhile.
    counted = package_functions()

    # Keyed by identity: equal code objects (same name, line and body)
    # in two files are two functions.
    codes: dict = {}

    def hook(frame, _event, _arg) -> None:
        codes[id(frame.f_code)] = frame.f_code

    sys.setprofile(hook)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider",
                              *sys.argv[1:]])
    finally:
        sys.setprofile(None)
    entered = {(os.path.realpath(code.co_filename), code.co_firstlineno,
                code.co_name) for code in codes.values()}
    lines = [f"{os.path.relpath(path, REPO)}:{first} {qualname} {length}"
             for path, first, qualname, short, length in counted
             if (path, first, short) not in entered]
    print(f"\n{len(lines)} of {len(counted)} functions in src/repro "
          "never entered:")
    print("\n".join(lines))
    return int(status) or int(bool(lines))


if __name__ == "__main__":
    sys.exit(main())

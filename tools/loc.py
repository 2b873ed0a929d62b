#!/usr/bin/env python
"""Source and test line totals per package, and the delta against a
revision.

A "net-negative" claim is a count: the physical lines of every ``*.py``
under ``src/repro/<package>`` and ``tests/<package>`` (files directly
under either root count as ``(top)``), for the working tree the tool
sits in, and — with ``--against REV`` — the same count of ``git archive
REV`` unpacked into a temporary directory, as ``bench_pairs.py`` does.
No threshold: it prints the table CHANGES.md quotes.

Run:  python tools/loc.py [--against REV]
"""

from __future__ import annotations

import argparse
import os
import tempfile
from collections import Counter

from bench_pairs import REPO, materialise

ROOTS = {"src": os.path.join("src", "repro"), "tests": "tests"}


def count(tree: str) -> Counter:
    """``(root, package) -> lines`` over the ``*.py`` files of ``tree``."""
    lines: Counter = Counter()
    for root, subdir in ROOTS.items():
        top = os.path.join(tree, subdir)
        for dirpath, _dirs, files in os.walk(top):
            rel = os.path.relpath(dirpath, top)
            package = "(top)" if rel == "." else rel.split(os.sep)[0]
            for name in files:
                if name.endswith(".py"):
                    with open(os.path.join(dirpath, name), "rb") as f:
                        lines[root, package] += sum(1 for _ in f)
    return lines


def table(now: Counter, then: Counter | None) -> str:
    packages = sorted({package for _root, package in (*now, *(then or ()))})
    rows = [[package] + [now[root, package] for root in ROOTS]
            for package in packages]
    rows.append(["total"] + [sum(n for (r, _p), n in now.items() if r == root)
                             for root in ROOTS])
    if then is not None:
        deltas = [[now[root, package] - then[root, package] for root in ROOTS]
                  for package in packages]
        deltas.append([sum(column) for column in zip(*deltas)])
        rows = [[name, src, f"{dsrc:+d}", tests, f"{dtests:+d}"]
                for (name, src, tests), (dsrc, dtests) in zip(rows, deltas)]
    header = ["package", "src", "Δ", "tests", "Δ"] if then is not None \
        else ["package", "src", "tests"]
    widths = [max(len(str(row[i])) for row in [header] + rows)
              for i in range(len(header))]
    return "\n".join(
        "  ".join(str(cell).ljust(w) if i == 0 else str(cell).rjust(w)
                  for i, (cell, w) in enumerate(zip(row, widths)))
        for row in [header] + rows)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="REV",
                        help="also print the delta against this revision")
    args = parser.parse_args()
    then = None
    if args.against:
        with tempfile.TemporaryDirectory() as parent:
            materialise(args.against, parent)
            then = count(parent)
    print(table(count(REPO), then))


if __name__ == "__main__":
    main()

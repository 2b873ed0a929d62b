#!/usr/bin/env python3
"""Fail on dead intra-repo links and anchors in the markdown docs.

Scans every tracked ``*.md`` file (or the paths given on the command
line) for inline markdown links, resolves the repo-relative targets,
and exits non-zero listing every target that does not exist (a tracked
file deleted from the working tree is listed the same way).  External
links (http/https/mailto) are ignored.  Anchor fragments are validated
too: ``#section`` must name a heading in the same file and
``path.md#section`` a heading in the target file, using GitHub's
slugification (lowercase, spaces to dashes, punctuation dropped,
``-1``/``-2`` suffixes for duplicates).  In README.md and DESIGN.md —
the documents that say where each claim is checked — a backticked
``tests/…py``, ``benchmarks/…py``, ``src/…py`` or ``tools/…py`` path
(``*`` globs) must exist too, and each part of a ``::name`` suffix
(``[param]`` dropped) must be a ``def`` or ``class`` in that file.

Run:  python tools/check_doc_links.py [files...]
"""

from __future__ import annotations

import glob
import os
import re
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: [text](target) — the markdown inline link form.
LINK = re.compile(r"\[[^\]^\[]*\]\(([^)\s]+)\)")

#: fenced-code regions are commands and examples, not links.
FENCE = re.compile(r"^(```|~~~)")

HEADING = re.compile(r"^(#{1,6})\s+(.*?)\s*#*\s*$")

EXTERNAL = ("http://", "https://", "mailto:", "ftp://")

#: `tests/x/test_y.py` or `tests/x/test_y.py::test_z`, in backticks.
CODE_PATH = re.compile(r"`((?:tests|benchmarks|src|tools)/[^`\s:]*\.py)"
                       r"(?:::([^`]*))?`")

#: the documents whose backticked code paths are held to the checkout.
CODE_PATH_DOCS = ("README.md", "DESIGN.md")


def tracked_markdown() -> list[str]:
    out = subprocess.run(["git", "ls-files", "*.md", "**/*.md"],
                         cwd=REPO, capture_output=True, text=True,
                         check=True).stdout
    return sorted(set(out.split()))


def _slugify(title: str) -> str:
    """GitHub's anchor algorithm: strip markdown emphasis/code marks,
    lowercase, drop everything but word characters, spaces and dashes,
    then turn spaces into dashes."""
    text = re.sub(r"[`*_]", "", title)
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", text)  # linked headings
    text = text.strip().lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def anchors_in(path: str) -> set[str]:
    """Every anchor a heading in ``path`` defines (duplicate titles get
    ``-1``, ``-2``, … suffixes, like GitHub renders them)."""
    anchors: set[str] = set()
    counts: dict[str, int] = {}
    for _lineno, line in prose_lines(path):
        match = HEADING.match(line)
        if not match:
            continue
        slug = _slugify(match.group(2))
        n = counts.get(slug, 0)
        counts[slug] = n + 1
        anchors.add(slug if n == 0 else f"{slug}-{n}")
    return anchors


def prose_lines(path: str):
    """Yield (lineno, line) for every line outside a code fence."""
    in_fence = False
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            if FENCE.match(line.strip()):
                in_fence = not in_fence
            elif not in_fence:
                yield lineno, line


def targets_in(path: str):
    """Yield (lineno, raw_target) for every intra-repo link."""
    for lineno, line in prose_lines(os.path.join(REPO, path)):
        for match in LINK.finditer(line):
            target = match.group(1)
            if not target.startswith(EXTERNAL):
                yield lineno, target


def defines(paths: list[str], name: str) -> bool:
    """Whether one of ``paths`` has a ``def`` or ``class`` for every
    ``::`` part of ``name``, its ``[param]`` suffix dropped."""
    parts = re.sub(r"\[.*\]$", "", name).split("::")
    for path in paths:
        with open(path, encoding="utf-8") as f:
            text = f.read()
        if all(re.search(rf"^\s*(?:async\s+)?(?:def|class)\s+"
                         rf"{re.escape(part)}\b", text, re.MULTILINE)
               for part in parts):
            return True
    return False


def dead_code_paths(path: str):
    """Yield (lineno, problem) for every backticked source path in
    ``path`` that names no file in the checkout, or a test name its
    file does not define."""
    for lineno, line in prose_lines(os.path.join(REPO, path)):
        for match in CODE_PATH.finditer(line):
            code_path, name = match.groups()
            found = glob.glob(os.path.join(REPO, code_path))
            if not found:
                yield lineno, f"no such file -> {code_path}"
            elif name and not defines(found, name):
                yield lineno, f"no def or class -> {code_path}::{name}"


def main(argv: list[str]) -> int:
    files = argv or tracked_markdown()
    dead = []
    anchor_cache: dict[str, set[str]] = {}

    def anchors_of(resolved: str) -> set[str]:
        if resolved not in anchor_cache:
            anchor_cache[resolved] = anchors_in(resolved)
        return anchor_cache[resolved]

    for md in files:
        if not os.path.exists(os.path.join(REPO, md)):
            dead.append(f"{md}: tracked, but missing from the working tree")
            continue
        base = os.path.dirname(os.path.join(REPO, md))
        for lineno, target in targets_in(md):
            rel, _, fragment = target.partition("#")
            resolved = os.path.normpath(os.path.join(base, rel)) if rel \
                else os.path.join(REPO, md)
            if not os.path.exists(resolved):
                dead.append(f"{md}:{lineno}: dead link -> {target}")
                continue
            if fragment and resolved.endswith(".md"):
                if fragment.lower() not in anchors_of(resolved):
                    dead.append(f"{md}:{lineno}: dead anchor -> {target}")
        if md in CODE_PATH_DOCS:
            dead += [f"{md}:{lineno}: {problem}"
                     for lineno, problem in dead_code_paths(md)]
    if dead:
        print("\n".join(dead))
        print(f"\n{len(dead)} dead intra-repo link(s)", file=sys.stderr)
        return 1
    print(f"checked {len(files)} markdown file(s): all intra-repo links "
          f"and anchors resolve")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

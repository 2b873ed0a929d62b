"""Every committed benchmark artifact, in one table, behind one gate.

Eight measured documents are committed: the full-size Table 3 with its
figures and one ``BENCH_<name>.json`` per feature experiment.  All their
numbers come from simulated clocks and counters, so a fresh run
reproduces the bytes — and each makes claims (a speedup floor, a
message count, ``starved is False``) that a byte compare cannot judge:
a red verdict, once committed, compares equal forever.  :func:`check`
does both, per row of :data:`ARTIFACTS`; tier-1 runs it
(``tests/bench/test_artifacts.py``).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, NamedTuple

from repro.bench import (cachedio, commitio, multishard, multiuser,
                         replication, seqio, vfsio)
from repro.bench.harness import run_all_configs
from repro.bench.report import format_all, table3_verdict

#: the checkout the committed paths are relative to.
ROOT = Path(__file__).resolve().parents[3]


class Artifact(NamedTuple):
    path: str                               # committed file, under ROOT
    run: Callable[[], object]               # regenerate the document
    render: Callable[[object], str]         # its committed text
    verdict: Callable[[object], list[str]]  # claims it fails ([] = green)


def _json(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


ARTIFACTS = {
    "table3": Artifact("bench_table3_full.txt", run_all_configs,
                       format_all, table3_verdict),
    "seqio": Artifact("BENCH_seqio.json", seqio.run_seqio,
                      _json, seqio.verdict),
    "commitio": Artifact("BENCH_commitio.json", commitio.run_commitio,
                         _json, commitio.verdict),
    "multiuser": Artifact("BENCH_multiuser.json", multiuser.run_multiuser,
                          _json, multiuser.verdict),
    "multishard": Artifact("BENCH_multishard.json",
                           multishard.run_multishard,
                           _json, multishard.verdict),
    "cachedio": Artifact("BENCH_cachedio.json", cachedio.run_cachedio,
                         _json, cachedio.verdict),
    "replication": Artifact("BENCH_replication.json",
                            replication.run_replication,
                            _json, replication.verdict),
    "vfsio": Artifact("BENCH_vfsio.json", vfsio.run_vfsio,
                      _json, vfsio.verdict),
}


def run(name: str, out: str | None = None) -> int:
    """Regenerate one artifact into ``out`` (default: its committed
    path)."""
    artifact = ARTIFACTS[name]
    target = Path(out) if out else ROOT / artifact.path
    target.write_text(artifact.render(artifact.run()), encoding="utf-8")
    print(f"wrote {target}")
    return 0


def check(names: list[str]) -> int:
    """Regenerate each named artifact (all of them by default) in
    memory and hold it to its committed bytes and its verdict; one line
    per artifact, 1 if any drifted or is red."""
    status = 0
    for name in names or ARTIFACTS:
        artifact = ARTIFACTS[name]
        doc = artifact.run()
        committed = (ROOT / artifact.path).read_bytes()
        problems = artifact.verdict(doc)
        if artifact.render(doc).encode("utf-8") != committed:
            problems.insert(0, f"a fresh run differs from the committed "
                               f"file (python -m repro.bench run {name}, "
                               f"then review the diff)")
        print(f"{'RED' if problems else 'ok '} {name:<12} {artifact.path}"
              + "".join(f"\n      - {p}" for p in problems), flush=True)
        status |= bool(problems)
    return status

#!/usr/bin/env python3
"""Alternating parent/change pairs of the standing end-to-end benchmark.

A change that claims a gain has to show it pair by pair against its
parent commit (choosing-metrics §8): the same benchmark code and
settings on both sides, which side runs first alternating, the change
winning at least nine pairs in ten, the medians further apart than the
parent's own quartiles.  A simulated metric repeats exactly for a seed,
so it is one number per side: `equal`, or `parent → change (±x %)`
judged by the `better` / `bound` BENCHMARK.json gives that metric —
`better`, `within bound` or `worse`.  This runs the pairs and prints
that table in the form EXPERIMENTS.md keeps.

The parent is materialised from ``git archive REV`` in a temporary
directory (no worktree is registered, nothing under ``.git`` changes);
the change is the working tree the tool sits in.  Each run is one
``benchmarks/e2e/run.py --workload W --seed S --seconds N --trace 0``
process; its last line is the result.  Exits non-zero if a run was not
correct, or a simulated metric did not repeat on one side or reads
`worse`.  (A host-only change must move no simulated number: there,
every simulated row has to read `equal`.)

Run:  python tools/bench_pairs.py --parent REV --workload W [--workload …]
                                  [--pairs 10] [--seed 0] [--seconds 12]
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: exact for a seed: compared for equality, never by median
#: (``benchmarks/e2e/measure.py`` ``SIM_EXACT``).
SIMULATED = ("sim_ops_per_s", "sim_p50_ms", "sim_p99_ms", "write_amp",
             "space_amp")


def materialise(rev: str, dest: str) -> None:
    """Unpack the tree of ``rev`` into ``dest``."""
    archive = subprocess.run(["git", "archive", rev], cwd=REPO, check=True,
                             capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def run_once(tree: str, command: list[str], workload: str, seed: int,
             seconds: float) -> dict:
    """One benchmark process in ``tree``; its result document."""
    out = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    if out.returncode:
        sys.exit(f"{tree}: {workload} exited {out.returncode}\n{out.stderr}")
    return json.loads(out.stdout.splitlines()[-1])


def _fmt(x: float) -> str:
    return f"{x:.4g}"


def _median_iqr(values: list[float]) -> str:
    if len(values) < 2:
        return _fmt(values[0])
    q1, _q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"{_fmt(statistics.median(values))} [{_fmt(q1)}, {_fmt(q3)}]"


def judge_simulated(spec: dict, a: list[float], b: list[float]) -> str:
    """The verdict on one simulated metric, each side's runs given."""
    if len(set(a)) > 1 or len(set(b)) > 1:
        return "NOT REPEATABLE"
    if a[0] == b[0]:
        return "equal"
    moved = (b[0] - a[0]) / a[0] if a[0] else float("inf")
    gain = moved if spec["better"] == "higher" else -moved
    verdict = ("better" if gain > 0 else
               "within bound" if -gain <= spec["bound"] else "worse")
    return f"{moved:+.1%} {verdict}"


def report(workload: str, metrics: list[dict], parent: list[dict],
           change: list[dict]) -> bool:
    """Print one workload's rows; True when every run was correct and
    no simulated metric is worse than its bound or failed to repeat."""
    ok = True
    for side, runs in (("parent", parent), ("change", change)):
        bad = [i for i, r in enumerate(runs) if not r["correct"] or r["failed"]]
        if bad:
            print(f"{workload}: {side} runs {bad} were not correct")
            ok = False
    for spec in metrics:
        name = spec["name"]
        a = [r["metrics"][name]["value"] for r in parent]
        b = [r["metrics"][name]["value"] for r in change]
        if name in SIMULATED:
            verdict = judge_simulated(spec, a, b)
            ok = ok and not verdict.endswith(("worse", "NOT REPEATABLE"))
            print(f"| {workload} | {name} | {a[0]!r} | {b[0]!r} | "
                  f"{verdict} | |")
            continue
        higher = spec["better"] == "higher"
        wins = sum((y > x) if higher else (y < x) for x, y in zip(a, b))
        ratio = statistics.median(b) / statistics.median(a)
        # Higher-is-better metrics read as a speed-up factor, the rest
        # as a share of the parent's cost.
        shown = f"{ratio:.2f}×" if higher else f"{ratio:.3f}"
        print(f"| {workload} | {name} ({spec['unit']}) | {_median_iqr(a)} | "
              f"{_median_iqr(b)} | {shown} | {wins}/{len(a)} |")
    return ok


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, metavar="REV")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=12.0)
    args = ap.parse_args(argv)

    with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
        manifest = json.load(fh)
    runs: dict[str, dict[str, list[dict]]] = {
        w: {"parent": [], "change": []} for w in args.workload}
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as parent_tree:
        materialise(args.parent, parent_tree)
        trees = {"parent": parent_tree, "change": REPO}
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 \
                else ("change", "parent")
            for workload in args.workload:
                for side in order:
                    result = run_once(trees[side], manifest["command"],
                                      workload, args.seed, args.seconds)
                    runs[workload][side].append(result)
                print(f"pair {pair + 1}/{args.pairs} {workload}: " + ", ".join(
                    "%s %s" % (side, _fmt(runs[workload][side][-1]["metrics"]
                                          ["host_ops_per_s"]["value"]))
                    for side in order), file=sys.stderr)

    print(f"{args.pairs} pairs, parent {args.parent}, --seed {args.seed} "
          f"--seconds {args.seconds:g}; median [q1, q3]; wins = pairs in "
          f"which the change read better\n")
    print("| workload | metric | parent | change | change / parent | wins |")
    print("|---|---|---|---|---|---|")
    ok = True
    for workload in args.workload:
        ok = report(workload, manifest["end_to_end"],
                    runs[workload]["parent"], runs[workload]["change"]) \
            and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

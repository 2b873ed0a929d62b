"""CLI: regenerate the paper's figures and Table 3, or check the
committed full-size run against a fresh one.

Usage::

    python -m repro.bench all            # everything, full size
    python -m repro.bench fig3           # one figure
    python -m repro.bench table3 --scale 0.2
    python -m repro.bench run [OUT]      # rewrite bench_table3_full.txt
    python -m repro.bench check          # fresh run == committed bytes,
                                         # every paper claim green

Every number comes from simulated clocks, so a fresh full-size run
reproduces ``bench_table3_full.txt`` byte for byte — and the table makes
claims (the paper's seventeen, :func:`~repro.bench.report.table3_verdict`)
that a byte compare cannot judge: a red verdict, once committed,
compares equal forever.  :func:`check` does both; tier-1 runs it
(``tests/bench/test_artifacts.py``).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.bench.harness import run_all_configs
from repro.bench.report import (FIGURES, format_all, format_figure,
                                format_table3, table3_verdict)
from repro.bench.workload import BenchmarkSizes

#: the committed full-size Table 3 and figures, at the checkout's root.
COMMITTED = Path(__file__).resolve().parents[3] / "bench_table3_full.txt"


def run(out: str | None = None) -> int:
    """Regenerate the full-size table into ``out`` (default: the
    committed file)."""
    target = Path(out) if out else COMMITTED
    target.write_text(format_all(run_all_configs()), encoding="utf-8")
    print(f"wrote {target}")
    return 0


def check() -> int:
    """Regenerate the full-size table in memory and hold it to the
    committed bytes and to the paper's claims; 1 if it drifted or a
    claim is red."""
    results = run_all_configs()
    problems = table3_verdict(results)
    if format_all(results).encode("utf-8") != COMMITTED.read_bytes():
        problems.insert(0, "a fresh run differs from the committed file "
                           "(python -m repro.bench run, then review the "
                           "diff)")
    print(f"{'RED' if problems else 'ok '} {COMMITTED.name}"
          + "".join(f"\n      - {p}" for p in problems), flush=True)
    return int(bool(problems))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Reproduce the Inversion paper's figures and Table 3; "
                    "regenerate or check the committed full-size run.")
    parser.add_argument("target",
                        choices=["all", "table3", *FIGURES, "run", "check"],
                        help="which figure/table to print, or: run [OUT] "
                             "regenerates bench_table3_full.txt, check "
                             "holds it to a fresh run and the paper's "
                             "claims")
    parser.add_argument("out", nargs="?", metavar="OUT",
                        help="where run writes (default: the committed "
                             "file)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="workload scale factor (1.0 = the paper's "
                             "25 MB file and 1 MB transfers)")
    args = parser.parse_args(argv)
    if args.target == "run":
        return run(args.out)
    if args.out:
        parser.error(f"{args.target} takes no OUT")
    if args.target == "check":
        return check()

    sizes = (BenchmarkSizes() if args.scale >= 1.0
             else BenchmarkSizes.scaled(args.scale))
    note = "" if args.scale >= 1.0 else f"scaled x{args.scale}"
    results = run_all_configs(sizes)

    if args.target == "all":
        sys.stdout.write(format_all(results, note))
    elif args.target == "table3":
        print(format_table3(results, note))
        print()
    else:
        print(format_figure(args.target, results, note))
    return 0


if __name__ == "__main__":
    sys.exit(main())

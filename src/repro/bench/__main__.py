"""CLI: regenerate the paper's figures and table; regenerate or check
the committed benchmark artifacts (:mod:`repro.bench.artifacts`).

Usage::

    python -m repro.bench all            # everything, full size
    python -m repro.bench fig3           # one figure
    python -m repro.bench table3 --scale 0.2
    python -m repro.bench run seqio      # rewrite BENCH_seqio.json
    python -m repro.bench check          # every artifact: fresh run ==
                                         # committed bytes, verdict green
"""

from __future__ import annotations

import argparse
import sys

from repro.bench.artifacts import ARTIFACTS, check, run
from repro.bench.harness import run_all_configs
from repro.bench.report import (FIGURES, format_all, format_figure,
                                format_table3)
from repro.bench.workload import BenchmarkSizes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Reproduce the Inversion paper's figures and Table 3; "
                    "regenerate or check the committed artifacts.")
    parser.add_argument("target",
                        choices=["all", "table3", *FIGURES, "run", "check"],
                        help="which figure/table to print, or: run NAME "
                             "[OUT] regenerates a committed artifact, "
                             "check [NAME ...] holds them to a fresh run "
                             "and their verdicts")
    parser.add_argument("names", nargs="*", metavar="NAME",
                        help="artifact names (run, check only)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="workload scale factor (1.0 = the paper's "
                             "25 MB file and 1 MB transfers)")
    args = parser.parse_args(argv)
    if args.target in ("run", "check"):
        running = args.target == "run"
        if running and not 1 <= len(args.names) <= 2:
            parser.error("run takes NAME [OUT]")
        names = args.names[:1] if running else args.names
        unknown = [name for name in names if name not in ARTIFACTS]
        if unknown:
            print(f"unknown artifact {', '.join(unknown)}; choose from "
                  f"{', '.join(ARTIFACTS)}", file=sys.stderr)
            return 2
        return run(*args.names) if running else check(names)
    if args.names:
        parser.error(f"{args.target} takes no artifact names")

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

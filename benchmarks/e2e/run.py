#!/usr/bin/env python3
"""The standing end-to-end benchmark: five stack workloads, two
currencies, a conserved per-layer ledger.

    python3 benchmarks/e2e/run.py --seed 0             # all five, untraced
    python3 benchmarks/e2e/run.py --seed 0 --traced    # + per-layer pass
    python3 benchmarks/e2e/run.py --workload bulk_io --seed 0 \\
            --seconds 10 --trace 0                     # one run, one process
    python3 benchmarks/e2e/run.py --compare A.json B.json

With ``--workload`` the run happens in this process and the last line
of standard output is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``).  Without it every workload runs in its own
subprocess, so ``peak_rss_mb`` is per workload.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
WORKLOAD_NAMES = ("bulk_io", "namespace_churn", "multiuser_mix",
                  "sharded_mix", "replica_reads")
#: inputs a run is measured on, and so its least number of rounds:
#: round r of ``--seed s`` is built from input seed 3 s + r mod 3.  One
#: input's tail percentile and retry count vary by up to 20 % from seed
#: to seed on the contended mixes; three pooled inputs vary by half that.
INPUTS = 3
#: set-ups timed per run (rounds included) while they fit in the extra
#: seconds; expensive set-ups get at least one extra sample.
SETUP_SAMPLES = 9
EXTRA_SETUP_SECONDS = 2.0
#: BENCHMARK.json's ``run_seconds``
DEFAULT_SECONDS = 12.0


def _load():
    """Import the benchmark package (and through it the program)."""
    if not os.path.isdir(os.path.join(REPO_ROOT, "src", "repro")):
        sys.stderr.write("e2e benchmark: no program source under "
                         f"{os.path.join(REPO_ROOT, 'src')}\n")
        raise SystemExit(2)
    # Import as the package ``e2e``; the script directory itself must
    # not be on the path (its trace.py would shadow the stdlib's).
    parent = os.path.dirname(HERE)
    sys.path[:] = [p for p in sys.path if os.path.abspath(p or ".") != HERE]
    sys.path.insert(0, parent)
    import e2e.measure as measure
    from e2e import (wl_bulk_io, wl_multiuser_mix, wl_namespace_churn,
                     wl_replica_reads, wl_sharded_mix)
    workloads = {w.NAME: w for w in (wl_bulk_io, wl_namespace_churn,
                                     wl_multiuser_mix, wl_sharded_mix,
                                     wl_replica_reads)}
    assert tuple(workloads) == WORKLOAD_NAMES
    return measure, workloads


# -- one workload, this process ------------------------------------------------

def _print_metrics(title: str, metrics: dict, specs, notes: dict) -> None:
    print(f"\n{title}")
    units = {name: unit for name, unit, *_ in specs}
    for name, value in metrics.items():
        note = notes.get(name, "")
        print(f"  {name:<46} {value:>16.6f} {units.get(name, 'ratio'):<6}"
              f"{'  ' + note if note else ''}")


def _layer_table(metrics: dict, rnd) -> None:
    from e2e.trace import LAYERS, LEDGER
    total = sum(metrics[f"{layer}.host_self_s"] for layer in LAYERS)
    print(f"\n  per-layer host self time (traced window {rnd.host_s:.3f} s, "
          f"{rnd.tracer.rows_total} spans, "
          f"{max(0, rnd.tracer.rows_total - rnd.tracer.max_rows)} beyond "
          f"the in-memory cap)")
    print(f"  {'layer':<20}{'calls':>12}{'self s':>12}{'share':>9}")
    for layer in sorted(LAYERS,
                        key=lambda n: -metrics[f"{n}.host_self_s"]):
        calls = metrics[f"{layer}.calls"]
        if not calls:
            continue
        self_s = metrics[f"{layer}.host_self_s"]
        print(f"  {layer:<20}{calls:>12.0f}{self_s:>12.4f}"
              f"{self_s / total:>9.1%}")
    print(f"\n  simulated-time ledger of the slowest clock "
          f"(elapsed {rnd.sim_s:.6f} s)")
    for col in LEDGER:
        value = metrics[f"ledger.{col}"]
        print(f"  {col:<20}{value:>14.6f} s{value / rnd.sim_s:>9.1%}")


def run_workload(args) -> int:
    measure, workloads = _load()
    wl = workloads[args.workload]
    print(f"== {wl.NAME}: {wl.WHY}")
    print(f"   seed {args.seed}, {args.seconds} s, "
          f"{'traced' if args.trace else 'untraced'}"
          f"{', smoke scale' if args.smoke else ''}")
    problems: list[str] = []
    ninputs = 2 if args.smoke else INPUTS
    first_input = args.seed * ninputs
    if not args.trace:
        rounds = []
        began = time.perf_counter()
        spent = 0.0      # wall seconds of whole rounds, set-up included
        while (len(rounds) < ninputs
               or spent + spent / len(rounds) <= args.seconds):
            # the first round also verifies the end state and recovery
            rounds.append(measure.run_round(
                wl, first_input + len(rounds) % ninputs, args.smoke,
                verify=not rounds))
            spent = time.perf_counter() - began
        # Set-up is cheap for most stacks: time a few more of them, so
        # that setup_s is a median of several.
        setups: list[float] = []
        began = time.perf_counter()
        while (len(rounds) + len(setups) < SETUP_SAMPLES
               and (time.perf_counter() - began) * (1 + 1 / (len(setups) or 1))
               <= EXTRA_SETUP_SECONDS):
            setups.append(measure.time_setup(wl, first_input, args.smoke))
        metrics, problems = measure.end_to_end(rounds, ninputs, setups)
        specs, kind = measure.END_TO_END, "end_to_end"
        first = rounds[0]
        n = sum(len(r.rec.op_sim) for r in rounds[:ninputs])
        q = measure.tail_quantile(n)
        notes = {
            "sim_p99_ms": f"p{q * 100:.2f} of n={n} ops of {ninputs} inputs",
            "sim_p50_ms": f"n={n} ops of {ninputs} inputs",
            "host_ops_per_s": f"median of {len(rounds)} rounds",
            "setup_s": f"median of {len(rounds) + len(setups)} set-ups",
        }
        print(f"   {len(rounds)} rounds in {spent:.2f} s, windows "
              f"{sum(r.host_s for r in rounds):.2f} s wall / "
              f"{sum(r.cpu_s for r in rounds):.2f} s calibrated user CPU, "
              f"{first.sim_s:.3f} s simulated in the first")
    else:
        # the run's first input, once without and once with tracing
        base = measure.run_round(wl, first_input, args.smoke, verify=False)
        tracer = measure.Tracer()
        rnd = measure.run_round(wl, first_input, args.smoke, tracer=tracer)
        rounds = [rnd]
        plain, traced = measure.sim_metrics([base]), measure.sim_metrics([rnd])
        # (only the traced round verifies its end state, so only it can
        # have failures of that kind)
        if any(plain[name] != traced[name] for name in measure.SIM_EXACT
               if name != "failed_share"):
            problems.append("tracing changed a simulated metric")
        metrics, more = measure.per_layer(rnd, base)
        problems += more
        specs, kind, notes = measure.PER_LAYER, "per_layer", {}
        if args.trace_out:
            tracer.write_jsonl(args.trace_out, wl.NAME)
    measure.check_declared(kind, metrics)
    _print_metrics(f"{kind} metrics", metrics, specs, notes)
    if args.trace:
        _layer_table(metrics, rounds[0])
    if "table3" in rounds[0].rec.extra:
        print("\n  Table 3, inversion_cs, pass 0 (simulated s): "
              + ", ".join(f"{k}={v:.3f}" for k, v
                          in rounds[0].rec.extra["table3"].items()))
    attempted = sum(r.rec.attempted for r in rounds)
    failed = sum(r.rec.failed for r in rounds)
    for r in rounds:
        for why in r.rec.failures:
            print(f"  FAILED: {why}")
    for why in problems:
        print(f"  PROBLEM: {why}")
    units = {name: unit for name, unit, *_ in specs}
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items() if name in units},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# -- every workload, one subprocess each ------------------------------------------

def _spawn(args, name: str, trace: int) -> dict:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(trace)]
    if args.smoke:
        cmd.append("--smoke")
    if trace and args.trace_out:
        cmd += ["--trace-out", args.trace_out]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          cwd=REPO_ROOT, check=False)
    sys.stdout.write(proc.stdout)
    if proc.returncode not in (0, 1):
        raise SystemExit(f"{name}: benchmark process exited "
                         f"{proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_all(args) -> int:
    if args.trace_out and os.path.exists(args.trace_out):
        os.remove(args.trace_out)
    doc = {"seed": args.seed, "seconds": args.seconds, "smoke": args.smoke,
           "repeat": args.repeat, "workloads": {}}
    ok = True
    for name in WORKLOAD_NAMES:
        runs = [_spawn(args, name, 0) for _ in range(args.repeat)]
        entry = {"runs": runs}
        if args.traced:
            entry["traced"] = _spawn(args, name, 1)
        doc["workloads"][name] = entry
        ok = ok and all(r["correct"] for r in runs) and (
            not args.traced or entry["traced"]["correct"])
    if args.json_out:
        os.makedirs(os.path.dirname(os.path.abspath(args.json_out)),
                    exist_ok=True)
        with open(args.json_out, "w", encoding="utf-8") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")
    print(f"\n{'all workloads correct' if ok else 'SOME WORKLOAD FAILED'}")
    return 0 if ok else 1


# -- comparing two sets of runs -----------------------------------------------------

def _spread(values: list[float]) -> float:
    """Run-to-run spread as a share of the median: the interquartile
    distance from four runs up, the full range below that."""
    mid = statistics.median(values)
    if len(values) < 2 or not mid:
        return 0.0
    if len(values) >= 4:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
        return (q3 - q1) / abs(mid)
    return (max(values) - min(values)) / abs(mid)


def _all_better(vals_a, vals_b, better: str) -> bool:
    """Every run of B reads better than every run of A."""
    if better == "lower":
        return max(vals_b) < min(vals_a)
    return min(vals_b) > max(vals_a)


def compare(path_a: str, path_b: str) -> int:
    """Apply the benchmark's own bounds to two result documents (A is
    the parent, B the candidate).  One row per workload."""
    measure, _workloads = _load()
    with open(path_a, encoding="utf-8") as f:
        doc_a = json.load(f)
    with open(path_b, encoding="utf-8") as f:
        doc_b = json.load(f)
    exact = set(measure.SIM_EXACT)
    regressed = unresolved = 0
    details = []
    names = [m[0] for m in measure.END_TO_END]
    print(f"{'workload':<17}" + "".join(f"{n[:13]:>14}" for n in names))
    for wl in WORKLOAD_NAMES:
        cells = []
        for name, _unit, better, bound in measure.END_TO_END:
            vals_a = [r["metrics"][name]["value"]
                      for r in doc_a["workloads"][wl]["runs"]]
            vals_b = [r["metrics"][name]["value"]
                      for r in doc_b["workloads"][wl]["runs"]]
            a, b = statistics.median(vals_a), statistics.median(vals_b)
            sign = 1.0 if better == "lower" else -1.0
            worse = sign * (b - a) / abs(a) if a else 0.0
            mark = ""
            if name in exact and doc_a["seed"] == doc_b["seed"]:
                if set(vals_a) != set(vals_b) or len(set(vals_a)) != 1:
                    mark = "!" if worse > 0 else "~"
                    details.append(f"{wl}.{name}: simulated value changed "
                                   f"{a!r} -> {b!r}")
            elif (max(_spread(vals_a), _spread(vals_b)) > bound
                  and not _all_better(vals_a, vals_b, better)):
                mark = "?"
                details.append(
                    f"{wl}.{name}: unresolved — spread "
                    f"{max(_spread(vals_a), _spread(vals_b)):.1%} exceeds "
                    f"the {bound:.0%} bound (medians {a:.6g} -> {b:.6g})")
            elif worse > bound:
                mark = "!"
                details.append(f"{wl}.{name}: worse by {worse:.1%} "
                               f"(bound {bound:.0%}): {a:.6g} -> {b:.6g}")
            regressed += mark == "!"
            unresolved += mark == "?"
            cells.append(f"{-sign * worse:>+12.1%}{mark or ' ':>2}")
        failed_b = sum(r["failed"] for r in doc_b["workloads"][wl]["runs"])
        failed_a = sum(r["failed"] for r in doc_a["workloads"][wl]["runs"])
        if failed_b > failed_a:
            regressed += 1
            details.append(f"{wl}: failed ops rose {failed_a} -> {failed_b}")
        print(f"{wl:<17}" + "".join(cells))
    print("\n(+ is better for the candidate; ! regressed, ? unresolved, "
          "~ simulated value changed for the better)")
    for line in details:
        print("  " + line)
    print(f"{regressed} regressed, {unresolved} unresolved")
    return 1 if regressed else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                    help="wall seconds of rounds per workload (one round "
                         "per input runs regardless)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="with --workload: 1 = the traced per-layer pass")
    ap.add_argument("--traced", action="store_true",
                    help="without --workload: add a traced pass per workload")
    ap.add_argument("--trace-out", help="append spans as JSONL to this file")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes (the smoke test's scale)")
    ap.add_argument("--repeat", type=int, default=1,
                    help="without --workload: untraced runs per workload")
    ap.add_argument("--json-out", help="write every run's result here")
    ap.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    started = time.perf_counter()
    try:
        return run_workload(args) if args.workload else run_all(args)
    finally:
        sys.stderr.write(f"[e2e] {time.perf_counter() - started:.1f} s\n")


if __name__ == "__main__":
    raise SystemExit(main())

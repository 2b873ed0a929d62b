#!/usr/bin/env python3
"""The count gates a traced end-to-end run is held to.

Each row of :data:`GATES` is one check on one workload's traced pass
(``benchmarks/e2e/run.py --workload W --seed 0 --seconds 3 --trace 1``,
whose simulated numbers repeat exactly): the metric, how it must
compare with the bound, the bound, and why the bound sits there —
what the metric reads now and what it read when the mechanism it
guards was missing.  Every gated run must also be ``correct``.

Run:
    python3 benchmarks/e2e/run.py --workload bulk_io --seed 0 \\
        --seconds 3 --trace 1 | tail -n 1 > bulk.json
    python3 tools/e2e_gates.py bulk_io bulk.json

Prints one line per breached gate to stderr and exits 1; exits 0 when
every gate of the workload holds.
"""

from __future__ import annotations

import json
import operator
import sys

COMPARE = {"<": operator.lt, "<=": operator.le, "==": operator.eq,
           ">=": operator.ge}

#: (workload, metric, comparison, bound, why).
GATES = [
    # DDL stays O(1), on the host and in simulated cost.
    ("namespace_churn", "devices.magnetic.allocmap_bytes", "<", 500_000,
     "the pass checkpoints the allocation map a handful of times; it used "
     "to rewrite it 704 times, 9 665 163 bytes. One size-triggered "
     "checkpoint (≈ 23 KB) landed inside the window while a file "
     "journalled three or four extents where it journalled two; none "
     "since a small file stopped journalling an index's"),
    ("namespace_churn", "db.catalog.scans_per_lookup", "==", 0.0,
     "table lookups go through the syscache maps; 0.352 scans per lookup "
     "before them, each one a tuple_unpack per visible catalog row"),
    ("namespace_churn", "db.transactions.status_forces", "==", 216,
     "one status force per namespace-changing call; it was 536 when "
     "write_file was three auto-commits"),
    ("namespace_churn", "sim.disk.seek_share", "<", 0.6,
     "0.95 when every relation had a cylinder to itself and commits swept "
     "by relation name"),
    ("namespace_churn", "db.buffer.evictions", "==", 0,
     "a file that fits a page has no chunkno index, so a read of it no "
     "longer evicts what the run still needs"),
    ("namespace_churn", "sim.disk.calls", "<", 2000,
     "1828; 2582 with an index per file"),
    ("namespace_churn", "op.create.sim_p50_ms", "<", 90,
     "a one-page file's create writes 8 pages, not 10: 82.5 ms, was 109.8 "
     "with an index per file"),
    # A chunk's versions meet newest first at any heap size: index
    # entries are keyed (user key, big-endian TID), so past heap page 255
    # a probe still fetches the live version first.
    ("bulk_io", "db.buffer.evictions", "==", 0,
     "9 861 when the little-endian suffix sorted TID(256, 0) before "
     "TID(255, 0) and every probe past page 255 pulled superseded "
     "versions' pages through the cache"),
    ("bulk_io", "sim.disk.calls", "<", 7000,
     "5 527; 19 537 with the little-endian suffix"),
    ("bulk_io", "ledger.disk_s", "<", 120,
     "89.0 s; 257.6 s with the little-endian suffix"),
    # A lock waiter keeps its place while the queue ahead of it moves.
    ("multiuser_mix", "db.locks.timeouts", "<=", 100,
     "a wait times out only when the transactions ahead of it stay the "
     "same for the whole timeout: 41 here. It was 460 when the timeout "
     "measured the length of the wait, each one an abort and a re-queue "
     "at the back of the /f0 convoy"),
    ("multiuser_mix", "ledger.sched_idle_s", "==", 0.0,
     "cycles are found on the live lock table, so no parked session waits "
     "out a deadline with nothing runnable. With stall timeouts over the "
     "stored waits-for edges (a waiter parked beneath others kept naming "
     "a holder long gone) real cycles hid, and the run burned 4.99 s idle"),
    # A replica keeps its buffer cache across sync rounds: a shipped page
    # refreshes a resident frame in place.
    ("replica_reads", "db.buffer.hit_rate", ">=", 0.98,
     "0.990 with frames kept; 0.925 when every round dropped the whole "
     "cache and readers re-read every page from disk"),
    ("replica_reads", "ledger.disk_s", "<=", 14,
     "the slowest replica's disk time: 11.93 s when a sync round writes "
     "each page once, heap then index, and forces one status append per "
     "segment; 18.69 s when every shipped entry is its own device write; "
     "34.87 s when, besides, each round dropped the cache and readers "
     "re-read every page"),
    ("replica_reads", "sim.network.round_trips_per_op", "<=", 1.6,
     "1.4 exchanges an op: a whole-file replica read is one p_open whose "
     "reply carries the file and EOF, the close riding the next request, "
     "and the writer's begin/open/seek/write/close/commit is three. 2.0 "
     "with a six-exchange writer, 2.2 when the open carries no bytes, 2.8 "
     "with both, 6.0 when each chunk, EOF and close is its own"),
]


def breaches(workload: str, run: dict) -> list[str]:
    """Every gate of ``workload`` that ``run`` (one line of run.py's
    output, parsed) fails, as a line naming the metric."""
    if not any(row[0] == workload for row in GATES):
        return [f"no gates for workload {workload!r}"]
    problems = [] if run["correct"] else ["the run was not correct"]
    metrics = run["metrics"]
    for name, metric, compare, bound, why in GATES:
        if name != workload:
            continue
        value = metrics[metric]["value"]
        if not COMPARE[compare](value, bound):
            problems.append(f"{metric} = {value!r}, want {compare} {bound} "
                            f"({why})")
    return problems


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: e2e_gates.py WORKLOAD RUN_JSON", file=sys.stderr)
        return 2
    workload, path = argv
    with open(path, encoding="utf-8") as f:
        problems = breaches(workload, json.load(f))
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        return 1
    print(f"ok {workload}: {sum(row[0] == workload for row in GATES)} "
          f"gates hold")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

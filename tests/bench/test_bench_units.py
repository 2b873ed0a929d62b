"""Unit tests for the benchmark harness itself."""

import json
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench.report import (
    PAPER_TABLE3,
    format_figure,
    format_table3,
    shape_ratios,
)
from repro.bench.workload import Benchmark, BenchmarkSizes, PAGE_IO


def test_sizes_default_match_paper():
    sizes = BenchmarkSizes()
    assert sizes.file_size == 25_000_000
    assert sizes.transfer_size == 1_000_000
    assert sizes.io_size is None  # adapter decides


def test_sizes_scaled_bounds():
    tiny = BenchmarkSizes.scaled(0.0001)
    assert tiny.file_size >= 4 * PAGE_IO
    assert tiny.transfer_size >= 2 * PAGE_IO
    half = BenchmarkSizes.scaled(0.5)
    assert half.file_size == 12_500_000


def test_paper_table3_complete():
    for config in ("inversion_cs", "nfs", "inversion_sp"):
        assert set(PAPER_TABLE3[config]) == set(Benchmark.ALL_OPS)


def test_paper_numbers_shape_sanity():
    """The transcription itself must encode the paper's story."""
    cs, nfs, sp = (PAPER_TABLE3["inversion_cs"], PAPER_TABLE3["nfs"],
                   PAPER_TABLE3["inversion_sp"])
    for op in Benchmark.ALL_OPS:
        assert cs[op] >= nfs[op], op          # NFS beats client/server
        assert sp[op] <= cs[op], op           # in-process beats remote
    # The one NFS win over single-process:
    assert nfs["write_random_pages"] < sp["write_random_pages"]


def test_shape_ratios():
    results = {"inversion_cs": {"create": 100.0}, "nfs": {"create": 50.0},
               "inversion_sp": {}}
    assert shape_ratios(results) == {"create": 2.0}


def test_format_table3_includes_paper_rows():
    results = {c: dict.fromkeys(Benchmark.ALL_OPS, 1.0)
               for c in ("inversion_cs", "nfs", "inversion_sp")}
    text = format_table3(results, "unit test")
    assert "Create 25MByte file" in text
    assert "(paper)" in text
    assert "unit test" in text


def test_format_figure_each():
    results = {c: dict.fromkeys(Benchmark.ALL_OPS, 1.0)
               for c in ("inversion_cs", "nfs", "inversion_sp")}
    for fig in ("fig3", "fig4", "fig5", "fig6"):
        text = format_figure(fig, results)
        assert "Figure" in text
        assert "#" in text  # the bars


def test_benchmark_payload_deterministic():
    class Dummy:
        clock = None
    bench_a = Benchmark.__new__(Benchmark)
    bench_b = Benchmark.__new__(Benchmark)
    assert bench_a._payload(1000, 3) == bench_b._payload(1000, 3)
    assert bench_a._payload(1000, 3) != bench_a._payload(1000, 4)
    assert len(bench_a._payload(12345, 0)) == 12345


def test_random_offsets_deterministic_and_aligned():
    bench = Benchmark.__new__(Benchmark)
    bench.seed = 42
    a = bench._random_offsets(10, 100_000, 8192, "x")
    b = bench._random_offsets(10, 100_000, 8192, "x")
    c = bench._random_offsets(10, 100_000, 8192, "y")
    assert a == b
    assert a != c
    assert all(off % 8192 == 0 for off in a)
    assert all(0 <= off < 100_000 for off in a)


def test_e2e_gates_exit_1_naming_the_breached_metric(tmp_path):
    """``tools/e2e_gates.py`` on a synthetic run of namespace_churn:
    every gate exactly at (or just inside) its bound passes; one status
    force too many fails, and the line names the metric."""
    tools = Path(__file__).parents[2] / "tools"
    gates = runpy.run_path(str(tools / "e2e_gates.py"))["GATES"]
    inside = {"<": -1, "<=": 0, "==": 0, ">=": 0}
    metrics = {metric: {"value": bound + inside[compare]}
               for workload, metric, compare, bound, _why in gates
               if workload == "namespace_churn"}

    def gate(run):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(run))
        return subprocess.run(
            [sys.executable, str(tools / "e2e_gates.py"), "namespace_churn",
             str(path)], capture_output=True, text=True)

    held = gate({"correct": True, "metrics": metrics})
    assert held.returncode == 0, held.stderr
    metrics["db.transactions.status_forces"]["value"] = 217
    breached = gate({"correct": True, "metrics": metrics})
    assert breached.returncode == 1
    assert breached.stderr.startswith(
        "db.transactions.status_forces = 217, want == 216 (")
    assert gate({"correct": False, "metrics": metrics}).returncode == 1

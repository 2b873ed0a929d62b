"""Smoke test of the end-to-end benchmark, at ``--smoke`` scale.

Outside tier-1 ``testpaths``; run it with::

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import subprocess
import sys

import pytest

from . import measure, run
from .common import REPO_ROOT
from .trace import LAYER_CLASSES, LEDGER, Tracer
from . import (wl_bulk_io, wl_multiuser_mix, wl_namespace_churn,
               wl_replica_reads, wl_sharded_mix)

WORKLOADS = (wl_bulk_io, wl_namespace_churn, wl_multiuser_mix,
             wl_sharded_mix, wl_replica_reads)
RUN_PY = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")

with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    MANIFEST = json.load(_f)


def _cli(*args: str) -> dict:
    proc = subprocess.run([sys.executable, RUN_PY, *args], cwd=REPO_ROOT,
                          stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_manifest_matches_the_code():
    assert [w["name"] for w in MANIFEST["workloads"]] == [
        w.NAME for w in WORKLOADS]
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in MANIFEST["end_to_end"]] == list(measure.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in MANIFEST["per_layer"]] == list(measure.PER_LAYER)
    assert any(m["name"] == "setup_s" for m in MANIFEST["end_to_end"])
    assert MANIFEST["run_seconds"] == run.DEFAULT_SECONDS
    assert MANIFEST["paths"] == ["benchmarks/e2e"]


@pytest.mark.parametrize("trace,key", [("0", "end_to_end"),
                                       ("1", "per_layer")])
def test_printed_names_are_the_declared_names(trace, key):
    result = _cli("--workload", "namespace_churn", "--smoke", "--seed", "3",
                  "--seconds", "0", "--trace", trace)
    assert result["correct"] and result["failed"] == 0
    assert sorted(result["metrics"]) == sorted(
        m["name"] for m in MANIFEST[key])
    units = {m["name"]: m["unit"] for m in MANIFEST[key]}
    assert {n: v["unit"] for n, v in result["metrics"].items()} == units


@pytest.mark.parametrize("wl", WORKLOADS, ids=lambda w: w.NAME)
def test_simulated_metrics_repeat_exactly(wl):
    """Across rounds of one run and across two runs: same seed, same
    simulated numbers, to the last bit; another seed also completes
    with nothing failed."""
    rounds = [measure.run_round(wl, 0, True, verify=(i == 0))
              for i in range(2)]
    metrics, problems = measure.end_to_end(rounds, 1)
    assert problems == []
    assert metrics["failed_share"] == 0, rounds[0].rec.failures
    again = measure.run_round(wl, 0, True, verify=False)
    assert measure.sim_metrics([again]) == measure.sim_metrics(rounds[1:])
    other = measure.run_round(wl, 1, True)
    assert other.rec.failed == 0, other.rec.failures


def _layer_callables() -> dict:
    """Every function the layer classes define, by (layer, class, name)."""
    out = {}
    for layer, class_names in LAYER_CLASSES.items():
        module = importlib.import_module("repro." + layer)
        for class_name in class_names:
            for attr, value in vars(getattr(module, class_name)).items():
                if inspect.isfunction(value):
                    out[(layer, class_name, attr)] = value
    return out


@pytest.mark.parametrize("wl", WORKLOADS, ids=lambda w: w.NAME)
def test_traced_round_conserves_and_nests(wl):
    originals = _layer_callables()
    tracer = Tracer()
    plain = measure.run_round(wl, 0, True, verify=False)
    rnd = measure.run_round(wl, 0, True, tracer=tracer)
    assert rnd.rec.failed == 0, rnd.rec.failures
    # tracing is invisible to the simulation
    assert measure.sim_metrics([rnd]) == measure.sim_metrics([plain])
    metrics, problems = measure.per_layer(rnd, plain)
    assert problems == []
    # the ledger of every watched clock sums to the time that passed
    ledger = sum(metrics[f"ledger.{col}"] for col in LEDGER)
    assert abs(ledger - rnd.sim_s) <= 1e-6
    assert metrics["ledger.other_s"] <= 0.02 * rnd.sim_s
    assert metrics["bench.unattributed_host_s"] <= 0.10 * rnd.host_s + 0.01
    # spans nest: a child lies inside its parent, in both currencies
    spans = list(tracer.span_dicts())
    assert spans and not tracer.stack
    for span in spans:
        assert span["host_start"] <= span["host_end"]
        assert span["sim_start"] <= span["sim_end"]
        if span["parent"] >= 0:
            parent = spans[span["parent"]]
            assert parent["host_start"] <= span["host_start"]
            assert span["host_end"] <= parent["host_end"]
            assert parent["sim_start"] <= span["sim_start"]
            assert span["sim_end"] <= parent["sim_end"]
    # every patched callable is the original again
    after = _layer_callables()
    assert after.keys() == originals.keys()
    assert all(after[key] is originals[key] for key in originals)


def test_cache_sizing_claims():
    """multiuser_mix stays inside the buffer cache (its run() refuses to
    finish otherwise); bulk_io is the larger-than-cache workload."""
    mixed = measure.run_round(wl_multiuser_mix, 0, True, verify=False)
    assert mixed.counters["buffer.evictions"] == 0
    bulk = measure.run_round(wl_bulk_io, 0, True, verify=False)
    assert bulk.counters["buffer.misses"] > 0


def test_bulk_io_pass_0_of_seed_0_is_the_paper_benchmark():
    """The nine Table 3 rows ``bulk_io`` reports equal what
    ``repro.bench.workload.Benchmark`` measures on ``inversion_cs``."""
    from repro.bench.harness import build_inversion_cs
    from repro.bench.workload import Benchmark, BenchmarkSizes

    sizes = BenchmarkSizes.scaled(0.02)     # build()'s smoke scale
    config = build_inversion_cs()
    try:
        want = Benchmark(config.adapter, sizes).run_all()
    finally:
        config.close()
    rnd = measure.run_round(wl_bulk_io, 0, True, verify=False)
    assert rnd.rec.extra["table3"] == pytest.approx(want, rel=1e-12)


def test_compare_applies_the_bounds(tmp_path):
    def doc(host_ops: float) -> dict:
        runs = []
        for jitter in (0.99, 1.0, 1.01, 1.0):
            metrics = {name: {"value": 10.0, "unit": unit}
                       for name, unit, _b, _bound in measure.END_TO_END}
            metrics["host_ops_per_s"]["value"] = host_ops * jitter
            runs.append({"correct": True, "attempted": 10, "failed": 0,
                         "metrics": metrics})
        return {"seed": 0, "workloads": {w.NAME: {"runs": runs}
                                         for w in WORKLOADS}}
    paths = {}
    for label, host_ops in (("a", 100.0), ("same", 100.5), ("slow", 70.0)):
        paths[label] = str(tmp_path / f"{label}.json")
        with open(paths[label], "w", encoding="utf-8") as f:
            json.dump(doc(host_ops), f)
    agree = subprocess.run([sys.executable, RUN_PY, "--compare", paths["a"],
                            paths["same"]], stdout=subprocess.PIPE, text=True)
    assert agree.returncode == 0 and "0 regressed" in agree.stdout
    slower = subprocess.run([sys.executable, RUN_PY, "--compare", paths["a"],
                             paths["slow"]], stdout=subprocess.PIPE,
                            text=True)
    assert slower.returncode == 1 and "host_ops_per_s" in slower.stdout

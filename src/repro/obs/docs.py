"""METRICS.md generation and drift checking.

Every instrumented module declares a module-level ``METRICS`` tuple of
:class:`~repro.obs.registry.MetricSpec` (plus ``DEVICE_METRICS`` for
the buffer cache's per-relation device families) next to the code that
bumps the values.  This module gathers those declarations — no live
Database needed — renders them as METRICS.md, and compares the
rendered text against the committed file so CI fails when code and
docs drift (``python -m repro.obs --check-docs``).
"""

from __future__ import annotations

import importlib
import os

from repro.obs.registry import MetricSpec

#: every module that declares metrics, in the order sections render.
OWNING_MODULES = (
    "repro.db.page",
    "repro.db.buffer",
    "repro.db.btree",
    "repro.db.heap",
    "repro.db.catalog",
    "repro.db.locks",
    "repro.db.transactions",
    "repro.core.chunks",
    "repro.core.client",
    "repro.core.server",
    "repro.cache.leases",
    "repro.cache.client",
    "repro.sched.scheduler",
    "repro.shard.cluster",
    "repro.vfs.api",
    "repro.replica.feed",
    "repro.sim.disk",
    "repro.sim.network",
    "repro.sim.nvram",
    "repro.devices.magnetic",
    "repro.devices.memdisk",
    "repro.devices.jukebox",
    "repro.devices.tape",
    "repro.nfs.ffs",
    "repro.obs.tracing",
)

HEADER = """\
# Metrics reference

<!-- GENERATED FILE — do not edit by hand.
     Regenerate with:  PYTHONPATH=src python -m repro.obs --write-docs
     CI runs:          PYTHONPATH=src python -m repro.obs --check-docs -->

Every metric the storage system keeps, generated from the
`MetricSpec` declarations each module registers (`METRICS` tuples —
the same specs a live `Database` session binds into `db.obs.metrics`).
Counters follow one reset rule: **a metric belongs to its owning
component instance and spans exactly one `Database` session** — it
starts at zero at construction, is never implicitly reset by
`flush_all`/`invalidate_all`, and components that physically outlive a
session (non-volatile devices, the process-global B-tree descent
attributes) zero or re-baseline their session counters when a new
session adopts them.
"""


def default_docs_path() -> str:
    """METRICS.md at the repository root (three levels up from here)."""
    here = os.path.dirname(os.path.abspath(__file__))
    return os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(here))),
                        "METRICS.md")


def catalog() -> list[MetricSpec]:
    """Every declared spec, in module order then declaration order."""
    specs: list[MetricSpec] = []
    seen: set[str] = set()
    for modname in OWNING_MODULES:
        module = importlib.import_module(modname)
        for attr in ("METRICS", "DEVICE_METRICS"):
            for spec in getattr(module, attr, ()):
                if spec.name in seen:
                    raise ValueError(
                        f"metric {spec.name!r} declared twice "
                        f"(second time in {modname})")
                if spec.module != modname:
                    raise ValueError(
                        f"metric {spec.name!r} declared in {modname} but "
                        f"claims module {spec.module!r}")
                seen.add(spec.name)
                specs.append(spec)
    return specs


def _label_text(spec: MetricSpec) -> str:
    return ", ".join(f"`{label}`" for label in spec.labels) or "—"


def render() -> str:
    """The full METRICS.md text."""
    lines = [HEADER]
    by_module: dict[str, list[MetricSpec]] = {}
    for spec in catalog():
        by_module.setdefault(spec.module, []).append(spec)
    for modname in OWNING_MODULES:
        specs = by_module.get(modname)
        if not specs:
            continue
        lines.append(f"\n## `{modname}`\n")
        lines.append("| Metric | Kind | Unit | Labels | Help |")
        lines.append("| --- | --- | --- | --- | --- |")
        for spec in specs:
            lines.append(
                f"| `{spec.name}` | {spec.kind} | {spec.unit} "
                f"| {_label_text(spec)} | {spec.help} |")
    lines.append("")
    return "\n".join(lines)


def write_docs(path: str | None = None) -> str:
    path = path or default_docs_path()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render())
    return path


def check_docs(path: str | None = None) -> list[str]:
    """Return a list of problems (empty = docs match the code)."""
    path = path or default_docs_path()
    expected = render()
    try:
        with open(path, encoding="utf-8") as fh:
            actual = fh.read()
    except FileNotFoundError:
        return [f"{path} is missing — run `python -m repro.obs --write-docs`"]
    if actual == expected:
        return []
    exp_lines = expected.splitlines()
    act_lines = actual.splitlines()
    problems = [f"{path} is stale — run `python -m repro.obs --write-docs`"]
    for i, (exp, act) in enumerate(zip(exp_lines, act_lines), start=1):
        if exp != act:
            problems.append(f"  first difference at line {i}:")
            problems.append(f"    docs: {act}")
            problems.append(f"    code: {exp}")
            break
    else:
        problems.append(
            f"  line counts differ: docs {len(act_lines)}, "
            f"code {len(exp_lines)}")
    return problems

"""The metrics registry — one self-describing home for every counter.

The paper's evaluation (Tables 3–5, Figures 3–6) is an exercise in
accounting: positioning charges, status-file forces, RPC counts.  PRs
2–3 grew those counters as ad-hoc attributes (``prefetches``,
``batched_writes``, ``hwm_forces``, …) scattered across eight modules.
This registry gives them a common shape without moving them: every
metric is declared as a :class:`MetricSpec` (name, kind, unit, labels,
help string, owning module) next to the code that increments it, and a
:class:`MetricsRegistry` instance — one per :class:`~repro.db.database.
Database` session — collects live values.

Two value sources coexist per metric family:

- *mirrored* series read an existing stats attribute (or callable) at
  collection time.  The hot paths keep their plain ``stats.hits += 1``
  integer bumps — nothing is re-routed, so benchmark numbers are
  byte-identical with the registry active — while the registry still
  exposes the value under its registered name;
- *pushed* series are incremented through the registry
  (``metric.inc(...)``) and carry labels, e.g.
  ``device.pages_read{device=magnetic0,relation=inv23114}``.

Reset rule (the one rule, applied everywhere): **a metric belongs to
its owning component instance and spans exactly one Database session.**
It starts at zero when the component is constructed and is never reset
implicitly — ``flush_all``, ``flush_caches``, ``invalidate_all`` and
friends move data, not counters.  Components that physically outlive a
session must zero their session counters when a new session adopts
them: non-volatile device instances reset their stats in
``rebind_clock`` (see :meth:`repro.devices.base.DeviceManager.
rebind_clock`), and the registry snapshots the process-global BTree
descent counters at bind time so its ``btree.descents`` series starts
at zero per session even though the legacy class attributes (pinned by
benchmarks) keep counting process-wide.
"""

from __future__ import annotations

from dataclasses import dataclass, field

KINDS = ("counter", "gauge", "histogram")

LabelValues = tuple[str, ...]


@dataclass(frozen=True)
class MetricSpec:
    """The self-description every metric is registered with."""

    name: str                      # dotted family name, e.g. "buffer.hits"
    kind: str                      # "counter" | "gauge" | "histogram"
    unit: str                      # "ops", "pages", "bytes", "seconds", ...
    help: str                      # one-line meaning, rendered into METRICS.md
    module: str                    # owning module, e.g. "repro.db.buffer"
    labels: tuple[str, ...] = ()   # label names, e.g. ("device", "relation")

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"bad metric kind {self.kind!r} for {self.name!r}")
        if not self.help:
            raise ValueError(f"metric {self.name!r} registered without help text")
        if not self.unit:
            raise ValueError(f"metric {self.name!r} registered without a unit")


@dataclass
class HistogramValue:
    """Aggregate of observed values (no buckets — the consumers here
    want count/sum/extremes, not quantile sketches)."""

    count: int = 0
    sum: float = 0.0
    min: float = float("inf")
    max: float = float("-inf")

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0


class Metric:
    """One metric family: a spec plus its labelled series."""

    __slots__ = ("spec", "_pushed", "_mirrors", "_dynamic")

    def __init__(self, spec: MetricSpec) -> None:
        self.spec = spec
        #: label values -> float (counter/gauge) or HistogramValue
        self._pushed: dict[LabelValues, object] = {}
        #: label values -> zero-arg callable returning the live value
        self._mirrors: dict[LabelValues, object] = {}
        #: callables returning {label values: value} — for families whose
        #: label sets are discovered at runtime (per-relation descents).
        self._dynamic: list = []

    def _labelvals(self, labels: dict[str, str]) -> LabelValues:
        if tuple(sorted(labels)) != tuple(sorted(self.spec.labels)):
            raise ValueError(
                f"metric {self.spec.name!r} takes labels {self.spec.labels}, "
                f"got {tuple(labels)}")
        return tuple(str(labels[k]) for k in self.spec.labels)

    # -- pushed series ---------------------------------------------------

    def inc(self, amount: float = 1, **labels: str) -> None:
        if self.spec.kind != "counter":
            raise TypeError(f"{self.spec.name!r} is a {self.spec.kind}, not a counter")
        key = self._labelvals(labels)
        self._pushed[key] = self._pushed.get(key, 0) + amount

    def set(self, value: float, **labels: str) -> None:
        if self.spec.kind != "gauge":
            raise TypeError(f"{self.spec.name!r} is a {self.spec.kind}, not a gauge")
        self._pushed[self._labelvals(labels)] = value

    def observe(self, value: float, **labels: str) -> None:
        if self.spec.kind != "histogram":
            raise TypeError(f"{self.spec.name!r} is a {self.spec.kind}, not a histogram")
        key = self._labelvals(labels)
        hist = self._pushed.get(key)
        if hist is None:
            hist = self._pushed[key] = HistogramValue()
        hist.observe(value)

    # -- mirrored series -------------------------------------------------

    def mirror(self, fn, **labels: str) -> None:
        """Attach a pull source: the series' value is ``fn()`` at
        collection time.  This is how the existing stats dataclasses are
        migrated without touching their hot paths."""
        self._mirrors[self._labelvals(labels)] = fn

    def mirror_series(self, fn) -> None:
        """Attach a pull source yielding a whole dict of
        ``{label values: value}`` at collection time — for families
        whose series appear as the workload runs, like per-relation
        B-tree descents."""
        self._dynamic.append(fn)

    # -- reading ---------------------------------------------------------

    def value(self, **labels: str):
        key = self._labelvals(labels)
        mirror = self._mirrors.get(key)
        if mirror is not None:
            return mirror()
        for fn in self._dynamic:
            hit = fn().get(key)
            if hit is not None:
                return hit
        v = self._pushed.get(key)
        if v is None:
            return HistogramValue() if self.spec.kind == "histogram" else 0
        return v

    def series(self) -> dict[LabelValues, object]:
        """Every labelled series' current value."""
        out: dict[LabelValues, object] = {}
        for key, v in self._pushed.items():
            out[key] = v
        for fn in self._dynamic:
            out.update(fn())
        for key, fn in self._mirrors.items():
            out[key] = fn()
        return out

    def total(self) -> float:
        """Sum across series (histograms contribute their counts)."""
        total = 0.0
        for v in self.series().values():
            total += v.count if isinstance(v, HistogramValue) else v
        return total

    def reset(self) -> None:
        """Zero the pushed series.  Mirrored series belong to their
        stats object and follow the owning component's lifetime — see
        the reset rule in the module docstring."""
        self._pushed.clear()


@dataclass
class MetricsRegistry:
    """All metric families of one Database session."""

    _metrics: dict[str, Metric] = field(default_factory=dict)

    def register(self, spec: MetricSpec) -> Metric:
        """Register a family.  Re-registering the identical spec returns
        the existing family (components created twice in one session,
        e.g. a second HeapFile over the same stats object, share it);
        a conflicting spec under the same name is an error."""
        existing = self._metrics.get(spec.name)
        if existing is not None:
            if existing.spec != spec:
                raise ValueError(
                    f"metric {spec.name!r} already registered with a "
                    f"different spec")
            return existing
        metric = Metric(spec)
        self._metrics[spec.name] = metric
        return metric

    def mirror_all(self, specs, obj, **labels: str) -> None:
        """Register ``specs`` and mirror each from the attribute named
        by the spec's last dotted component (``buffer.hits`` reads
        ``obj.hits``).  The migration convention: family names end in
        the legacy attribute name, so the hot paths keep their plain
        integer bumps."""
        for spec in specs:
            attr = spec.name.rsplit(".", 1)[-1]
            self.register(spec).mirror(
                lambda o=obj, a=attr: getattr(o, a), **labels)

    def get(self, name: str) -> Metric:
        return self._metrics[name]

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def describe(self) -> list[MetricSpec]:
        """Every registered spec, sorted by name — the self-description
        METRICS.md is generated from."""
        return [self._metrics[name].spec for name in self.names()]

    def value(self, name: str, **labels: str):
        return self._metrics[name].value(**labels)

    def collect(self) -> dict[str, dict[LabelValues, object]]:
        """Snapshot of every family's series."""
        return {name: self._metrics[name].series() for name in self.names()}

    def reset(self) -> None:
        """The only sanctioned explicit reset: zero every pushed series.
        Mirrored stats objects are reset by recreating their owning
        component (the session rule)."""
        for metric in self._metrics.values():
            metric.reset()

"""The metrics registry — one self-describing home for every counter.

The paper's evaluation (Tables 3–5, Figures 3–6) is an exercise in
accounting: positioning charges, status-file forces, RPC counts.  Each
of those counts is a field of its component's stats dataclass, and the
field is its only declaration: :func:`counter`, :func:`gauge` and
:func:`histogram` return a ``dataclasses.field`` carrying the unit and
help text, and the :func:`metric_stats` class decorator turns each such
field into a :class:`MetricSpec` named ``<prefix>.<field>`` and owned
by the declaring class's module.  A :class:`MetricsRegistry` — one per
:class:`~repro.db.database.Database` session — registers a stats
object's families with :meth:`MetricsRegistry.mirror_all` and reads
each one off the live field at collection time.  The hot paths keep
their plain ``stats.hits += 1`` bumps, so benchmark numbers are
byte-identical with the registry active.

A labelled family is a dict field keyed by its label values (the
value itself for one label, a tuple for several), e.g.
``device.pages_read{device=magnetic0,relation=inv23114}``.  Labels a
whole stats object carries — the ``device`` of a device's counters —
are declared once on the class and given to ``mirror_all``.

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

from dataclasses import dataclass, field, fields

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


# -- declaring ---------------------------------------------------------------

def _field(kind: str, unit: str, help: str, labels, default):
    metadata = {"metric": (kind, unit, help, tuple(labels))}
    if labels:
        return field(default_factory=dict, metadata=metadata)
    if kind == "histogram":
        return field(default_factory=HistogramValue, metadata=metadata)
    return field(default=default, metadata=metadata)


def counter(unit: str, help: str, labels=(), default=0):
    """A monotonic count.  With ``labels`` the field is a dict keyed by
    their values (one label: the value; several: a tuple)."""
    return _field("counter", unit, help, labels, default)


def gauge(unit: str, help: str, default=0):
    """A value that is set, not summed (its last sample)."""
    return _field("gauge", unit, help, (), default)


def histogram(unit: str, help: str):
    """A :class:`HistogramValue` the owner feeds with ``observe``."""
    return _field("histogram", unit, help, (), None)


def metric_stats(prefix: str, labels: tuple[str, ...] = ()):
    """Class decorator: make the class a dataclass and each of its
    :func:`counter` / :func:`gauge` / :func:`histogram` fields the
    family ``<prefix>.<field>``, owned by the class's module.  Every
    family also carries ``labels`` (leading its own), whose values
    :meth:`MetricsRegistry.mirror_all` is given."""
    def wrap(cls):
        cls = dataclass(cls)
        specs = []
        for f in fields(cls):
            if "metric" in f.metadata:
                kind, unit, help, keys = f.metadata["metric"]
                specs.append((f.name, MetricSpec(
                    f"{prefix}.{f.name}", kind, unit, help, cls.__module__,
                    tuple(labels) + keys)))
        cls.metric_labels = tuple(labels)
        cls.metric_specs = tuple(specs)
        return cls
    return wrap


# -- reading -----------------------------------------------------------------

class Metric:
    """One metric family: a spec plus the getters of its series."""

    __slots__ = ("spec", "_sources")

    def __init__(self, spec: MetricSpec) -> None:
        self.spec = spec
        #: bound label values -> zero-arg callable returning the live
        #: value, or a dict of the remaining label values -> value.
        self._sources: dict[LabelValues, object] = {}

    def mirror(self, fn, **labels: str) -> None:
        """Read the series labelled ``labels`` (the leading labels of
        the spec; a dict from ``fn`` keys the rest) from ``fn()`` at
        collection time.  Binding the same labels again replaces it."""
        names = self.spec.labels[:len(labels)]
        if tuple(labels) != names:
            raise ValueError(
                f"metric {self.spec.name!r} takes labels {self.spec.labels}, "
                f"got {tuple(labels)}")
        self._sources[tuple(str(labels[k]) for k in names)] = fn

    def series(self) -> dict[LabelValues, object]:
        """Every labelled series' current value."""
        out: dict[LabelValues, object] = {}
        for key, fn in self._sources.items():
            v = fn()
            if isinstance(v, dict):
                for k, x in v.items():
                    out[key + (k if isinstance(k, tuple) else (k,))] = x
            else:
                out[key] = v
        return out

    def value(self, **labels: str):
        if sorted(labels) != sorted(self.spec.labels):
            raise ValueError(
                f"metric {self.spec.name!r} takes labels {self.spec.labels}, "
                f"got {tuple(labels)}")
        v = self.series().get(tuple(str(labels[k]) for k in self.spec.labels))
        if v is None:
            return HistogramValue() if self.spec.kind == "histogram" else 0
        return v

    def total(self) -> float:
        """Sum across series (histograms contribute their counts)."""
        total = 0.0
        for v in self.series().values():
            total += v.count if isinstance(v, HistogramValue) else v
        return total


@dataclass
class MetricsRegistry:
    """All metric families of one Database session."""

    _metrics: dict[str, Metric] = field(default_factory=dict)

    def register(self, spec: MetricSpec) -> Metric:
        """Register a family.  Re-registering the identical spec returns
        the existing family (components created twice in one session
        share it); a conflicting spec under the same name is an
        error."""
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

    def mirror_all(self, stats, **labels: str) -> None:
        """Register every family ``stats``'s :func:`metric_stats` class
        declares, each read from its field of ``stats``; ``labels`` are
        the class's own (``device=...`` on a device's counters)."""
        cls = type(stats)
        if tuple(labels) != cls.metric_labels:
            raise ValueError(f"{cls.__name__} takes labels "
                             f"{cls.metric_labels}, got {tuple(labels)}")
        for name, spec in cls.metric_specs:
            self.register(spec).mirror(
                lambda s=stats, a=name: getattr(s, a), **labels)

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

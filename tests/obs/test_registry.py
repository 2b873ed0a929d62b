"""MetricsRegistry: specs declared by stats fields, read off the live
fields."""

import pytest

from repro.obs.registry import (HistogramValue, MetricSpec, MetricsRegistry,
                                counter, gauge, histogram, metric_stats)


@metric_stats("t")
class Stats:
    hits: int = counter("ops", "test metric")
    by_device: dict = counter("ops", "test metric",
                              labels=("device", "relation"))
    by_relation: dict = counter("ops", "test metric", labels=("relation",))
    level: int = gauge("ops", "test metric")
    latency: HistogramValue = histogram("seconds", "test metric")


@metric_stats("u", labels=("device",))
class DeviceStats:
    reads: int = counter("ops", "test metric")


def mirrored(stats=None, **labels):
    reg = MetricsRegistry()
    reg.mirror_all(stats if stats is not None else Stats(), **labels)
    return reg


def spec(name="t.hits", kind="counter", unit="ops", labels=()):
    return MetricSpec(name, kind, unit, "test metric", "tests", labels)


# -- MetricSpec validation --------------------------------------------------


def test_bad_kind_rejected():
    with pytest.raises(ValueError):
        MetricSpec("x", "timer", "ops", "h", "m")


def test_missing_help_rejected():
    with pytest.raises(ValueError):
        @metric_stats("x")
        class _NoHelp:
            n: int = counter("ops", "")


def test_missing_unit_rejected():
    with pytest.raises(ValueError):
        MetricSpec("x", "counter", "", "h", "m")


# -- declarations -------------------------------------------------------------


def test_fields_declare_their_families():
    assert Stats.metric_specs[0] == ("hits", MetricSpec(
        "t.hits", "counter", "ops", "test metric", __name__))
    specs = dict(Stats.metric_specs)
    assert specs["by_device"].labels == ("device", "relation")
    assert specs["level"].kind == "gauge"
    assert specs["latency"].kind == "histogram"
    assert dict(DeviceStats.metric_specs)["reads"].labels == ("device",)
    stats = Stats()
    assert (stats.hits, stats.by_device, stats.level) == (0, {}, 0)
    assert stats.latency == HistogramValue()


# -- labelled series ----------------------------------------------------------


def test_counter_inc_with_labels():
    stats = Stats()
    m = mirrored(stats).get("t.by_device")
    stats.by_device[("d0", "r")] = 4
    stats.by_device[("d1", "r")] = 1
    assert m.value(device="d0", relation="r") == 4
    assert m.value(device="d1", relation="r") == 1
    assert m.total() == 5


def test_wrong_labels_rejected():
    reg = mirrored()
    with pytest.raises(ValueError):
        reg.value("t.by_device", disk="d0", relation="r")
    with pytest.raises(ValueError):
        reg.value("t.by_device")
    with pytest.raises(ValueError):
        mirrored(DeviceStats())              # the class's label is missing
    with pytest.raises(ValueError):
        mirrored(Stats(), device="d0")       # and this class has none


def test_class_labels_bind_at_mirror_time():
    reg = MetricsRegistry()
    a, b = DeviceStats(), DeviceStats()
    reg.mirror_all(a, device="d0")
    reg.mirror_all(b, device="d1")
    a.reads, b.reads = 2, 3
    assert reg.get("u.reads").series() == {("d0",): 2, ("d1",): 3}
    reg.mirror_all(DeviceStats(), device="d1")   # rebinding replaces
    assert reg.value("u.reads", device="d1") == 0


def test_gauge_set_overwrites():
    stats = Stats()
    reg = mirrored(stats)
    stats.level = 5
    stats.level = 2
    assert reg.value("t.level") == 2


def test_histogram_aggregates():
    stats = Stats()
    m = mirrored(stats).get("t.latency")
    for v in (1.0, 3.0, 2.0):
        stats.latency.observe(v)
    h = m.value()
    assert (h.count, h.sum, h.min, h.max) == (3, 6.0, 1.0, 3.0)
    assert h.mean == 2.0
    assert m.total() == 3  # histograms contribute their counts


def test_unset_series_reads_zero():
    reg = mirrored()
    assert reg.value("t.by_relation", relation="pg_class") == 0
    h = reg.value("t.latency")
    assert isinstance(h, HistogramValue) and h.count == 0


# -- live fields ----------------------------------------------------------------


def test_mirror_reads_live_value():
    stats = Stats()
    reg = mirrored(stats)
    assert reg.value("t.hits") == 0
    stats.hits = 7
    assert reg.value("t.hits") == 7


def test_mirror_series_dynamic_labels():
    stats = Stats()
    m = mirrored(stats).get("t.by_relation")
    assert m.series() == {}
    assert m.value(relation="pg_class") == 0
    stats.by_relation["pg_class"] = 4
    assert m.series() == {("pg_class",): 4}
    assert m.value(relation="pg_class") == 4
    assert m.total() == 4


# -- registry ---------------------------------------------------------------


def test_register_idempotent_for_identical_spec():
    reg = MetricsRegistry()
    a = reg.register(spec())
    b = reg.register(spec())
    assert a is b


def test_register_conflicting_spec_rejected():
    reg = MetricsRegistry()
    reg.register(spec())
    with pytest.raises(ValueError):
        reg.register(spec(unit="pages"))


def test_collect_snapshots_all_series():
    stats = Stats()
    reg = mirrored(stats)
    stats.by_relation["r0"] = 2
    stats.level = 9
    snap = reg.collect()
    assert snap["t.by_relation"] == {("r0",): 2}
    assert snap["t.level"] == {(): 9}


def test_describe_sorted_by_name():
    reg = MetricsRegistry()
    reg.register(spec(name="z.last"))
    reg.register(spec(name="a.first"))
    assert [s.name for s in reg.describe()] == ["a.first", "z.last"]

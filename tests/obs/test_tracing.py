"""Tracer: off by default, deterministic span trees, JSONL sink."""

import json

import pytest

from repro.obs.tracing import NO_SPAN, Tracer
from repro.sim.clock import SimClock


def test_disabled_tracer_returns_shared_noop():
    tr = Tracer(SimClock())
    span = tr.span("x", foo=1)
    assert span is NO_SPAN
    with span as s:
        s.set(bar=2)  # no-op, must not raise
    assert tr.stats.spans == 0
    assert tr.events() == []


def test_span_records_sim_clock_interval():
    clock = SimClock()
    tr = Tracer(clock)
    tr.enable()
    clock.advance(1.0)
    with tr.span("op"):
        clock.advance(0.5)
    (event,) = tr.events()
    assert event["name"] == "op"
    assert event["start"] == pytest.approx(1.0)
    assert event["end"] == pytest.approx(1.5)


def test_span_never_advances_the_clock():
    clock = SimClock()
    tr = Tracer(clock)
    tr.enable()
    with tr.span("op", big="attrs"):
        pass
    assert clock.now() == 0.0


def test_parent_child_nesting():
    tr = Tracer(SimClock())
    tr.enable()
    with tr.span("outer") as outer:
        with tr.span("inner"):
            pass
    inner_ev, outer_ev = tr.events()  # inner exits (emits) first
    assert inner_ev["name"] == "inner"
    assert inner_ev["parent"] == outer_ev["span"]
    assert outer_ev["parent"] is None
    assert outer.span_id == outer_ev["span"]


def test_sibling_spans_share_parent():
    tr = Tracer(SimClock())
    tr.enable()
    with tr.span("outer"):
        with tr.span("a"):
            pass
        with tr.span("b"):
            pass
    a, b, outer = tr.events()
    assert a["parent"] == b["parent"] == outer["span"]
    assert a["span"] != b["span"]


def test_mid_span_set_and_error_recorded():
    tr = Tracer(SimClock())
    tr.enable()
    with pytest.raises(KeyError):
        with tr.span("op", pages=1) as sp:
            sp.set(pages=4)
            raise KeyError("boom")
    (event,) = tr.events()
    assert event["pages"] == 4
    assert event["error"] == "KeyError"


def test_span_ids_deterministic_across_tracers():
    def run(tr):
        tr.enable()
        with tr.span("outer"):
            with tr.span("inner"):
                pass
        return [(e["span"], e["parent"], e["name"]) for e in tr.events()]

    assert run(Tracer(SimClock())) == run(Tracer(SimClock()))


def test_jsonl_sink(tmp_path):
    path = str(tmp_path / "trace.jsonl")
    tr = Tracer(SimClock())
    tr.enable(path=path)
    with tr.span("op", device="d0"):
        pass
    tr.disable()
    lines = [json.loads(line) for line in open(path, encoding="utf-8")]
    assert len(lines) == 1
    assert lines[0]["name"] == "op"
    assert lines[0]["device"] == "d0"
    # disabled again: no further emission
    with tr.span("op2"):
        pass
    assert tr.stats.spans == 1


def test_reserved_envelope_keys_win_over_attrs():
    """An attribute named like an envelope field (a span tracing a page
    range might naturally pass ``start=``) must not clobber the
    timestamps or ids."""
    clock = SimClock()
    tr = Tracer(clock)
    tr.enable()
    clock.advance(2.0)
    with tr.span("device.write", start=17, parent=99):
        pass
    (event,) = tr.events()
    assert event["start"] == pytest.approx(2.0)
    assert event["parent"] is None

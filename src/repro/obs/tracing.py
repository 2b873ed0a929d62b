"""Trace spans over the simulated clock.

A span brackets one operation (an RPC dispatch, a B-tree descent, a
batched device write) with sim-clock timestamps and a parent/child
relationship, so a 1 MB write can be read as a tree: ``rpc.call`` →
``chunks.flush`` → ``buffer.flush_run`` → ``device.write``.

Tracing is **off by default and zero-cost when off**: every
instrumentation site does ``if tracer is not None and tracer.enabled:``
(or receives the shared :data:`NO_SPAN` no-op), so the hot paths the
benchmarks time pay one attribute check.  When on, spans read
``clock.now()`` but never advance it, and they touch no device — so
crash schedules and every simulated-time measurement are identical
with tracing enabled (tests/obs/test_invisibility.py holds us to
that).

Events are dicts; sinks are either an in-memory list or a JSONL file
(one event per line, written outside the simulation).
"""

from __future__ import annotations

import json
from typing import IO

from repro.obs.registry import counter, metric_stats


@metric_stats("trace")
class TraceStats:
    spans: int = counter(
        "events", "Trace spans emitted since tracing was enabled.")


class _NoopSpan:
    """The disabled-tracer span: a shared, do-nothing context manager."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type=None, exc=None, tb=None) -> None:
        return None

    def set(self, **attrs) -> None:
        return None


NO_SPAN = _NoopSpan()


class _Span:
    __slots__ = ("tracer", "name", "attrs", "span_id", "parent_id", "start")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict) -> None:
        self.tracer = tracer
        self.name = name
        self.attrs = attrs
        self.span_id = 0
        self.parent_id = None
        self.start = 0.0

    def set(self, **attrs) -> None:
        """Attach attributes discovered mid-span (e.g. how many pages a
        read-ahead actually fetched)."""
        self.attrs.update(attrs)

    def __enter__(self) -> "_Span":
        tr = self.tracer
        stack = tr._open
        self.parent_id = stack[-1] if stack else None
        self.span_id = tr._next_id()
        stack.append(self.span_id)
        self.start = tr.clock.now() if tr.clock is not None else 0.0
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        tr = self.tracer
        stack = tr._open
        if stack and stack[-1] == self.span_id:
            stack.pop()
        end = tr.clock.now() if tr.clock is not None else 0.0
        # Attrs first: the envelope keys below are reserved and always
        # win (an attr named "start" must not clobber the timestamp).
        event = dict(self.attrs)
        event.update(
            span=self.span_id,
            parent=self.parent_id,
            name=self.name,
            start=self.start,
            end=end,
        )
        if exc_type is not None:
            event["error"] = exc_type.__name__
        tr._emit(event)


class Tracer:
    """Span factory bound to a simulated clock.

    Disabled by default; :meth:`enable` attaches a sink.  Span ids are
    a per-tracer sequence, so two runs of the same workload produce
    identical traces — determinism is part of the contract.
    """

    def __init__(self, clock=None) -> None:
        self.enabled = False
        self.clock = clock
        self.stats = TraceStats()
        self._events: list[dict] | None = None
        self._file: IO[str] | None = None
        self._path: str | None = None
        self._id = 0
        #: ids of the open spans, innermost last.
        self._open: list[int] = []

    # -- lifecycle -------------------------------------------------------

    def enable(self, sink: list | None = None, path: str | None = None) -> None:
        """Turn tracing on.  ``sink`` collects events in memory;
        ``path`` appends them as JSONL.  With neither, events go to an
        internal list readable via :meth:`events`."""
        self.enabled = True
        self._events = sink if sink is not None else []
        if path is not None:
            self._path = path
            self._file = open(path, "a", encoding="utf-8")

    def disable(self) -> None:
        self.enabled = False
        if self._file is not None:
            self._file.close()
            self._file = None

    def events(self) -> list[dict]:
        """The in-memory event list (empty when tracing never ran)."""
        return self._events if self._events is not None else []

    # -- span API --------------------------------------------------------

    def span(self, name: str, **attrs):
        """A context manager bracketing one operation.  Call sites on
        hot paths should guard with ``tracer.enabled`` themselves to
        skip even the attribute packing; this method still returns the
        shared no-op span when disabled so unguarded sites stay
        correct."""
        if not self.enabled:
            return NO_SPAN
        return _Span(self, name, attrs)

    # -- internals -------------------------------------------------------

    def swap_stack(self, stack: list[int]) -> list[int]:
        """Replace the open-span stack, returning the previous one.
        The multi-session scheduler swaps stacks at each context switch,
        which keeps every session's spans parented within its own
        request tree instead of under whatever span the previous
        session left open."""
        old, self._open = self._open, stack
        return old

    def _next_id(self) -> int:
        self._id += 1
        return self._id

    def _emit(self, event: dict) -> None:
        self.stats.spans += 1
        if self._events is not None:
            self._events.append(event)
        if self._file is not None:
            self._file.write(json.dumps(event) + "\n")
            self._file.flush()

"""Tracing from outside the program.

The traced pass wraps the public callables of each layer's classes
(class attributes patched here, restored afterwards) and the
``advance`` of every simulated clock it is told to watch.  Nothing
under ``src/`` knows it is being traced.

* A **span** is one call of a wrapped callable: ``{name, layer, parent,
  op_id, host_start, host_end, sim_start, sim_end}``.  Self time is the
  span's duration minus the time its child spans cover.  Per-layer
  call counts and self times are summed as spans close, so they stay
  exact when the in-memory span list hits its cap.
* The **ledger** books every simulated second to a cause.  The cause is
  the module (and function) of the code that called
  ``SimClock.advance`` — the leaf of the open span stack, read off the
  caller's frame, so the seven tiny ``CpuModel`` charge methods need no
  span each.  Per watched clock the ledger sums to that clock's elapsed
  time by construction; the conservation check is that nothing moved a
  clock without going through ``advance``.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import sys
import time

#: layer (module name under ``repro.``) -> classes whose public
#: callables are wrapped.
LAYER_CLASSES = {
    "vfs.api": ("VFS",),
    "core.client": ("RemoteInversionClient",),
    "core.server": ("InversionServer",),
    "core.library": ("InversionClient",),
    "core.filesystem": ("InversionFS",),
    "core.naming": ("Namespace",),
    "core.chunks": ("ChunkStore",),
    "db.catalog": ("Catalog",),
    "db.btree": ("BTree",),
    "db.heap": ("HeapFile",),
    "db.buffer": ("BufferCache",),
    "db.locks": ("LockManager",),
    "db.transactions": ("TransactionManager",),
    "devices.magnetic": ("MagneticDisk",),
    "sim.disk": ("DiskModel",),
    "sim.network": ("NetworkModel",),
    "sched.scheduler": ("MultiUserScheduler",),
    "shard.sched": ("ShardedScheduler",),
    "shard.client": ("ShardedInversionClient",),
    "shard.twophase": ("TwoPhaseCoordinator",),
    "replica.feed": ("PrimaryFeed", "FeedTapDevice"),
    "replica.server": ("ReplicaServer",),
    "cache.client": ("ClientCache",),
}
LAYERS = tuple(LAYER_CLASSES)

LEDGER = ("disk_s", "network_s", "cpu_s", "lock_wait_s", "sched_idle_s",
          "backoff_s", "other_s")

#: who called ``SimClock.advance`` -> ledger column.  Keys are a module
#: name, or (module name, function name) where one module advances the
#: clock for two different reasons.
_CAUSES = {
    "repro.sim.disk": "disk_s",
    "repro.sim.nvram": "disk_s",
    "repro.devices.memdisk": "disk_s",
    "repro.devices.tape": "disk_s",
    "repro.devices.jukebox": "disk_s",
    "repro.sim.network": "network_s",
    "repro.sim.cpu": "cpu_s",
    "repro.db.locks": "lock_wait_s",
    # a clock jumping to the next retry's wake-up time
    ("repro.sched.scheduler", "run"): "backoff_s",
    ("repro.shard.sched", "_advance_to_next_sleeper"): "backoff_s",
    # a parked lock waiter with nothing runnable burning time, and a
    # member clock dragged forward to a peer's timeline
    ("repro.sched.scheduler", "_step_while_parked"): "sched_idle_s",
    ("repro.shard.sched", "_step_while_parked"): "sched_idle_s",
    "repro.shard.cluster": "sched_idle_s",
    "repro.replica.server": "sched_idle_s",
}

_PRIVATE_HOOKS = {
    # ROADMAP item 2 names this private method as the quadratic one; it
    # is counted by name so the fix shows up as a count, and reads zero
    # once the method is gone.
    "devices.magnetic": ("_save_allocmap",),
}


def _classify(frame) -> str:
    module = frame.f_globals.get("__name__", "")
    return (_CAUSES.get((module, frame.f_code.co_name))
            or _CAUSES.get(module) or "other_s")


class Tracer:
    """Span recorder + simulated-time ledger for one traced window."""

    def __init__(self, max_rows: int = 250_000) -> None:
        self.max_rows = max_rows
        self.active = False
        self._patched: list[tuple[type, str, object]] = []
        self._clocks: list = []
        self.names: list[tuple[int, str]] = []   # name id -> (layer, name)
        self.reset()

    def reset(self) -> None:
        n = len(LAYERS)
        self.calls = [0] * n
        self.self_s = [0.0] * n
        self.name_calls = [0] * len(self.names)
        self.stack: list[list] = []
        self.rows: list = []
        self.rows_total = 0
        self.root_s = 0.0
        self.sim_total = 0.0
        self.op_id = -1
        self.ledgers: list[dict[str, float]] = [
            dict.fromkeys(LEDGER, 0.0) for _ in self._clocks]
        self.allocmap_saves = 0
        self.allocmap_bytes = 0
        self.catalog_scans = 0
        self.window_host = 0.0
        self._t0 = 0.0

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer's public callables (idempotent)."""
        if self._patched:
            return
        for layer_i, (layer, class_names) in enumerate(LAYER_CLASSES.items()):
            module = importlib.import_module("repro." + layer)
            for class_name in class_names:
                cls = getattr(module, class_name)
                hooks = _PRIVATE_HOOKS.get(layer, ())
                for attr, fn in list(vars(cls).items()):
                    if not inspect.isfunction(fn):
                        continue
                    if attr.startswith("_") and attr not in hooks:
                        continue
                    name_i = len(self.names)
                    self.names.append((layer_i, f"{class_name}.{attr}"))
                    self._patched.append((cls, attr, fn))
                    setattr(cls, attr, self._wrap(fn, layer_i, name_i))

    def uninstall(self) -> None:
        """Put every patched attribute and watched clock back."""
        for cls, attr, fn in self._patched:
            setattr(cls, attr, fn)
        self._patched.clear()
        for clock in self._clocks:
            clock.__dict__.pop("advance", None)
        self._clocks.clear()      # results (ledgers, rows) stay readable

    def watch_clock(self, clock) -> int:
        """Book every ``advance`` of ``clock``; returns its ledger
        index."""
        index = len(self._clocks)
        self._clocks.append(clock)
        self.ledgers.append(dict.fromkeys(LEDGER, 0.0))
        orig = clock.advance
        causes: dict = {}
        getframe = sys._getframe
        tracer = self

        def advance(seconds: float) -> float:
            if tracer.active:
                frame = getframe(1)
                cause = causes.get(frame.f_code)
                if cause is None:
                    cause = causes[frame.f_code] = _classify(frame)
                tracer.ledgers[index][cause] += seconds
                tracer.sim_total += seconds
            return orig(seconds)

        clock.advance = advance
        return index

    # -- the window --------------------------------------------------------

    def start(self) -> None:
        self.reset()
        self.active = True
        self._t0 = time.perf_counter()

    def stop(self) -> None:
        self.window_host = time.perf_counter() - self._t0
        self.active = False

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id

    def end_op(self) -> None:
        self.op_id = -1

    def calls_of(self, name: str) -> int:
        """Calls of one wrapped callable, e.g. ``Catalog.lookup_table``."""
        return sum(self.name_calls[i] for i, (_layer, n)
                   in enumerate(self.names) if n == name)

    @property
    def unattributed_host_s(self) -> float:
        """Window host time spent under no span: the benchmark's own
        driving, payload and checking code."""
        return max(0.0, self.window_host - self.root_s)

    # -- wrappers ------------------------------------------------------------

    def _open(self, layer_i: int, resumed: list | None = None) -> list:
        """Push a frame ``[host_start, child_s, layer, row, span]``.
        ``span`` is what the span's row keeps from its first opening
        (parent, host and sim start); a resumed generator passes its
        earlier frame so all its resumes share one row."""
        stack = self.stack
        if resumed is None:
            row = self.rows_total
            self.rows_total += 1
            if row < self.max_rows:
                self.rows.append(None)
            span = None
        else:
            row, span = resumed[3], resumed[4]
        frame = [0.0, 0.0, layer_i, row, span]
        if span is None:
            frame[4] = (stack[-1][3] if stack else -1, self.sim_total, frame)
        stack.append(frame)
        frame[0] = time.perf_counter()
        return frame

    def _close(self, frame: list, name_i: int) -> None:
        end = time.perf_counter()
        stack = self.stack
        stack.pop()
        dur = end - frame[0]
        self.self_s[frame[2]] += dur - frame[1]
        if stack:
            stack[-1][1] += dur
        else:
            self.root_s += dur
        row = frame[3]
        if row < self.max_rows:
            parent, sim_start, first = frame[4]
            self.rows[row] = (name_i, parent, self.op_id, first[0], end,
                              sim_start, self.sim_total)

    def _wrap(self, fn, layer_i: int, name_i: int):
        tracer = self
        attr = fn.__name__
        if inspect.isgeneratorfunction(fn):
            catalog_i = LAYERS.index("db.catalog")
            is_heap_scan = (LAYERS[layer_i] == "db.heap" and attr == "scan")

            def gen_wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                if not tracer.active:
                    yield from gen
                    return
                tracer.calls[layer_i] += 1
                if is_heap_scan and any(f[2] == catalog_i
                                        for f in tracer.stack):
                    tracer.catalog_scans += 1
                frame = None
                try:
                    while True:
                        # every resume is timed; the generator's one
                        # call was counted above
                        frame = tracer._open(layer_i, frame)
                        try:
                            value = next(gen)
                        except StopIteration:
                            return
                        finally:
                            tracer._close(frame, name_i)
                        yield value
                finally:
                    gen.close()
            gen_wrapper.__wrapped__ = fn
            return gen_wrapper

        if attr == "_save_allocmap":
            def allocmap_wrapper(self_, *args, **kwargs):
                if not tracer.active:
                    return fn(self_, *args, **kwargs)
                frame = tracer._open(layer_i)
                try:
                    return fn(self_, *args, **kwargs)
                finally:
                    tracer._close(frame, name_i)
                    tracer.allocmap_saves += 1
                    path = os.path.join(self_.directory, "_alloc.json")
                    if os.path.exists(path):
                        tracer.allocmap_bytes += os.path.getsize(path)
            allocmap_wrapper.__wrapped__ = fn
            return allocmap_wrapper

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer.calls[layer_i] += 1
            tracer.name_calls[name_i] += 1
            frame = tracer._open(layer_i)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(frame, name_i)
        wrapper.__wrapped__ = fn
        return wrapper

    # -- output -----------------------------------------------------------------

    def span_dicts(self):
        """Kept spans as the documented dicts, in opening order."""
        for row in self.rows:
            if row is None:
                continue
            name_i, parent, op_id, h0, h1, s0, s1 = row
            layer_i, name = self.names[name_i]
            yield {"name": name, "layer": LAYERS[layer_i], "parent": parent,
                   "op_id": op_id, "host_start": h0, "host_end": h1,
                   "sim_start": s0, "sim_end": s1}

    def write_jsonl(self, path: str, workload: str) -> None:
        with open(path, "a", encoding="utf-8") as f:
            for span_id, span in enumerate(self.span_dicts()):
                span["workload"] = workload
                span["id"] = span_id
                f.write(json.dumps(span, separators=(",", ":")) + "\n")

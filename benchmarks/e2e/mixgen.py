"""The 70/30 session mix shared by ``multiuser_mix`` and
``sharded_mix``: unit generation, compilation to scheduler programs,
per-unit latency from the scheduler's public event trace, and read
verification.

A *unit* is one thing a session does before starting the next:

* ``read``  — auto-commit ``p_open`` / ``p_lseek`` / one-chunk
  ``p_read`` / ``p_close`` + ``p_stat`` (cache-eligible), class
  ``txn_read``;
* ``write`` — a ``Txn`` overwriting 8 000 B of one chunk of one file,
  class ``txn_write``;
* ``pair``  — a ``Txn`` overwriting chunk 0 of two files, class
  ``txn_write`` on one server and ``txn_cross`` across shards;
* ``move``  — a cross-shard ``p_rename`` of a private file
  (``sharded_mix`` only), class ``txn_cross``.

Sessions are closed loops: a unit's latency runs from the moment the
session could issue it (the previous unit's successor slice, or the
window start) to the moment it issues the next, read off the
scheduler's ``trace``.  Committed order, which the end-state model
needs, comes from ``commit_hook``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .common import CHUNK_SIZE, Recorder, sha_payload, zipf_picker

from repro.core.constants import O_RDONLY, O_RDWR
from repro.sched.scheduler import Call, Ref, Txn

FILES = 32
CHUNKS_PER_FILE = 4
FILE_BYTES = CHUNKS_PER_FILE * CHUNK_SIZE
WRITE_BYTES = 8000
ZIPF_S = 1.1
READ_SHARE = 0.70


@dataclass
class Unit:
    kind: str                 # read | write | pair | move
    cls: str                  # op class
    paths: tuple              # files touched (move: source, target)
    chunk: int = 0            # chunk index read or written
    tag: object = None        # Txn tag (commit hook key)
    #: scheduler-unit slice counts, for walking the event trace
    slices: tuple = ()
    #: program ordinal of the p_read / p_stat results (read units)
    read_ordinal: int = -1


def initial_content(seed: int, path: str) -> bytes:
    return sha_payload(seed, f"mix-init:{path}", FILE_BYTES)


def write_payload(seed: int, tag) -> bytes:
    return sha_payload(seed, f"mix-write:{tag}", WRITE_BYTES)


def make_units(rng, sid: int, nunits: int, home_paths: list[str],
               pair_share: float, pair_partner=None,
               moves: list[tuple[str, str]] = ()) -> list[Unit]:
    """One session's units.  The mix is exact, not sampled: the shares
    fix how many units of each kind a session runs and the seed only
    shuffles their order (and picks files and chunks), so two seeds
    differ in interleaving, not in how much work they ask for.
    ``pair_partner(path_index)`` returns the second file of a pair unit
    and whether the pair crosses shards; ``moves`` are (source, target)
    renames."""
    pick = zipf_picker(rng, len(home_paths), ZIPF_S)
    npairs = round(nunits * pair_share)
    nreads = round(nunits * READ_SHARE)
    kinds = (["read"] * nreads + ["pair"] * npairs + ["move"] * len(moves))
    kinds += ["write"] * (nunits - len(kinds))
    rng.shuffle(kinds)
    moves = list(moves)
    units = []
    for u, kind in enumerate(kinds):
        tag = (sid, u)
        if kind == "move":
            units.append(Unit("move", "txn_cross", moves.pop(), tag=tag,
                              slices=(1,)))
        elif kind == "read":
            units.append(Unit("read", "txn_read", (home_paths[pick()],),
                              rng.randrange(CHUNKS_PER_FILE),
                              slices=(1, 1, 1, 1, 1)))
        elif kind == "write":
            units.append(Unit("write", "txn_write", (home_paths[pick()],),
                              rng.randrange(CHUNKS_PER_FILE), tag,
                              slices=(6,)))
        else:
            first = pick()
            second, cross = pair_partner(first)
            paths = (home_paths[first], second)
            if not cross and sid % 2:
                paths = paths[::-1]      # opposing lock order
            units.append(Unit("pair", "txn_cross" if cross else "txn_write",
                              paths, 0, tag, slices=(8,)))
    return units


def compile_program(seed: int, units: list[Unit]) -> list:
    """Units → ``Call``/``Txn`` items (ordinals number every Call)."""
    program, o = [], 0
    for unit in units:
        if unit.kind == "read":
            path = unit.paths[0]
            program += [Call("p_open", path, O_RDONLY),
                        Call("p_lseek", Ref(o), 0, unit.chunk * CHUNK_SIZE, 0),
                        Call("p_read", Ref(o), CHUNK_SIZE),
                        Call("p_close", Ref(o)),
                        Call("p_stat", path)]
            unit.read_ordinal = o + 2
            o += 5
        elif unit.kind == "write":
            program.append(Txn([
                Call("p_open", unit.paths[0], O_RDWR),
                Call("p_lseek", Ref(o), 0, unit.chunk * CHUNK_SIZE, 0),
                Call("p_write", Ref(o), write_payload(seed, unit.tag)),
                Call("p_close", Ref(o))], tag=unit.tag))
            o += 4
        elif unit.kind == "pair":
            items = []
            for j, path in enumerate(unit.paths):
                items += [Call("p_open", path, O_RDWR),
                          Call("p_write", Ref(o + 3 * j),
                               write_payload(seed, unit.tag + (j,))),
                          Call("p_close", Ref(o + 3 * j))]
            program.append(Txn(items, tag=unit.tag))
            o += 6
        else:
            program.append(Call("p_rename", *unit.paths))
            o += 1
    return program


def committed_writes(seed: int, unit: Unit) -> list[tuple[str, int, bytes]]:
    """(path, chunk, payload) for every chunk a committed unit wrote."""
    if unit.kind == "write":
        return [(unit.paths[0], unit.chunk, write_payload(seed, unit.tag))]
    if unit.kind == "pair":
        return [(path, 0, write_payload(seed, unit.tag + (j,)))
                for j, path in enumerate(unit.paths)]
    return []


class ContentModel:
    """Expected bytes of every mix file, plus every version each chunk
    has legitimately held (as SHA-256 digests) — what a concurrent
    reader may have seen."""

    def __init__(self, seed: int, paths) -> None:
        self.seed = seed
        self.files = {p: bytearray(initial_content(seed, p)) for p in paths}
        self.versions: dict[tuple[str, int], set[bytes]] = {}
        for path, content in self.files.items():
            for c in range(CHUNKS_PER_FILE):
                self._note(path, c, content)

    def add_private(self, path: str, content: bytes) -> None:
        """A file only one session touches (rename fodder): modelled,
        never read concurrently."""
        self.files[path] = bytearray(content)

    def _note(self, path: str, chunk: int, content) -> None:
        piece = bytes(content[chunk * CHUNK_SIZE:(chunk + 1) * CHUNK_SIZE])
        self.versions.setdefault((path, chunk), set()).add(
            hashlib.sha256(piece).digest())

    def commit(self, unit: Unit) -> int:
        """Apply one committed unit; returns user bytes written."""
        written = 0
        for path, chunk, data in committed_writes(self.seed, unit):
            content = self.files[path]
            content[chunk * CHUNK_SIZE:chunk * CHUNK_SIZE + len(data)] = data
            self._note(path, chunk, content)
            written += len(data)
        if unit.kind == "move":
            self.files[unit.paths[1]] = self.files.pop(unit.paths[0])
        return written

    def check_read(self, rec: Recorder, unit: Unit, data, att) -> None:
        ok = (isinstance(data, (bytes, bytearray))
              and hashlib.sha256(bytes(data)).digest()
              in self.versions[(unit.paths[0], unit.chunk)])
        rec.check(ok, f"read of {unit.paths[0]} chunk {unit.chunk} matches "
                      f"no committed version")
        rec.check(att is not None and att.size == FILE_BYTES,
                  f"stat of {unit.paths[0]} reports a wrong size")


def unit_latencies(events, window_start: dict, programs: dict) -> dict:
    """Walk the scheduler trace.  ``events`` are (time, kind, session)
    in trace order; ``programs`` maps session name → its units;
    ``window_start`` maps session name → the time its first unit could
    start.  Returns session name → per-unit latencies: unit k runs from
    unit k's first slice (the window start for k = 0) to unit k+1's
    first slice (the session's ``done``/``failed`` event for the last).
    A session that failed part-way yields fewer latencies than units."""

    class Walk:
        def __init__(self) -> None:
            self.unit = 0          # logical unit being executed
            self.sub = 0           # scheduler unit within it
            self.used = 0          # slices of that scheduler unit so far
            self.inflight = False  # a slice started and has not failed
            self.first: list[float] = []   # first-slice time per unit
            self.end = None

    walks = {name: Walk() for name in programs}

    def complete(name: str, w: Walk) -> None:
        counts = programs[name][w.unit].slices
        w.used += 1
        if w.used == counts[w.sub]:
            w.sub, w.used = w.sub + 1, 0
            if w.sub == len(counts):
                w.unit, w.sub = w.unit + 1, 0

    for when, kind, name in events:
        w = walks.get(name)
        if w is None:
            continue
        if kind == "slice":
            if w.inflight:
                complete(name, w)
            if w.sub == 0 and w.used == 0 and len(w.first) == w.unit:
                w.first.append(when)
            w.inflight = True
        elif kind == "victim":
            w.inflight = False
            w.used = 0             # the scheduler unit restarts
        elif kind in ("done", "failed"):
            w.inflight = False
            w.end = when
    out = {}
    for name, w in walks.items():
        marks = [window_start[name]] + w.first[1:]
        if w.end is not None:
            marks.append(w.end)
        out[name] = [b - a for a, b in zip(marks, marks[1:])]
    return out


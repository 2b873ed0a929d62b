"""Record schemas, serialization, and the no-overwrite record header.

Every stored record carries a 16-byte header ``(xmin, xmax)``: the ids
of the transactions that inserted and (if any) deleted it.  "When a
record is updated or deleted, the original record is marked invalid,
but remains in place" — marking invalid means stamping ``xmax``; the
record bytes are otherwise immutable.  Visibility of a record under a
given snapshot is decided entirely from this header plus the
transaction status file (:mod:`repro.db.snapshot`).

Value serialization is schema-driven via :class:`Schema`.  Supported
column types (a POSTGRES-flavoured set):

========  =======================================
type      representation
========  =======================================
int4      4-byte signed little-endian
int8      8-byte signed little-endian ("longlong" in the paper's
          ``fileatt.size``)
oid       8-byte unsigned object identifier
float8    IEEE-754 double
bool      1 byte
time      float8 seconds (simulated clock time)
text      u32 length + UTF-8 bytes
bytea     u32 length + raw bytes
========  =======================================

Each schema compiles its layout once into a pack/unpack plan: runs of
consecutive fixed-width columns fuse into a single precompiled
``struct.Struct`` (``<`` formats have no padding, so a fused pack is
byte-identical to packing column by column), and variable-length
columns keep their u32-length framing.  ``unpack`` accepts any buffer
(``bytes`` or ``memoryview``), so callers can decode straight out of a
page without an intermediate copy.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Sequence

from repro.errors import TupleError

TUPLE_HEADER_FMT = "<QQ"
_HEADER_STRUCT = struct.Struct(TUPLE_HEADER_FMT)
TUPLE_HEADER_SIZE = _HEADER_STRUCT.size  # 16
INVALID_XID = 0

_U32 = struct.Struct("<I")
_XMAX_STRUCT = struct.Struct("<Q")

_FIXED_FMT = {
    "int4": "<i",
    "int8": "<q",
    "oid": "<Q",
    "float8": "<d",
    "time": "<d",
    "bool": "<B",
}

VARLEN_TYPES = ("text", "bytea")
TYPE_NAMES = tuple(_FIXED_FMT) + VARLEN_TYPES


@dataclass(frozen=True)
class Column:
    """A named, typed column."""

    name: str
    typ: str

    def __post_init__(self) -> None:
        if self.typ not in TYPE_NAMES:
            raise TupleError(f"unknown column type {self.typ!r} for {self.name!r}")


class Schema:
    """An ordered set of columns with pack/unpack support."""

    def __init__(self, columns: Sequence[Column]) -> None:
        self.columns = tuple(columns)
        self._index = {c.name: i for i, c in enumerate(self.columns)}
        if len(self._index) != len(self.columns):
            raise TupleError("duplicate column names in schema")
        self._plan = self._compile()

    def _compile(self) -> tuple:
        """Fuse runs of fixed-width columns into single Structs.

        Plan segments: ``("f", Struct, ((col_idx, is_bool), ...))`` for
        a fixed run, ``("t", col_idx)`` for text, ``("b", col_idx)``
        for bytea.
        """
        plan: list[tuple] = []
        run_fmt = "<"
        run_cols: list[tuple[int, bool]] = []
        for i, col in enumerate(self.columns):
            fmt = _FIXED_FMT.get(col.typ)
            if fmt is not None:
                run_fmt += fmt[1:]
                run_cols.append((i, col.typ == "bool"))
            else:
                if run_cols:
                    plan.append(("f", struct.Struct(run_fmt), tuple(run_cols)))
                    run_fmt, run_cols = "<", []
                plan.append(("t" if col.typ == "text" else "b", i))
        if run_cols:
            plan.append(("f", struct.Struct(run_fmt), tuple(run_cols)))
        return tuple(plan)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Schema) and self.columns == other.columns

    def __hash__(self) -> int:
        return hash(self.columns)

    def column_index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise TupleError(f"no column {name!r} in schema") from None

    def column_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns)

    def pack(self, values: Sequence[object]) -> bytes:
        """Serialize one row of ``values`` (no record header)."""
        if len(values) != len(self.columns):
            raise TupleError(
                f"row has {len(values)} values, schema has {len(self.columns)} columns")
        parts: list[bytes] = []
        for seg in self._plan:
            kind = seg[0]
            if kind == "f":
                _, s, cols = seg
                try:
                    parts.append(s.pack(*[
                        (1 if values[i] else 0) if is_bool else values[i]
                        for i, is_bool in cols]))
                except (struct.error, TypeError, ValueError):
                    self._raise_pack_error(values)
            elif kind == "t":
                i = seg[1]
                value = values[i]
                try:
                    raw = str(value).encode("utf-8")
                except (TypeError, ValueError) as exc:
                    col = self.columns[i]
                    raise TupleError(
                        f"cannot pack {value!r} as {col.typ} for column {col.name!r}: {exc}"
                    ) from None
                parts.append(_U32.pack(len(raw)) + raw)
            else:  # bytea
                i = seg[1]
                value = values[i]
                try:
                    raw = bytes(value)
                except (struct.error, TypeError, ValueError) as exc:
                    col = self.columns[i]
                    raise TupleError(
                        f"cannot pack {value!r} as {col.typ} for column {col.name!r}: {exc}"
                    ) from None
                parts.append(_U32.pack(len(raw)) + raw)
        return b"".join(parts)

    def _raise_pack_error(self, values: Sequence[object]) -> None:
        """Re-pack column by column to attribute a fused-pack failure
        to the first offending column, with the same message the
        per-column path would have raised."""
        for col, value in zip(self.columns, values):
            try:
                if col.typ == "bool":
                    struct.pack("<B", 1 if value else 0)
                elif col.typ in _FIXED_FMT:
                    struct.pack(_FIXED_FMT[col.typ], value)
                elif col.typ == "text":
                    str(value).encode("utf-8")
                else:
                    bytes(value)
            except (struct.error, TypeError, ValueError) as exc:
                raise TupleError(
                    f"cannot pack {value!r} as {col.typ} for column {col.name!r}: {exc}"
                ) from None
        raise TupleError("row failed to pack")  # pragma: no cover

    def unpack(self, data, offset: int = 0) -> tuple:
        """Deserialize one row starting at ``offset``.  ``data`` may be
        any buffer (``bytes``, ``bytearray``, or ``memoryview``)."""
        values: list[object] = []
        pos = offset
        for seg in self._plan:
            kind = seg[0]
            if kind == "f":
                _, s, cols = seg
                raw = s.unpack_from(data, pos)
                pos += s.size
                for (i, is_bool), v in zip(cols, raw):
                    values.append(bool(v) if is_bool else v)
            else:
                (n,) = _U32.unpack_from(data, pos)
                pos += 4
                raw = bytes(data[pos:pos + n])
                pos += n
                values.append(raw.decode("utf-8") if kind == "t" else raw)
        return tuple(values)

    def to_dict(self) -> list[dict[str, str]]:
        """JSON-friendly description (for catalog storage)."""
        return [{"name": c.name, "typ": c.typ} for c in self.columns]

    @classmethod
    def from_dict(cls, desc: Sequence[dict[str, str]]) -> "Schema":
        return cls([Column(d["name"], d["typ"]) for d in desc])


def pack_record(xmin: int, xmax: int, payload: bytes) -> bytes:
    """Prefix ``payload`` with the (xmin, xmax) record header."""
    return _HEADER_STRUCT.pack(xmin, xmax) + payload


def unpack_header(record) -> tuple[int, int]:
    """Extract ``(xmin, xmax)`` from a stored record (any buffer)."""
    return _HEADER_STRUCT.unpack_from(record, 0)


def pack_xmax_patch(xmax: int) -> tuple[int, bytes]:
    """The (record-relative offset, bytes) patch that stamps ``xmax``
    into an existing record header — the "mark invalid" of the
    no-overwrite manager."""
    return 8, _XMAX_STRUCT.pack(xmax)


def record_payload(record):
    """The payload after the record header.  Slicing preserves the
    input's buffer type, so a ``memoryview`` in stays zero-copy."""
    return record[TUPLE_HEADER_SIZE:]

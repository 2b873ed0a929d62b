"""Record schemas and the (xmin, xmax) header."""

import pytest
from hypothesis import given, strategies as st

from repro.db.tuples import (
    Column,
    INVALID_XID,
    Schema,
    pack_record,
    pack_xmax_patch,
    record_payload,
    unpack_header,
)
from repro.errors import TupleError

MIXED = Schema([
    Column("a", "int4"), Column("b", "int8"), Column("o", "oid"),
    Column("f", "float8"), Column("flag", "bool"), Column("t", "time"),
    Column("s", "text"), Column("raw", "bytea"),
])


def test_pack_unpack_roundtrip():
    row = (-5, 2**40, 12345, 3.25, True, 99.5, "héllo", b"\x00\xff")
    assert MIXED.unpack(MIXED.pack(row)) == row


def test_wrong_arity_rejected():
    with pytest.raises(TupleError):
        MIXED.pack((1, 2))


def test_bad_type_rejected():
    schema = Schema([Column("n", "int4")])
    with pytest.raises(TupleError):
        schema.pack(("not an int",))


def test_unknown_column_type_rejected():
    with pytest.raises(TupleError):
        Column("x", "varchar")


def test_duplicate_column_names_rejected():
    with pytest.raises(TupleError):
        Schema([Column("x", "int4"), Column("x", "int8")])


def test_column_index():
    assert MIXED.column_index("f") == 3
    with pytest.raises(TupleError):
        MIXED.column_index("missing")


def test_schema_dict_roundtrip():
    assert Schema.from_dict(MIXED.to_dict()) == MIXED


def test_record_header_roundtrip():
    record = pack_record(7, 9, b"payload")
    assert unpack_header(record) == (7, 9)
    assert record_payload(record) == b"payload"


def test_xmax_patch_location():
    record = bytearray(pack_record(7, INVALID_XID, b"payload"))
    offset, patch = pack_xmax_patch(33)
    record[offset:offset + len(patch)] = patch
    assert unpack_header(bytes(record)) == (7, 33)


def test_empty_text_and_bytes():
    schema = Schema([Column("s", "text"), Column("b", "bytea")])
    assert schema.unpack(schema.pack(("", b""))) == ("", b"")


@given(st.integers(min_value=-2**31, max_value=2**31 - 1),
       st.text(max_size=300), st.binary(max_size=300))
def test_property_roundtrip(n, s, b):
    schema = Schema([Column("n", "int4"), Column("s", "text"),
                     Column("b", "bytea")])
    assert schema.unpack(schema.pack((n, s, b))) == (n, s, b)


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_property_float_roundtrip(f):
    schema = Schema([Column("f", "float8")])
    assert schema.unpack(schema.pack((f,)))[0] == f


def test_equal_schemas_hash_equal():
    """A catalog row's ``TableInfo`` is a frozen dataclass: hashing it
    hashes its schema, so equal schemas must hash equal."""
    from repro.db.catalog import TableInfo
    a = Schema([Column("k", "int4"), Column("v", "text")])
    b = Schema.from_dict(a.to_dict())
    assert a == b and a is not b
    assert hash(a) == hash(b)
    assert len({TableInfo(1, "t", "m0", "h", a),
                TableInfo(1, "t", "m0", "h", b)}) == 1

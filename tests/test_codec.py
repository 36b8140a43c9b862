"""Round trips and bounds for the canonical encoding primitives: each
fixed-width run is written by ``pack`` and read back by
``Reader.unpack`` through one ``struct`` layout."""

import struct

import pytest
from hypothesis import given, strategies as st

from mutachain.codec import U8, U16, U32, U64, Reader, encode_byte_string, pack
from mutachain.errors import DecodingError, EncodingError

WIDTHS = {"u8": (1, 0xFF), "u16": (2, 0xFFFF),
          "u32": (4, 0xFFFFFFFF), "u64": (8, 0xFFFFFFFFFFFFFFFF)}
LAYOUTS = {"u8": U8, "u16": U16, "u32": U32, "u64": U64}


def packed(name, value) -> bytes:
    return pack(LAYOUTS[name], value)


@pytest.mark.parametrize("name,width,top", [(n, w, t) for n, (w, t) in WIDTHS.items()])
def test_int_layout_little_endian(name, width, top):
    data = packed(name, 1)
    assert len(data) == width
    assert data[0] == 1 and all(b == 0 for b in data[1:])
    assert packed(name, top) == b"\xff" * width


@given(st.sampled_from(sorted(WIDTHS)), st.data())
def test_int_round_trip(name, data):
    value = data.draw(st.integers(min_value=0, max_value=WIDTHS[name][1]))
    r = Reader(packed(name, value))
    assert getattr(r, name)() == value
    assert r.exhausted


@pytest.mark.parametrize("name", sorted(WIDTHS))
def test_int_out_of_range(name):
    with pytest.raises(EncodingError):
        packed(name, WIDTHS[name][1] + 1)
    with pytest.raises(EncodingError):
        packed(name, -1)
    with pytest.raises(EncodingError):
        packed(name, 1.5)


@given(st.binary(max_size=256))
def test_byte_string_round_trip(data):
    encoded = encode_byte_string(data)
    assert encoded[:4] == struct.pack("<I", len(data))
    r = Reader(encoded)
    assert r.byte_string() == data
    r.expect_end()


@given(st.binary(min_size=1, max_size=64))
def test_truncated_byte_string_rejected(data):
    encoded = encode_byte_string(data)
    with pytest.raises(DecodingError):
        Reader(encoded[:-1]).byte_string()


def test_fixed_width_enforced():
    key = struct.Struct("32s")
    assert pack(key, b"\x01" * 32) == b"\x01" * 32
    with pytest.raises(EncodingError):
        pack(key, b"\x01" * 31)
    with pytest.raises(DecodingError):
        Reader(b"\x01" * 31).fixed(32)
    # struct would pad a short bytes field and cut a long one: pack refuses both
    run = struct.Struct("<H32sB")
    assert Reader(pack(run, 7, b"\x01" * 32, 9)).unpack(run) == (7, b"\x01" * 32, 9)
    for wrong in (b"\x01" * 31, b"\x01" * 33, b""):
        with pytest.raises(EncodingError):
            pack(run, 7, wrong, 9)
    with pytest.raises(EncodingError):
        pack(run, 7, "not bytes, 32 characters long...", 9)


def test_counts_have_distinct_widths():
    # a collection's count is a u16, a block key list's a u8
    assert pack(U16, 3) + pack(U8, 3) == b"\x03\x00\x03"
    with pytest.raises(EncodingError):
        pack(U16, 0x10000)
    with pytest.raises(EncodingError):
        pack(U8, 0x100)


def test_expect_end_catches_trailing_bytes():
    r = Reader(b"\x01\x02")
    r.u8()
    with pytest.raises(DecodingError):
        r.expect_end()
    r.u8()
    r.expect_end()


@given(st.lists(st.tuples(st.sampled_from(sorted(WIDTHS)), st.integers(min_value=0)),
                max_size=8))
def test_mixed_sequence_round_trip(fields):
    fields = [(name, value % (WIDTHS[name][1] + 1)) for name, value in fields]
    r = Reader(b"".join(pack(LAYOUTS[name], value) for name, value in fields))
    for name, value in fields:
        assert getattr(r, name)() == value
    r.expect_end()

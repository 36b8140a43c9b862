"""Canonical binary encoding primitives.

Every protocol value (transaction, block header, block) serializes
through the helpers below.  The encoding is positional: fields are
written in their declared order with no tags or padding, so a value
encodes to the same bytes in every process and run.

The encoding is also canonical: integers are fixed-width, lengths are
prefixed, labels are strict UTF-8 and no type has an optional field, so
for every byte string ``b`` that decodes, ``encode(decode(b)) == b``.
Decoders rely on this and keep the bytes they read as the value's
``encoded`` (see ``Reader.since`` and ``decoded``, which skips the
value's ``__init__``): a decoded value is never encoded again, and its
hash is taken over the bytes on the wire.  A value rebuilt with
``dataclasses.replace`` drops that cache and encodes afresh.

Each run of fixed-width fields (a transaction's kind, signer and input
count, or its value and signature; an outpoint; a header up to its key
list) has one ``struct`` layout, stated once beside its type.  The
encoder writes the run with one ``pack``, which checks every ``Ns``
width, since ``struct`` would pad or cut it, and turns ``struct.error``
into ``EncodingError``; the decoder reads it back with one
``Reader.unpack``: one bounds check and one ``struct`` call.  Every
value encodes straight to bytes, the runs ``pack`` returned joined in
field order, so a client signs what it built in one pass.

Layout rules (normative)
------------------------

====================================  =====================================
value                                 encoding
====================================  =====================================
fixed-width unsigned integer          little-endian u8 / u16 / u32 / u64
byte-string                           u32 length prefix + raw bytes
collection                            u16 count prefix + elements
short collection (block key list)     u8 count prefix + elements
hash / public key / signature         raw bytes, fixed 32 / 32 / 64 wide
text label                            byte-string of strict UTF-8
====================================  =====================================

Per-type field orders and widths live in the module docstrings of
``tx`` (the transaction and its payloads) and ``blocks`` (both headers);
together with this table they are the normative byte layout for
everything written to disk or simulated wires.
"""

from __future__ import annotations

import re
import struct
from functools import cache

from .errors import DecodingError, EncodingError

U8_MAX = 0xFF
U8, U16, U32, U64 = (struct.Struct(f) for f in ("<B", "<H", "<I", "<Q"))


@cache
def _byte_fields(layout: struct.Struct) -> tuple[tuple[int, int], ...]:
    """(position, width) of each ``Ns`` field of ``layout``, in order."""
    fields, at = [], 0
    for n, code in re.findall(r"(\d*)([a-zA-Z?])", layout.format):
        if code == "s":
            fields.append((at, int(n or 1)))
            at += 1
        elif code != "x":
            at += int(n or 1)
    return tuple(fields)


def pack(layout: struct.Struct, *values) -> bytes:
    """One run of fixed-width fields, the bytes ``Reader.unpack(layout)``
    reads back as ``values``.  ``struct`` pads or cuts an ``Ns`` value to
    N bytes, so each must be N bytes already; an integer out of its
    field's range, or not an integer, raises too."""
    for at, width in _byte_fields(layout):
        if len(values[at]) != width:
            raise EncodingError(f"expected {width} bytes, got {len(values[at])}")
    try:
        return layout.pack(*values)
    except struct.error as exc:
        raise EncodingError(f"{layout.format} run {values!r}: {exc}") from None


class Reader:
    """Sequentially decodes one canonical encoding."""

    def __init__(self, data: bytes):
        self._data = bytes(data)
        self._pos = 0

    def _take(self, n: int) -> bytes:
        start = self._pos
        end = start + n
        if end > len(self._data):
            raise DecodingError(
                f"truncated input: need {n} bytes at offset {start}, "
                f"have {len(self._data) - start}")
        self._pos = end
        return self._data[start:end]

    def unpack(self, layout: struct.Struct) -> tuple:
        """The fields of one fixed-width run, read in one bounds check."""
        start = self._pos
        end = start + layout.size
        if end > len(self._data):
            self._take(layout.size)     # raises: the run is cut short
        self._pos = end
        return layout.unpack_from(self._data, start)

    def u8(self) -> int:
        return self.unpack(U8)[0]

    def u16(self) -> int:
        return self.unpack(U16)[0]

    def u32(self) -> int:
        return self.unpack(U32)[0]

    def u64(self) -> int:
        return self.unpack(U64)[0]

    def fixed(self, width: int) -> bytes:
        return self._take(width)

    def byte_string(self) -> bytes:
        return self._take(self.u32())

    def count(self) -> int:
        return self.u16()

    @property
    def pos(self) -> int:
        """Offset of the next byte to read."""
        return self._pos

    def since(self, start: int) -> bytes:
        """The bytes consumed from offset ``start`` up to ``pos``."""
        return self._data[start:self._pos]

    @property
    def exhausted(self) -> bool:
        return self._pos == len(self._data)

    def expect_end(self) -> None:
        if not self.exhausted:
            raise DecodingError(
                f"{len(self._data) - self._pos} trailing byte(s) after value")


def decoded(cls, wire: bytes, /, **fields):
    """A ``cls`` of ``fields`` whose cached ``encoded`` is ``wire``, the
    bytes a decoder read or a signer wrote, built without ``__init__``:
    the decoder has checked every width that ``__init__`` would."""
    fields["encoded"] = wire
    value = object.__new__(cls)
    object.__setattr__(value, "__dict__", fields)   # a frozen value's setattr raises
    return value


def decode_whole(cls, data: bytes):
    """``cls.decode_from`` over all of ``data``: a type's ``decode``."""
    r = Reader(data)
    value = cls.decode_from(r)
    r.expect_end()
    return value


def encode_byte_string(data: bytes) -> bytes:
    """Length-prefixed byte-string (u32 length + bytes)."""
    return pack(U32, len(data)) + data

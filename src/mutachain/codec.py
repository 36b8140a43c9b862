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
``dataclasses.replace`` drops that cache and encodes afresh.  Each run
of fixed-width fields (a transaction's kind, signer and input count, or
its value and signature; an outpoint; a header up to its key list) is
read by one ``Reader.unpack``: one bounds check and one ``struct`` call.

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

import struct
from functools import cached_property

from .errors import DecodingError, EncodingError

U8_MAX = 0xFF
U16_MAX = 0xFFFF
U32_MAX = 0xFFFFFFFF
U64_MAX = 0xFFFFFFFFFFFFFFFF
_U8, _U16, _U32, _U64 = (struct.Struct(f) for f in ("<B", "<H", "<I", "<Q"))


class Writer:
    """Accumulates one canonical encoding."""

    def __init__(self):
        self._parts: list[bytes] = []

    def _int(self, value: int, fmt: str, limit: int, what: str) -> None:
        if not isinstance(value, int) or value < 0 or value > limit:
            raise EncodingError(f"{what} out of range: {value!r}")
        self._parts.append(struct.pack(fmt, value))

    def u8(self, value: int) -> None:
        self._int(value, "<B", U8_MAX, "u8")

    def u16(self, value: int) -> None:
        self._int(value, "<H", U16_MAX, "u16")

    def u32(self, value: int) -> None:
        self._int(value, "<I", U32_MAX, "u32")

    def u64(self, value: int) -> None:
        self._int(value, "<Q", U64_MAX, "u64")

    def fixed(self, data: bytes, width: int) -> None:
        if len(data) != width:
            raise EncodingError(f"expected {width} bytes, got {len(data)}")
        self._parts.append(bytes(data))

    def byte_string(self, data: bytes) -> None:
        if len(data) > U32_MAX:
            raise EncodingError("byte-string exceeds u32 length range")
        self.u32(len(data))
        self._parts.append(bytes(data))

    def count(self, n: int) -> None:
        if n > U16_MAX:
            raise EncodingError(f"collection exceeds u16 count range: {n}")
        self.u16(n)

    def short_count(self, n: int) -> None:
        if n > U8_MAX:
            raise EncodingError(f"collection exceeds u8 count range: {n}")
        self.u8(n)

    def getvalue(self) -> bytes:
        return b"".join(self._parts)


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
        return self.unpack(_U8)[0]

    def u16(self) -> int:
        return self.unpack(_U16)[0]

    def u32(self) -> int:
        return self.unpack(_U32)[0]

    def u64(self) -> int:
        return self.unpack(_U64)[0]

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


class Encoded:
    """Base of a value that writes itself with ``encode_into``: its
    ``encoded`` is written at most once, or kept by its decoder."""

    @cached_property
    def encoded(self) -> bytes:
        w = Writer()
        self.encode_into(w)
        return w.getvalue()


def decode_whole(cls, data: bytes):
    """``cls.decode_from`` over all of ``data``: a type's ``decode``."""
    r = Reader(data)
    value = cls.decode_from(r)
    r.expect_end()
    return value


def encode_byte_string(data: bytes) -> bytes:
    """Standalone length-prefixed byte-string (u32 length + bytes)."""
    w = Writer()
    w.byte_string(data)
    return w.getvalue()

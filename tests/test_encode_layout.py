"""Encoders write the layout tables of the ``tx`` and ``blocks`` module
docstrings, byte for byte, and refuse what those tables cannot hold.

The reference encoders below are written from the tables alone, with
``int.to_bytes`` and length prefixes, and share no code with the
package's encoders.  The pinned digests name the type whose encoding
moved."""

import dataclasses
import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from mutachain import (
    KeyPair,
    OutPoint,
    PermanentHeader,
    RemovableBlock,
    RemovableHeader,
    Transaction,
    TxKind,
    build_consent,
    build_delete,
    build_info,
    build_prepare,
    build_removable,
    digest,
)
from mutachain.errors import EncodingError
from mutachain.tx import ConsentPayload, InfoPayload, IntervalPayload, RemovablePayload
from support import ALICE, REF_DUMMY
from test_decode_fuzz import BUILT


def u(value: int, width: int) -> bytes:
    return value.to_bytes(width, "little")


def byte_string(data: bytes) -> bytes:
    return u(len(data), 4) + data


def ref_outpoint(op: OutPoint) -> bytes:
    return op.txid + u(op.index, 2)


def ref_payload(payload) -> bytes:
    if payload is None:
        return b""
    if isinstance(payload, RemovablePayload):
        return byte_string(payload.data)
    if isinstance(payload, IntervalPayload):
        return u(payload.interval, 4)
    if isinstance(payload, InfoPayload):
        return byte_string(payload.controller) + u(len(payload.purposes), 2) + b"".join(
            byte_string(label.encode("utf-8")) for label in payload.purposes)
    return ref_outpoint(payload.info_ref)


def ref_transaction(tx: Transaction) -> bytes:
    return (u(tx.kind, 1) + tx.signer + u(len(tx.inputs), 2)
            + b"".join(map(ref_outpoint, tx.inputs)) + u(tx.output_count, 1)
            + ref_payload(tx.payload) + u(tx.value, 8) + tx.signature)


def ref_permanent_header(h: PermanentHeader) -> bytes:
    return (u(h.height, 4) + h.prev_permanent + h.prev_removable
            + u(h.interval_len, 1) + u(len(h.p_list), 1) + b"".join(h.p_list)
            + h.tx_root)


def ref_removable_header(h: RemovableHeader) -> bytes:
    return u(h.interval, 4) + u(h.seq, 1) + h.prev + h.tx_root


hashes = st.binary(min_size=32, max_size=32)
u8s, u16s = st.integers(0, 0xFF), st.integers(0, 0xFFFF)
u32s, u64s = st.integers(0, 0xFFFFFFFF), st.integers(0, 2**64 - 1)
outpoints = st.builds(OutPoint, hashes, u16s)
PAYLOADS = {
    TxKind.REGISTER: st.none(),
    TxKind.REMOVABLE: st.builds(RemovablePayload, st.binary(max_size=300)),
    TxKind.PREPARE: st.builds(IntervalPayload, u32s),
    TxKind.DELETE: st.builds(IntervalPayload, u32s),
    TxKind.INFO: st.builds(InfoPayload, st.binary(max_size=40),
                           st.lists(st.text(max_size=12), max_size=5).map(tuple)),
    TxKind.CONSENT: st.builds(ConsentPayload, outpoints),
}


@st.composite
def transactions(draw):
    kind = draw(st.sampled_from(list(TxKind)))
    return Transaction(
        kind=kind, signer=draw(hashes),
        inputs=tuple(draw(st.lists(outpoints, max_size=3))),
        output_count=draw(u8s), payload=draw(PAYLOADS[kind]), value=draw(u64s),
        signature=draw(st.binary(min_size=64, max_size=64)))


@settings(max_examples=300, deadline=None)
@given(transactions())
def test_a_transaction_made_field_by_field_encodes_as_its_table(tx):
    assert tx.encoded == ref_transaction(tx)
    assert tx.signing_payload == ref_transaction(tx)[:-64]


@st.composite
def signed(draw):
    """A transaction of each built kind, signed by the path clients use."""
    ref, info = draw(outpoints), draw(outpoints)
    make = draw(st.sampled_from([
        lambda: build_removable(ALICE, ref, draw(st.binary(max_size=300))),
        lambda: build_prepare(ALICE, ref, draw(u32s)),
        lambda: build_delete(ALICE, draw(u32s)),
        lambda: build_delete(ALICE, draw(u32s), ref),
        lambda: build_info(ALICE, ref, draw(st.binary(max_size=40)),
                           draw(st.lists(st.text(max_size=12), max_size=5))),
        lambda: build_consent(ALICE, ref, info, draw(u64s)),
    ]))
    return make()


@settings(max_examples=150, deadline=None)
@given(signed())
def test_a_signed_transaction_encodes_as_its_table(tx):
    assert tx.encoded == ref_transaction(tx)


@settings(max_examples=200, deadline=None)
@given(outpoints)
def test_an_outpoint_encodes_as_its_table(op):
    assert op.encoded == ref_outpoint(op)


@settings(max_examples=200, deadline=None)
@given(st.builds(PermanentHeader, u32s, hashes, hashes, u8s,
                 st.lists(hashes, max_size=6).map(tuple), hashes))
def test_a_permanent_header_encodes_as_its_table(header):
    assert header.encoded == ref_permanent_header(header)


@settings(max_examples=200, deadline=None)
@given(st.builds(RemovableHeader, u32s, u8s, hashes, hashes))
def test_a_removable_header_encodes_as_its_table(header):
    assert header.encoded == ref_removable_header(header)


def _label(value) -> str:
    name = type(value).__name__
    return f"{name}-{value.kind.name}" if isinstance(value, Transaction) else name


# sha256 of each test_decode_fuzz.BUILT value's encoding, in its order
PINNED = [
    ("Transaction-REGISTER",
     "152f0dae851cfcd6ded6fc5292453f7d757c749f103b1a3ab1aa449c06f41c57"),
    ("Transaction-REMOVABLE",
     "585e0f41e55b528687ae8076584561de35d9559e9376cc5da81d4a29aaa3b680"),
    ("Transaction-PREPARE",
     "dc69573fce3eafb16b49fb9feb254acb21b33f05228d510fe02966dc938fc312"),
    ("Transaction-DELETE",
     "332f1cc6a749771635cf2deef5ee8d462bfc2ac52b6c7b9f3a876947915ce73d"),
    ("Transaction-DELETE",
     "60eb7def40d02fb088979959f3254180e24cf787dac82cc736790630f789de85"),
    ("Transaction-INFO",
     "90f8fab69ca9e1780e46f08971be876f091ae3c96623c2aa60e0e5382833fc81"),
    ("Transaction-CONSENT",
     "58b6f0f58ea6ec4a2a6725f7c0e1f820adb7b48d82c0515d75f5759760e6f571"),
    ("RemovableBlock",
     "4f61bcd23ca8b543a14a69a4cbb3957540a8d9ad19a87214f6d9ac410c92c453"),
    ("PermanentBlock",
     "48962f5206d15489dc916976997f6effb85446823f3eb65d2adfd96d9e79d68d"),
    ("RemovableHeader",
     "84c49596e2447433d97d8758162a5f66072cad47c445463554bb3517623e4a02"),
    ("PermanentHeader",
     "37c2ce74f8a3cbbf8cf9889af47f227527cd3aea528c46320f447faa70570984"),
]


@pytest.mark.parametrize("i", range(len(PINNED)),
                         ids=[f"{i}-{label}" for i, (label, _) in enumerate(PINNED)])
def test_each_built_value_encodes_to_its_pinned_bytes(i):
    label, pinned = PINNED[i]
    value = BUILT[i]
    assert _label(value) == label
    assert hashlib.sha256(value.encoded).hexdigest() == pinned


# ----------------------------------------------------------------------
# what the tables cannot hold

TX = build_consent(ALICE, REF_DUMMY, REF_DUMMY, 3)
RH = RemovableHeader(1, 1, digest(b"prev"), digest(b"root"))
PH = PermanentHeader(1, digest(b"p"), digest(b"r"), 1, (ALICE.pubkey,), digest(b"root"))
SHORT, LONG = b"\x01" * 31, b"\x01" * 33


def _refused(make):
    with pytest.raises(EncodingError):
        value = make()
        value.encoded


WRONG = {
    # a 32-, 64-byte field of 31 or 33 bytes
    "txid": [lambda b=b: OutPoint(b, 0) for b in (SHORT, LONG)],
    "public key": [lambda b=b: KeyPair(b, ALICE._secret) for b in (SHORT, LONG)],
    "signer": [lambda b=b: dataclasses.replace(TX, signer=b) for b in (SHORT, LONG)],
    "signature": [lambda b=b: dataclasses.replace(TX, signature=b)
                  for b in (b"\x01" * 63, b"\x01" * 65)],
    "removable prev": [lambda b=b: dataclasses.replace(RH, prev=b) for b in (SHORT, LONG)],
    "removable tx_root": [lambda b=b: dataclasses.replace(RH, tx_root=b)
                          for b in (SHORT, LONG)],
    "prev_permanent": [lambda b=b: dataclasses.replace(PH, prev_permanent=b)
                       for b in (SHORT, LONG)],
    "prev_removable": [lambda b=b: dataclasses.replace(PH, prev_removable=b)
                       for b in (SHORT, LONG)],
    "permanent tx_root": [lambda b=b: dataclasses.replace(PH, tx_root=b)
                          for b in (SHORT, LONG)],
    "p_list key": [lambda b=b: dataclasses.replace(PH, p_list=(b,)) for b in (SHORT, LONG)],
    # an integer out of its field's range, or not an integer
    "index": [lambda n=n: OutPoint(digest(b"x"), n) for n in (-1, 0x10000, 1.5, "1")],
    "value": [lambda n=n: build_consent(ALICE, REF_DUMMY, REF_DUMMY, n)
              for n in (-1, 2**64, 1.5)],
    "fresh value": [lambda n=n: dataclasses.replace(TX, value=n) for n in (-1, 2**64, 1.5)],
    "interval": [lambda n=n: build_prepare(ALICE, REF_DUMMY, n) for n in (-1, 2**32, 1.5)],
    "output count": [lambda n=n: dataclasses.replace(TX, output_count=n)
                     for n in (-1, 0x100, 1.5)],
    "height": [lambda n=n: dataclasses.replace(PH, height=n) for n in (-1, 2**32, 1.5)],
    "interval_len": [lambda n=n: dataclasses.replace(PH, interval_len=n)
                     for n in (-1, 0x100, 1.5)],
    "seq": [lambda n=n: dataclasses.replace(RH, seq=n) for n in (-1, 0x100, 1.5)],
    "removable interval": [lambda n=n: dataclasses.replace(RH, interval=n)
                           for n in (-1, 2**32, 1.5)],
    # a count past its prefix's range
    "input count": [lambda: dataclasses.replace(TX, inputs=(REF_DUMMY,) * 0x10000)],
    "purpose count": [lambda: build_info(ALICE, REF_DUMMY, b"c", ["ads"] * 0x10000)],
    "p_list count": [lambda: dataclasses.replace(PH, p_list=(ALICE.pubkey,) * 0x100)],
    "block tx count": [lambda: RemovableBlock(RH, (TX,) * 0x10000)],
}


@pytest.mark.parametrize("field", sorted(WRONG))
def test_a_value_its_field_cannot_hold_is_an_encoding_error(field):
    # never struct.error, and never an encoding padded or cut to fit
    for make in WRONG[field]:
        _refused(make)

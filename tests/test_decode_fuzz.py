"""Decoders are total: every mutation of a valid encoding either decodes
or raises a ``MutachainError``, never a bare Python exception.  What
decodes is canonical: it keeps the bytes it was read from, and a fresh
encoding writes exactly those bytes."""

import dataclasses

from hypothesis import given, settings, strategies as st

from mutachain import (
    OutPoint,
    PermanentBlock,
    PermanentHeader,
    RemovableBlock,
    RemovableHeader,
    SIGNATURE_SIZE,
    Transaction,
    build_consent,
    build_delete,
    build_info,
    build_permanent_block,
    build_prepare,
    build_register,
    build_removable_block,
    compute_p_list,
    digest,
)
from mutachain import codec
from mutachain.errors import MutachainError
from support import ALICE, BOB, REF_DUMMY, rem_raw


def built_values() -> list:
    """One built value of every transaction kind, header and block type."""
    info = build_info(ALICE, REF_DUMMY, b"controller", ("ads", "mail"))
    txs = [
        build_register(ALICE),
        rem_raw(BOB, b"erasable"),
        build_prepare(ALICE, REF_DUMMY, 3),
        build_delete(ALICE, 3, OutPoint(digest(b"prepare"), 0)),
        build_delete(BOB, 4),
        info,
        build_consent(BOB, REF_DUMMY, OutPoint(info.txid, 0), 3),
    ]
    removable = build_removable_block(1, 1, digest(b"tip"), txs[1:2])
    permanent = build_permanent_block(
        height=1, prev_permanent=digest(b"tip"),
        prev_removable=removable.block_hash, interval_len=1,
        p_list=compute_p_list(removable.txs), txs=[txs[0]] + txs[2:])
    return txs + [removable, permanent, removable.header, permanent.header]


BUILT = built_values()
HEADER_TYPES = (RemovableHeader, PermanentHeader)
SAMPLES = [(type(v), v.encoded) for v in BUILT if not isinstance(v, HEADER_TYPES)]
EVERY_TYPE = [(type(v), v.encoded) for v in BUILT]


@st.composite
def mutated(draw, samples=SAMPLES, ops=("set", "delete", "insert", "truncate")):
    cls, raw = draw(st.sampled_from(samples))
    buf = bytearray(raw)
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(buf)))
        op = draw(st.sampled_from(ops))
        if op == "set" and at < len(buf):
            buf[at] = draw(st.integers(0, 255))
        elif op == "delete":
            del buf[at:at + draw(st.integers(1, 8))]
        elif op == "insert":
            buf[at:at] = draw(st.binary(min_size=1, max_size=8))
        elif op == "truncate":
            del buf[at:]
    return cls, bytes(buf)


@settings(max_examples=400, deadline=None)
@given(mutated())
def test_mutated_encodings_decode_or_raise_a_package_error(case):
    cls, data = case
    try:
        cls.decode(data)
    except MutachainError:
        pass


def fresh(value):
    """An equal value that holds no cached encoding."""
    if isinstance(value, (PermanentBlock, RemovableBlock)):
        return dataclasses.replace(value, header=fresh(value.header),
                                   txs=tuple(fresh(tx) for tx in value.txs))
    return dataclasses.replace(value)


def unsigned_encoding(tx: Transaction) -> bytes:
    w = codec.Writer()
    tx._encode_unsigned(w)
    return w.getvalue()


@settings(max_examples=400, deadline=None)
# byte overwrites keep the length, so most of them still decode
@given(st.one_of(mutated(EVERY_TYPE), mutated(EVERY_TYPE, ops=("set",))))
def test_what_decodes_keeps_its_bytes_and_they_are_canonical(case):
    cls, data = case
    r = codec.Reader(data)
    try:
        value = cls.decode_from(r)
        r.expect_end()
    except MutachainError:
        return
    parts = [value.header, *value.txs] if hasattr(value, "txs") else [value]
    assert all("encoded" in vars(part) for part in parts)   # kept, not encoded
    assert value.encoded == data
    assert fresh(value).encoded == data
    for tx in (part for part in parts if isinstance(part, Transaction)):
        assert tx.signing_payload == unsigned_encoding(fresh(tx))
        assert tx.encoded == tx.signing_payload + tx.signature


def test_signing_payload_is_the_unsigned_encoding():
    for built in BUILT:
        if isinstance(built, Transaction):
            decoded = Transaction.decode(built.encoded)
            for tx in (built, decoded):
                assert tx.signing_payload == unsigned_encoding(tx)
                assert tx.signing_payload == built.encoded[:-SIGNATURE_SIZE]

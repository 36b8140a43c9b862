"""Decoders are total: every mutation of a valid encoding either decodes
or raises a ``MutachainError``, never a bare Python exception."""

from hypothesis import given, settings, strategies as st

from mutachain import (
    OutPoint,
    PermanentBlock,
    RemovableBlock,
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
from mutachain.errors import MutachainError
from support import ALICE, BOB, REF_DUMMY, rem_raw


def valid_encodings() -> list[tuple[type, bytes]]:
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
    return [(Transaction, tx.encoded) for tx in txs] + [
        (RemovableBlock, removable.encoded), (PermanentBlock, permanent.encoded)]


SAMPLES = valid_encodings()


@st.composite
def mutated(draw):
    cls, raw = draw(st.sampled_from(SAMPLES))
    buf = bytearray(raw)
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(buf)))
        op = draw(st.sampled_from(["set", "delete", "insert", "truncate"]))
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

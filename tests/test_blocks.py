"""Block headers, roots, p_list rules, and structural shape checks."""

import dataclasses

import pytest
from hypothesis import given, strategies as st

from mutachain import (
    MAX_P_LIST,
    NULL_HASH,
    PermanentBlock,
    PermanentHeader,
    RemovableBlock,
    build_delete,
    build_permanent_block,
    build_register,
    build_removable,
    build_removable_block,
    compute_p_list,
    compute_tx_root,
    digest,
    header_overhead,
)
from mutachain.blocks import check_permanent_shape, check_removable_shape
from mutachain.errors import BlockShapeError, DecodingError, PListOverflow
from support import ALICE, BOB, REF_DUMMY, kp, rem_raw

H1 = digest(b"prev-perm")
H2 = digest(b"prev-rem")


def perm(txs=(), interval_len=0, p_list=(), prev_removable=None, height=3):
    return build_permanent_block(
        height=height, prev_permanent=H1,
        prev_removable=(NULL_HASH if interval_len == 0 else H2)
        if prev_removable is None else prev_removable,
        interval_len=interval_len, p_list=p_list, txs=tuple(txs))


def test_permanent_block_round_trip():
    block = perm(txs=(build_register(ALICE), build_delete(BOB, 2)),
                 interval_len=2, p_list=(ALICE.pubkey,))
    back = PermanentBlock.decode(block.encoded)
    assert back == block
    assert back.block_hash == block.block_hash
    assert back.header.p_list == (ALICE.pubkey,)
    with pytest.raises(DecodingError):
        PermanentBlock.decode(block.encoded + b"!")


def test_removable_block_round_trip():
    block = build_removable_block(4, 2, H2, (rem_raw(ALICE, b"data"),))
    back = RemovableBlock.decode(block.encoded)
    assert back == block
    assert back.interval == 4 and back.seq == 2
    assert back.header.prev == H2


def test_block_hash_covers_header_only():
    b1 = perm()
    assert b1.block_hash == digest(b1.header.encoded)


def test_tx_root_is_order_sensitive():
    t1, t2 = rem_raw(ALICE, b"1"), rem_raw(BOB, b"2")
    assert compute_tx_root([t1, t2]) != compute_tx_root([t2, t1])
    assert compute_tx_root([]) == digest(b"")


def test_compute_p_list_sorts_dedupes_and_bounds():
    txs = [rem_raw(BOB, b"x"), rem_raw(ALICE, b"y"), rem_raw(BOB, b"z")]
    plist = compute_p_list(txs)
    assert plist == tuple(sorted({ALICE.pubkey, BOB.pubkey}))
    five = [rem_raw(kp(f"p{i}"), b"d") for i in range(MAX_P_LIST + 1)]
    with pytest.raises(PListOverflow):
        compute_p_list(five)


@given(st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=200))
def test_permanent_header_width_is_closed_form(n_keys, height):
    header = PermanentHeader(
        height=height, prev_permanent=H1, prev_removable=H2,
        interval_len=1, p_list=tuple(sorted(kp(f"w{i}").pubkey for i in range(n_keys))),
        tx_root=digest(b""))
    # u32 height + two 32-byte links + interval_len byte
    # + count byte + 32 per key + 32-byte root
    assert len(header.encoded) == 4 + 32 + 32 + 1 + 1 + 32 * n_keys + 32


def test_header_overhead_table():
    empty = header_overhead(0)
    assert empty == {"second_link": 32, "interval_len": 1, "p_list": 0,
                     "total": 33}
    full = header_overhead(4)
    assert full["p_list"] == 1 + 32 * 4
    assert full["total"] == 162
    with pytest.raises(ValueError):
        header_overhead(5)


def test_shape_rejects_removable_kind_in_permanent_block():
    with pytest.raises(BlockShapeError):
        check_permanent_shape(perm(txs=(rem_raw(ALICE, b"no"),)))


def test_shape_rejects_unsorted_or_duplicate_p_list():
    a, b = sorted((ALICE.pubkey, BOB.pubkey))
    good = perm(interval_len=1, p_list=(a, b))
    check_permanent_shape(good)
    bad = dataclasses.replace(
        good, header=dataclasses.replace(good.header, p_list=(b, a)))
    with pytest.raises(BlockShapeError):
        check_permanent_shape(bad)
    dup = dataclasses.replace(
        good, header=dataclasses.replace(good.header, p_list=(a, a)))
    with pytest.raises(BlockShapeError):
        check_permanent_shape(dup)


def test_shape_rejects_a_p_list_past_its_limit():
    keys = tuple(sorted(kp(f"signer {i}").pubkey for i in range(MAX_P_LIST + 1)))
    check_permanent_shape(perm(interval_len=1, p_list=keys[:MAX_P_LIST]))
    with pytest.raises(PListOverflow):
        check_permanent_shape(perm(interval_len=1, p_list=keys))


def test_shape_rejects_wrong_tx_root():
    good = perm(txs=(build_register(ALICE),))
    bad = dataclasses.replace(
        good, header=dataclasses.replace(good.header, tx_root=digest(b"lie")))
    with pytest.raises(BlockShapeError):
        check_permanent_shape(bad)


def test_shape_ties_interval_len_to_removable_link():
    with pytest.raises(BlockShapeError):
        check_permanent_shape(perm(interval_len=0, prev_removable=H2))
    with pytest.raises(BlockShapeError):
        check_permanent_shape(perm(interval_len=0, p_list=(ALICE.pubkey,),
                                   prev_removable=NULL_HASH))
    with pytest.raises(BlockShapeError):
        check_permanent_shape(perm(interval_len=1, prev_removable=NULL_HASH))
    check_permanent_shape(perm(interval_len=1, prev_removable=H2))


def test_removable_shape_rules():
    ok = build_removable_block(1, 1, H2, (rem_raw(ALICE, b"fine"),))
    check_removable_shape(ok)
    zero_seq = dataclasses.replace(
        ok, header=dataclasses.replace(ok.header, seq=0))
    with pytest.raises(BlockShapeError):
        check_removable_shape(zero_seq)
    wrong_kind = build_removable_block(1, 1, H2, (build_register(ALICE),))
    with pytest.raises(BlockShapeError):
        check_removable_shape(wrong_kind)
    bad_root = dataclasses.replace(
        ok, header=dataclasses.replace(ok.header, tx_root=digest(b"no")))
    with pytest.raises(BlockShapeError):
        check_removable_shape(bad_root)

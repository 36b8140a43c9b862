"""Admission rules, re-inclusion, and candidate assembly."""

import pytest

from mutachain import (
    MAX_BLOCK_TXS,
    MAX_P_LIST,
    ChainParams,
    Mempool,
    OutPoint,
    TxKind,
    build_delete,
    build_prepare,
    build_register,
    build_removable,
    digest,
)
from mutachain.errors import (
    AdmissionFailed,
    AlreadyKnown,
    IneligiblePrepare,
    MempoolRejection,
    PrematureDelete,
    StatelessInvalid,
    UnknownRegisterRef,
    UnknownSigner,
)
from support import ALICE, BOB, CAROL, extend, fresh_chain, kp, reg, rem

FAST = ChainParams(confirm_depth=1, delete_lock=0)


def mine(pool, chain, max_interval_blocks=1):
    interval, block = pool.build_candidate(chain, max_interval_blocks)
    chain.append_segment(interval, block)
    pool.observe_segment(interval, block, chain)
    return interval, block


def test_submit_then_mine_round_trip():
    ch = fresh_chain(ALICE)
    pool = Mempool()
    tx = rem(ch, ALICE, b"hello")
    pool.submit(tx, ch)
    assert tx.txid in pool and len(pool) == 1
    interval, block = mine(pool, ch)
    assert len(interval) == 1 and interval[0].txs == (tx,)
    assert block.header.p_list == (ALICE.pubkey,)
    assert len(pool) == 0


def test_duplicate_submission_rejected():
    ch = fresh_chain(ALICE)
    pool = Mempool()
    tx = rem(ch, ALICE, b"once")
    pool.submit(tx, ch)
    with pytest.raises(AlreadyKnown):
        pool.submit(tx, ch)
    mine(pool, ch)
    with pytest.raises(AlreadyKnown):   # now confirmed on the chain
        pool.submit(tx, ch)


def test_stateless_garbage_and_unknown_signers_bounce():
    ch = fresh_chain(ALICE)
    pool = Mempool()
    import dataclasses
    broken = dataclasses.replace(rem(ch, ALICE, b"x"), output_count=3)
    with pytest.raises(StatelessInvalid):
        pool.submit(broken, ch)
    stranger = build_removable(CAROL, OutPoint(digest(b"?"), 0), b"x")
    with pytest.raises(UnknownSigner):
        pool.submit(stranger, ch)
    # a registered key spending a dangling outpoint is no stranger
    dangling = build_removable(ALICE, OutPoint(digest(b"?"), 0), b"x")
    with pytest.raises(AdmissionFailed) as err:
        pool.submit(dangling, ch)
    assert isinstance(err.value.cause, UnknownRegisterRef)
    # a register for a new key is the one kind a stranger may submit
    pool.submit(build_register(CAROL), ch)
    mine(pool, ch)
    assert ch.registered(CAROL.pubkey)


def test_premature_delete_waits_for_pending_prepare():
    ch = fresh_chain(ALICE, BOB)
    pool = Mempool()
    extend(ch, [rem(ch, ALICE, b"a")])   # sole-owner interval
    prep = build_prepare(ALICE, reg(ch, ALICE), 1)
    pool.submit(prep, ch)
    restricted = build_delete(ALICE, 1, OutPoint(prep.txid, 0))
    with pytest.raises(PrematureDelete):
        pool.submit(restricted, ch)
    # the fast-path delete needs no prepare and sails through
    pool.submit(build_delete(ALICE, 1), ch)


def test_premature_delete_waits_for_duplicates():
    ch = fresh_chain(ALICE, BOB, params=FAST)
    pool = Mempool()
    b_tx = rem(ch, BOB, b"bobs")
    extend(ch, [rem(ch, ALICE, b"a"), b_tx])
    prep = build_prepare(ALICE, reg(ch, ALICE), 1)
    extend(ch, body_txs=[prep])
    tx = build_delete(ALICE, 1, OutPoint(prep.txid, 0))
    with pytest.raises(PrematureDelete):
        pool.submit(tx, ch)
    extend(ch, [b_tx])                   # duplicate lands
    pool.submit(tx, ch)


def test_delete_for_unknown_interval_is_plainly_rejected():
    ch = fresh_chain(ALICE)
    pool = Mempool()
    with pytest.raises(AdmissionFailed):
        pool.submit(build_delete(ALICE, 9), ch)


def test_ineligible_prepare_rejected():
    ch = fresh_chain(ALICE, BOB)
    pool = Mempool()
    extend(ch, [rem(ch, ALICE, b"only alice")])
    with pytest.raises(IneligiblePrepare):
        pool.submit(build_prepare(BOB, reg(ch, BOB), 1), ch)
    with pytest.raises(IneligiblePrepare):
        pool.submit(build_prepare(ALICE, reg(ch, ALICE), 7), ch)


def test_judgment_hook_is_mining_discretion_only():
    ch = fresh_chain(ALICE)
    extend(ch, [rem(ch, ALICE, b"target")])
    picky = Mempool(judgment=lambda tx, chain: tx.kind is not TxKind.DELETE)
    tx = build_delete(ALICE, 1)
    with pytest.raises(AdmissionFailed):
        picky.submit(tx, ch)
    # the chain itself carries the delete fine; the hook forks nothing
    extend(ch, body_txs=[tx])
    assert ch.delete_record(1) is not None


def test_confirmed_prepare_fills_reinclusion_queue_first():
    ch = fresh_chain(ALICE, BOB)
    pool = Mempool()
    b_tx = rem(ch, BOB, b"keep me")
    interval, block = extend(ch, [rem(ch, ALICE, b"a"), b_tx])
    pool.observe_segment(interval, block, ch)
    prep = build_prepare(ALICE, reg(ch, ALICE), 1)
    interval, block = extend(ch, body_txs=[prep])
    pool.observe_segment(interval, block, ch)
    assert b_tx.txid in pool
    # the duplicate outranks fresher submissions
    pool.submit(rem(ch, ALICE, b"later gossip"), ch)
    assert pool.pending()[0] == b_tx
    interval, _ = mine(pool, ch)
    assert b_tx in interval[0].txs


def test_pending_prepare_pulls_duplicates_into_its_own_segment():
    ch = fresh_chain(ALICE, BOB)
    pool = Mempool()
    b_tx = rem(ch, BOB, b"needs a copy")
    interval, block = extend(ch, [rem(ch, ALICE, b"a"), b_tx])
    pool.observe_segment(interval, block, ch)
    prep = build_prepare(ALICE, reg(ch, ALICE), 1)
    pool.submit(prep, ch)
    interval, block = pool.build_candidate(ch, 1)
    # prepare confirms in this block and the duplicate rides the same
    # segment, so the delete is never blocked on a later miner
    assert prep in block.txs
    assert any(b_tx in rb.txs for rb in interval)


def test_candidate_respects_p_list_bound():
    ch = fresh_chain(*[kp(f"m{i}") for i in range(6)])
    pool = Mempool()
    for i in range(6):
        member = kp(f"m{i}")
        pool.submit(rem(ch, member, bytes([i])), ch)
    interval, block = pool.build_candidate(ch, 1)
    assert len(block.header.p_list) == MAX_P_LIST
    assert sum(len(rb.txs) for rb in interval) == MAX_P_LIST
    ch.append_segment(interval, block)   # valid by construction
    pool.observe_segment(interval, block, ch)
    assert len(pool) == 2                # the other signers wait


def test_candidate_respects_block_capacity():
    ch = fresh_chain(ALICE)
    pool = Mempool()
    for i in range(MAX_BLOCK_TXS + 3):
        pool.submit(rem(ch, ALICE, bytes([i])), ch)
    interval, block = pool.build_candidate(ch, 1)
    assert len(interval) == 1
    assert len(interval[0].txs) == MAX_BLOCK_TXS
    interval, block = pool.build_candidate(ch, 2)
    assert len(interval) == 2
    assert sum(len(rb.txs) for rb in interval) == MAX_BLOCK_TXS + 3
    ch.append_segment(interval, block)


def test_zero_interval_blocks_mines_a_spine_only_block():
    ch = fresh_chain(ALICE)
    pool = Mempool()
    pool.submit(rem(ch, ALICE, b"waits"), ch)
    pool.submit(build_register(CAROL), ch)
    interval, block = pool.build_candidate(ch, 0)
    assert interval == ()
    assert block.header.interval_len == 0
    assert [t.kind for t in block.txs] == [TxKind.REGISTER]
    ch.append_segment(interval, block)
    pool.observe_segment(interval, block, ch)
    assert len(pool) == 1                # the removable is still queued


def test_unrelated_rejections_are_mempool_rejections():
    ch = fresh_chain(ALICE)
    pool = Mempool()
    with pytest.raises(MempoolRejection):
        pool.submit(build_register(ALICE), ch)   # already registered

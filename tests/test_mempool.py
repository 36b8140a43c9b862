"""Admission rules, re-inclusion, and candidate assembly."""

import sys

import pytest

from mutachain import (
    MAX_BLOCK_TXS,
    MAX_P_LIST,
    BlockStore,
    ChainParams,
    Mempool,
    Node,
    OutPoint,
    TxKind,
    build_delete,
    build_prepare,
    build_register,
    build_removable,
    digest,
)
from mutachain import mempool
from mutachain.codec import U8_MAX
from mutachain.errors import (
    AdmissionFailed,
    AlreadyKnown,
    IneligiblePrepare,
    MempoolRejection,
    PrematureDelete,
    RemovableTxDependsOnDeletedState,
    StatelessInvalid,
    UnknownRegisterRef,
    UnknownSigner,
)
from support import ALICE, BOB, CAROL, DAN, REF_DUMMY, extend, fresh_chain, kp, reg, rem

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


def refused_delete(height: int) -> tuple[int, str]:
    """The lines one refused restricted delete executes in ``submit`` on
    a chain of ``height``, and its message: Alice prepared interval 1,
    whose copy of Bob's data has not confirmed, and Carol fills every
    other interval above it."""
    ch = fresh_chain(ALICE, BOB, CAROL, params=FAST)
    extend(ch, [rem(ch, ALICE, b"a"), rem(ch, BOB, b"b")])
    prep = build_prepare(ALICE, reg(ch, ALICE), 1)
    extend(ch, body_txs=[prep])
    while ch.height < height:
        extend(ch, [rem(ch, CAROL, b"c%d" % ch.height)] if ch.height % 2 else [])
    pool, delete = Mempool(), build_delete(ALICE, 1, OutPoint(prep.txid, 0))
    with pytest.raises(PrematureDelete):
        pool.submit(delete, ch)             # the signature's verdict is kept
    lines = 0

    def count(frame, event, arg):
        nonlocal lines
        lines += event == "line"
        return count
    before = sys.gettrace()
    sys.settrace(count)
    try:
        with pytest.raises(PrematureDelete) as refused:
            pool.submit(delete, ch)
    finally:
        sys.settrace(before)
    return lines, str(refused.value)


def test_a_refused_delete_costs_the_same_at_every_height():
    # a restricted delete whose duplicates are missing reads only the
    # gaps that await a delete, and a live chain has none
    low, high = refused_delete(20), refused_delete(240)
    assert low[1] == high[1]
    assert abs(low[0] - high[0]) <= 0.02 * max(low[0], high[0])


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


def test_admitted_prepare_queues_its_copies_at_once():
    ch = fresh_chain(ALICE, BOB)
    pool = Mempool()
    b_tx = rem(ch, BOB, b"copy me now")
    extend(ch, [rem(ch, ALICE, b"a"), b_tx])
    pool.submit(build_prepare(ALICE, reg(ch, ALICE), 1), ch)
    # held before any candidate is built, ahead of the prepare itself
    assert b_tx.txid in pool and pool.pending()[0] == b_tx


def bob_prepared_shared_interval(ch):
    """Interval 1 holds alice's and bob's data, interval 2 a copy of
    alice's, and bob's prepare for interval 1 is confirmed."""
    a_tx, b_tx = rem(ch, ALICE, b"kept elsewhere"), rem(ch, BOB, b"erase me")
    extend(ch, [a_tx, b_tx])
    extend(ch, [a_tx])
    bob_prep = build_prepare(BOB, reg(ch, BOB), 1)
    extend(ch, body_txs=[bob_prep])
    return b_tx, build_delete(BOB, 1, OutPoint(bob_prep.txid, 0))


def test_no_copies_once_the_prepared_interval_has_a_delete():
    ch = fresh_chain(ALICE, BOB, params=FAST)
    pool = Mempool()
    b_tx, bob_delete = bob_prepared_shared_interval(ch)
    # alice's prepare confirms in the very segment that deletes interval 1
    interval, block = extend(ch, body_txs=[
        build_prepare(ALICE, reg(ch, ALICE), 1), bob_delete])
    pool.observe_segment(interval, block, ch)
    assert b_tx.txid not in pool
    mine(pool, ch)
    assert ch.prune() == [1]
    assert not ch.tx_confirmed(b_tx.txid)   # bob's data is gone for good


def test_a_queued_copy_leaves_once_its_interval_has_a_delete():
    ch = fresh_chain(ALICE, BOB, params=FAST)
    pool = Mempool()
    b_tx, bob_delete = bob_prepared_shared_interval(ch)
    interval, block = extend(ch, body_txs=[build_prepare(ALICE, reg(ch, ALICE), 1)])
    pool.observe_segment(interval, block, ch)
    assert b_tx.txid in pool
    # another miner's segment confirms bob's delete before this pool mines
    interval, block = extend(ch, body_txs=[bob_delete])
    pool.observe_segment(interval, block, ch)
    assert b_tx.txid not in pool
    mine(pool, ch)
    assert ch.prune() == [1]
    assert not ch.tx_confirmed(b_tx.txid)


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


def test_an_interval_holds_no_more_blocks_than_its_header_counts(monkeypatch):
    monkeypatch.setattr(mempool, "MAX_BLOCK_TXS", 1)
    signers = (ALICE, BOB, CAROL, DAN)
    node = Node(fresh_chain(*signers), Mempool())
    for i in range(U8_MAX + 1):
        node.mempool.submit(rem(node.chain, signers[i % 4], b"%d" % i), node.chain)
    interval, block = node.mempool.build_candidate(node.chain, 300)
    assert len(interval) == block.header.interval_len == U8_MAX
    node.extend([(interval, block)])
    assert node.chain.height == block.height and len(node.mempool) == 1


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


def _rebuilt_digest(chain, root):
    with BlockStore(root, create=True) as store:
        store.rebuild(chain)
        return store.digest()


@pytest.mark.parametrize("case, refusal, cause", [
    ("erased-input", AdmissionFailed, RemovableTxDependsOnDeletedState),
    ("unregistered-signer", UnknownSigner, None),
    ("wrong-register-output", AdmissionFailed, UnknownRegisterRef),
    ("admitted", None, None),
])
def test_removable_admission_reads_the_chain_only(tmp_path, case, refusal, cause):
    ch = fresh_chain(ALICE, BOB, params=FAST)
    gone = rem(ch, ALICE, b"erased")
    extend(ch, [gone])                                  # 1
    extend(ch, body_txs=[build_delete(ALICE, 1)])       # 2
    extend(ch)                                          # 3
    assert ch.prune() == [1]
    tx = {
        "erased-input": build_removable(ALICE, OutPoint(gone.txid, 0), b"on gone state"),
        "unregistered-signer": build_removable(CAROL, REF_DUMMY, b"stranger"),
        "wrong-register-output": build_removable(BOB, REF_DUMMY, b"stray"),
        "admitted": rem(ch, BOB, b"fresh"),
    }[case]
    before, stored = ch.copy(), _rebuilt_digest(ch, tmp_path / "before")

    pool = Mempool()
    if refusal is None:
        pool.submit(tx, ch)
        assert tx.txid in pool
    else:
        with pytest.raises(refusal) as err:
            pool.submit(tx, ch)
        if cause is not None:
            assert type(err.value.cause) is cause
        assert tx.txid not in pool
    assert vars(ch) == vars(before)
    assert _rebuilt_digest(ch, tmp_path / "after") == stored

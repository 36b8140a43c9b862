"""Chain state rules: segment admission, deletion authorization, pruning."""

import pytest

from mutachain import (
    Chain,
    ChainParams,
    IntervalStatus,
    NULL_HASH,
    OutPoint,
    TxKind,
    build_consent,
    build_delete,
    build_info,
    build_prepare,
    build_register,
    build_removable,
    digest,
    replay_segments,
)
from mutachain.errors import (
    BlockShapeError,
    BrokenIntervalChain,
    DuplicateRegistration,
    IntervalAlreadyDeleted,
    IntervalLenMismatch,
    InvalidDelete,
    LedgerError,
    MissingDuplicates,
    NotEligible,
    NotSoleOwnerAndNoPrepare,
    PListMismatch,
    PrepareSignerMismatch,
    RemovableTxDependsOnDeletedState,
    UnknownInterval,
    UnknownParent,
    UnknownRegisterRef,
)
from support import ALICE, BOB, CAROL, extend, fresh_chain, make_segment, reg, rem

FAST = ChainParams(confirm_depth=1, delete_lock=0)


def test_bootstrap_registers_genesis_keys():
    ch = fresh_chain(ALICE, BOB)
    assert ch.height == 0
    assert ch.registered(ALICE.pubkey) and ch.registered(BOB.pubkey)
    assert not ch.registered(CAROL.pubkey)
    assert ch.block_at(0).header.prev_permanent == NULL_HASH
    assert ch.register_outpoint(CAROL.pubkey) is None


def test_appends_track_height_and_links():
    ch = fresh_chain(ALICE)
    _, b1 = extend(ch, [rem(ch, ALICE, b"one")])
    _, b2 = extend(ch)
    assert ch.height == 2
    assert b2.header.prev_permanent == b1.block_hash
    assert ch.interval_record(1).length == 1
    assert ch.interval_record(2).length == 0
    assert ch.interval_txs(1)[0].payload.data == b"one"


def test_wrong_parent_or_height_rejected():
    ch = fresh_chain(ALICE)
    interval, block = make_segment(ch, height=3)
    with pytest.raises(UnknownParent):
        ch.append_segment(interval, block)
    interval, block = make_segment(ch, prev_permanent=digest(b"not the tip"))
    with pytest.raises(UnknownParent):
        ch.append_segment(interval, block)
    assert ch.height == 0


def test_interval_len_must_match_body():
    ch = fresh_chain(ALICE)
    interval, block = make_segment(ch, [rem(ch, ALICE, b"x")], interval_len=2)
    with pytest.raises(IntervalLenMismatch):
        ch.append_segment(interval, block)


def test_p_list_must_match_interval_signers():
    ch = fresh_chain(ALICE, BOB)
    interval, block = make_segment(ch, [rem(ch, ALICE, b"x")],
                                   p_list=(BOB.pubkey,))
    with pytest.raises(PListMismatch):
        ch.append_segment(interval, block)
    # sorted but overstated p_list fails too
    interval, block = make_segment(
        ch, [rem(ch, ALICE, b"x")],
        p_list=tuple(sorted((ALICE.pubkey, BOB.pubkey))))
    with pytest.raises(PListMismatch):
        ch.append_segment(interval, block)


def test_interval_chain_links_are_checked():
    ch = fresh_chain(ALICE)
    txs = [rem(ch, ALICE, bytes([i])) for i in range(3)]
    interval, block = make_segment(ch, txs, per_block=1)
    assert len(interval) == 3
    # swap two interval blocks: seq and prev links both break
    with pytest.raises(BrokenIntervalChain):
        ch.append_segment((interval[1], interval[0], interval[2]), block)
    # header must link the last interval block
    _, lying = make_segment(ch, txs, per_block=1,
                            prev_removable=interval[0].block_hash)
    with pytest.raises(BrokenIntervalChain):
        ch.append_segment(interval, lying)


def test_segment_commit_is_atomic():
    ch = fresh_chain(ALICE)
    good = rem(ch, ALICE, b"kept?")
    bad_register = build_register(ALICE)       # duplicate, will fail
    interval, block = make_segment(ch, [good], [bad_register])
    with pytest.raises(DuplicateRegistration):
        ch.append_segment(interval, block)
    # the removable that rode along must not have leaked into state
    assert ch.height == 0
    with pytest.raises(UnknownInterval):
        ch.interval_record(1)
    assert not ch.tx_confirmed(good.txid)


def test_copy_is_independent():
    ch = fresh_chain(ALICE)
    snap = ch.copy()
    extend(ch, [rem(ch, ALICE, b"later")])
    assert ch.height == 1 and snap.height == 0


def test_duplicate_registration_rejected():
    ch = fresh_chain(ALICE)
    with pytest.raises(DuplicateRegistration):
        extend(ch, body_txs=[build_register(ALICE)])
    # a new key registers fine
    extend(ch, body_txs=[build_register(CAROL)])
    assert ch.registered(CAROL.pubkey)


def test_confirmed_tx_cannot_repeat_on_the_spine():
    ch = fresh_chain(ALICE, BOB)
    extend(ch, [rem(ch, ALICE, b"a")])
    prep = build_prepare(ALICE, reg(ch, ALICE), 1)
    extend(ch, body_txs=[prep])
    with pytest.raises(LedgerError):
        extend(ch, body_txs=[prep])


def test_removable_requires_signers_own_register_output():
    ch = fresh_chain(ALICE, BOB)
    stranger = build_removable(CAROL, OutPoint(digest(b"nowhere"), 0), b"x")
    interval, block = make_segment(ch, [stranger])
    with pytest.raises(UnknownRegisterRef):
        ch.append_segment(interval, block)
    borrowed = build_removable(ALICE, reg(ch, BOB), b"x")
    interval, block = make_segment(ch, [borrowed])
    with pytest.raises(UnknownRegisterRef):
        ch.append_segment(interval, block)


def test_prepare_requires_membership_and_a_real_interval():
    ch = fresh_chain(ALICE, BOB)
    extend(ch, [rem(ch, ALICE, b"only alice")])
    extend(ch)   # empty interval 2
    with pytest.raises(NotEligible):
        extend(ch, body_txs=[build_prepare(BOB, reg(ch, BOB), 1)])
    with pytest.raises(UnknownInterval):
        extend(ch, body_txs=[build_prepare(ALICE, reg(ch, ALICE), 2)])
    with pytest.raises(UnknownInterval):
        extend(ch, body_txs=[build_prepare(ALICE, reg(ch, ALICE), 99)])
    extend(ch, body_txs=[build_prepare(ALICE, reg(ch, ALICE), 1)])
    assert len(ch.prepares_for(ALICE.pubkey, 1)) == 1


def test_prepare_may_target_the_interval_its_block_closes():
    ch = fresh_chain(ALICE)
    # the interval is indexed before the body applies, so a prepare in
    # the closing block already sees it
    extend(ch, [rem(ch, ALICE, b"data")],
           [build_prepare(ALICE, reg(ch, ALICE), 1)])
    assert len(ch.prepares_for(ALICE.pubkey, 1)) == 1


def test_sole_owner_deletes_without_prepare():
    ch = fresh_chain(ALICE, BOB)
    extend(ch, [rem(ch, ALICE, b"mine alone")])
    extend(ch, body_txs=[build_delete(ALICE, 1)])
    assert ch.delete_record(1) is not None
    assert ch.delete_record(1).signer == ALICE.pubkey
    # still physically present until pruning
    assert ch.interval_status(1) is IntervalStatus.PRESENT


def test_shared_interval_fast_delete_rejected():
    ch = fresh_chain(ALICE, BOB)
    extend(ch, [rem(ch, ALICE, b"a"), rem(ch, BOB, b"b")])
    with pytest.raises(NotSoleOwnerAndNoPrepare):
        extend(ch, body_txs=[build_delete(ALICE, 1)])


def test_restricted_delete_needs_confirmed_duplicates():
    ch = fresh_chain(ALICE, BOB)
    b_tx = rem(ch, BOB, b"bobs bytes")
    extend(ch, [rem(ch, ALICE, b"a"), b_tx])
    prep = build_prepare(ALICE, reg(ch, ALICE), 1)
    extend(ch, body_txs=[prep])
    attempt = build_delete(ALICE, 1, OutPoint(prep.txid, 0))
    with pytest.raises(MissingDuplicates) as err:
        extend(ch, body_txs=[attempt])
    assert err.value.missing_txids == (b_tx.txid,)
    # byte-identical re-inclusion in a live interval unblocks it
    extend(ch, [b_tx])
    extend(ch, body_txs=[attempt])
    assert ch.delete_record(1).height == 4


def test_duplicate_in_the_deleting_segment_counts():
    ch = fresh_chain(ALICE, BOB)
    b_tx = rem(ch, BOB, b"shared")
    extend(ch, [rem(ch, ALICE, b"a"), b_tx])
    prep = build_prepare(ALICE, reg(ch, ALICE), 1)
    extend(ch, body_txs=[prep])
    # interval blocks of a segment apply before its body, so the dup
    # and the delete may share a segment
    extend(ch, [b_tx], [build_delete(ALICE, 1, OutPoint(prep.txid, 0))])
    assert ch.delete_record(1) is not None


def test_own_transactions_need_no_duplicate():
    ch = fresh_chain(ALICE, BOB)
    extend(ch, [rem(ch, ALICE, b"a1"), rem(ch, ALICE, b"a2"),
                rem(ch, BOB, b"b1")])
    prep = build_prepare(ALICE, reg(ch, ALICE), 1)
    extend(ch, body_txs=[prep])
    with pytest.raises(MissingDuplicates) as err:
        extend(ch, body_txs=[build_delete(ALICE, 1, OutPoint(prep.txid, 0))])
    # only bob's transaction blocks the delete
    bobs = tuple(tx.txid for tx in ch.interval_txs(1) if tx.signer == BOB.pubkey)
    assert err.value.missing_txids == bobs


def test_delete_by_non_preparer_rejected():
    ch = fresh_chain(ALICE, BOB)
    extend(ch, [rem(ch, ALICE, b"a"), rem(ch, BOB, b"b")])
    prep = build_prepare(ALICE, reg(ch, ALICE), 1)
    extend(ch, body_txs=[prep])
    extend(ch, [rem(ch, ALICE, b"a")])   # alice's dup, so bob's delete
    # would otherwise be unblocked
    with pytest.raises(PrepareSignerMismatch):
        extend(ch, body_txs=[build_delete(BOB, 1, OutPoint(prep.txid, 0))])


def test_delete_input_must_be_a_confirmed_prepare():
    ch = fresh_chain(ALICE, BOB)
    extend(ch, [rem(ch, ALICE, b"a"), rem(ch, BOB, b"b")])
    with pytest.raises(NotSoleOwnerAndNoPrepare):
        extend(ch, body_txs=[build_delete(ALICE, 1, OutPoint(digest(b"?"), 0))])


def test_prepare_interval_must_match_delete_interval():
    ch = fresh_chain(ALICE)
    extend(ch, [rem(ch, ALICE, b"one")])
    extend(ch, [rem(ch, ALICE, b"two")])
    prep = build_prepare(ALICE, reg(ch, ALICE), 1)
    extend(ch, body_txs=[prep])
    with pytest.raises(InvalidDelete):
        extend(ch, body_txs=[build_delete(ALICE, 2, OutPoint(prep.txid, 0))])


def test_second_delete_for_an_interval_rejected():
    ch = fresh_chain(ALICE)
    extend(ch, [rem(ch, ALICE, b"gone soon")])
    extend(ch, body_txs=[build_delete(ALICE, 1)])
    with pytest.raises(IntervalAlreadyDeleted):
        extend(ch, body_txs=[build_delete(ALICE, 1)])


def test_unregistered_delete_signer_rejected():
    ch = fresh_chain(ALICE)
    extend(ch, [rem(ch, ALICE, b"x")])
    with pytest.raises(UnknownRegisterRef):
        extend(ch, body_txs=[build_delete(CAROL, 1)])


def test_prune_waits_for_both_depths():
    ch = fresh_chain(ALICE, params=ChainParams(confirm_depth=2, delete_lock=1))
    extend(ch, [rem(ch, ALICE, b"temporary")])          # interval 1
    extend(ch, body_txs=[build_delete(ALICE, 1)])       # delete at 2
    assert ch.prune_eligible() == []                    # tip-del = 0
    extend(ch)                                          # tip 3
    assert ch.prune_eligible() == []                    # tip-del = 1 < 2
    extend(ch)                                          # tip 4
    assert ch.prune_eligible() == [1]
    assert ch.prune() == [1]
    rec = ch.interval_record(1)
    assert rec.status is IntervalStatus.DELETED
    assert rec.blocks is None
    assert rec.length == 1 and rec.p_list == (ALICE.pubkey,)
    assert ch.prune() == []                             # idempotent


def test_delete_lock_delays_fresh_interval_erasure():
    ch = fresh_chain(ALICE, params=ChainParams(confirm_depth=1, delete_lock=2))
    extend(ch, [rem(ch, ALICE, b"young")])              # interval 1
    # delete lands right next to the interval: height gap 1 < lock 2
    extend(ch, body_txs=[build_delete(ALICE, 1)])
    extend(ch)
    extend(ch)
    assert ch.prune_eligible() == []
    # an older interval with the same confirm depth prunes fine
    extend(ch, [rem(ch, ALICE, b"old enough")])         # interval 5
    extend(ch)
    extend(ch)
    extend(ch, body_txs=[build_delete(ALICE, 5)])       # gap 3 >= 2
    extend(ch)
    assert ch.prune_eligible() == [5]


def test_erased_reference_is_named_for_what_it_was():
    ch = fresh_chain(ALICE, params=FAST)
    only_copy = rem(ch, ALICE, b"will vanish")
    extend(ch, [only_copy])
    extend(ch, body_txs=[build_delete(ALICE, 1)])
    extend(ch)
    ch.prune()
    assert ch.interval_record(1).blocks is None
    leaning = build_removable(ALICE, OutPoint(only_copy.txid, 0), b"on gone state")
    with pytest.raises(RemovableTxDependsOnDeletedState):
        extend(ch, [leaning])
    # named so only while no unpruned interval holds a copy of it
    extend(ch, [only_copy])                             # 4: the same bytes again
    with pytest.raises(UnknownRegisterRef):
        extend(ch, [leaning])
    extend(ch, body_txs=[build_delete(ALICE, 4)])       # 5: deleted, not yet pruned
    with pytest.raises(UnknownRegisterRef):
        extend(ch, [leaning])
    extend(ch)
    assert ch.prune() == [4]
    with pytest.raises(RemovableTxDependsOnDeletedState):
        extend(ch, [leaning])


def test_delete_record_names_the_prepare_it_spent():
    ch = fresh_chain(ALICE, BOB, params=FAST)
    b_tx = rem(ch, BOB, b"bobs")
    extend(ch, [rem(ch, ALICE, b"shared"), b_tx])       # 1: restricted path
    extend(ch, [rem(ch, ALICE, b"alone")])              # 2: fast path
    prep1 = build_prepare(ALICE, reg(ch, ALICE), 1)
    prep2 = build_prepare(ALICE, reg(ch, ALICE), 2)
    extend(ch, [b_tx], [prep1, prep2])                  # 3
    extend(ch, body_txs=[build_delete(ALICE, 1, OutPoint(prep1.txid, 0)),
                         build_delete(ALICE, 2)])       # 4
    extend(ch)
    assert ch.prune() == [1, 2]
    segments = [(ch.interval_record(x).blocks, ch.block_at(x))
                for x in range(ch.height + 1)]
    assert segments[1][0] is None and segments[2][0] is None
    for chain in (ch, replay_segments(segments, FAST)):
        assert chain.delete_record(1).prepare == prep1.txid
        assert chain.delete_record(2).prepare is None
        # a deleted interval offers no prepare, spent or not
        assert chain.prepares_for(ALICE.pubkey, 1) == []
        assert chain.prepares_for(ALICE.pubkey, 2) == []
        assert chain.sign(TxKind.DELETE, ALICE, interval=2).inputs == ()


def test_spent_prepare_cannot_be_spent_again():
    ch = fresh_chain(ALICE, BOB)
    b_tx = rem(ch, BOB, b"bobs")
    extend(ch, [rem(ch, ALICE, b"a"), b_tx])            # 1
    extend(ch, [rem(ch, ALICE, b"b")])                  # 2
    prep = build_prepare(ALICE, reg(ch, ALICE), 1)
    extend(ch, [b_tx], [prep])
    spend = OutPoint(prep.txid, 0)
    extend(ch, body_txs=[build_delete(ALICE, 1, spend)])
    with pytest.raises(InvalidDelete) as err:
        extend(ch, body_txs=[build_delete(ALICE, 2, spend)])
    assert type(err.value) is InvalidDelete
    with pytest.raises(IntervalAlreadyDeleted):
        extend(ch, body_txs=[build_delete(ALICE, 1, spend)])


def test_reinclusion_candidates_lists_only_unduplicated_foreign_txs():
    ch = fresh_chain(ALICE, BOB, CAROL)
    b_tx, c_tx = rem(ch, BOB, b"b"), rem(ch, CAROL, b"c")
    extend(ch, [rem(ch, ALICE, b"a"), b_tx, c_tx])
    extend(ch, [c_tx])   # carol's already duplicated
    prep = build_prepare(ALICE, reg(ch, ALICE), 1)
    extend(ch, body_txs=[prep])
    assert ch.reinclusion_candidates(prep) == [b_tx]


def test_genesis_must_close_an_empty_interval():
    ch = fresh_chain(ALICE)
    g = ch.block_at(0)
    assert g.header.interval_len == 0
    txs = [rem(ch, ALICE, b"no")]
    interval, block = make_segment(ch, txs, height=0,
                                   prev_permanent=NULL_HASH)
    fresh = Chain()
    with pytest.raises((BlockShapeError, UnknownParent)):
        fresh.append_segment(interval, block)


def test_sign_spends_the_outpoint_each_kind_needs():
    ch = fresh_chain(ALICE, BOB)
    register = reg(ch, ALICE)
    assert ch.sign(TxKind.REGISTER, CAROL) == build_register(CAROL)
    assert ch.sign(TxKind.REGISTER, CAROL).inputs == ()
    for kind in (TxKind.REMOVABLE, TxKind.PREPARE, TxKind.INFO):
        assert ch.sign(kind, ALICE, purposes=("ads",)).inputs == (register,)
    with pytest.raises(UnknownRegisterRef):
        ch.sign(TxKind.REMOVABLE, CAROL)
    extend(ch, [rem(ch, ALICE, b"a"), rem(ch, BOB, b"b")])
    # no prepare yet: the fast path spends nothing
    assert ch.sign(TxKind.DELETE, ALICE, interval=1).inputs == ()
    prep = build_prepare(ALICE, register, 1)
    info = build_info(BOB, reg(ch, BOB), b"ctl", ("ads",))
    assert ch.sign(TxKind.PREPARE, ALICE, interval=1) == prep
    assert ch.sign(TxKind.INFO, BOB, controller=b"ctl", purposes=("ads",)) == info
    assert ch.sign(TxKind.REMOVABLE, ALICE, data=b"a") == rem(ch, ALICE, b"a")
    extend(ch, body_txs=[prep, info])
    assert ch.sign(TxKind.DELETE, ALICE, interval=1).inputs == (OutPoint(prep.txid, 0),)
    # a consent opens from the register output, then spends its own
    grant = build_consent(ALICE, register, OutPoint(info.txid, 0), 1)
    assert ch.sign(TxKind.CONSENT, ALICE, info=info.txid, value=1) == grant
    assert grant.inputs == (register,)
    extend(ch, body_txs=[grant])
    assert ch.sign(TxKind.CONSENT, ALICE, info=info.txid).inputs == (OutPoint(grant.txid, 0),)


def test_other_data_of_the_signer_is_no_duplicate():
    # bob signs interval 2 too, but not the transaction at stake: on a
    # chain that saw every body, only a byte-identical copy counts
    ch = fresh_chain(ALICE, BOB)
    b_tx = rem(ch, BOB, b"at stake")
    extend(ch, [rem(ch, ALICE, b"a"), b_tx])
    extend(ch, [rem(ch, BOB, b"unrelated")])
    prep = build_prepare(ALICE, reg(ch, ALICE), 1)
    extend(ch, body_txs=[prep])
    with pytest.raises(MissingDuplicates) as err:
        extend(ch, body_txs=[build_delete(ALICE, 1, OutPoint(prep.txid, 0))])
    assert err.value.missing_txids == (b_tx.txid,)
    assert err.value.signers == (BOB.pubkey,)

"""Whole-history verification with and without pruned intervals."""

import dataclasses

import pytest

from mutachain import (
    ChainParams,
    IntervalStatus,
    OutPoint,
    build_delete,
    build_prepare,
    digest,
    replay_segments,
    verify_chain,
)
from mutachain.errors import MissingDeleteEvidence, MissingDuplicates
from oracles import forged_hidden_duplicate_history
from support import ALICE, BOB, extend, fresh_chain, reg, rem

FAST = ChainParams(confirm_depth=1, delete_lock=0)


def deleted_history():
    """Chain where interval 1 was deleted and pruned; returns segments
    as a verifier would receive them, plus the live chain."""
    ch = fresh_chain(ALICE, BOB, params=FAST)
    b_tx = rem(ch, BOB, b"bobs")
    extend(ch, [rem(ch, ALICE, b"private"), b_tx])          # 1
    prep = build_prepare(ALICE, reg(ch, ALICE), 1)
    extend(ch, [b_tx], [prep])                              # 2: dup rides along
    extend(ch, body_txs=[build_delete(ALICE, 1, OutPoint(prep.txid, 0))])  # 3
    extend(ch)                                              # 4
    assert ch.prune() == [1]
    segments = [(ch.interval_record(x).blocks, ch.block_at(x))
                for x in range(ch.height + 1)]
    return ch, segments


def test_full_history_replays_identically():
    ch = fresh_chain(ALICE, BOB)
    extend(ch, [rem(ch, ALICE, b"x"), rem(ch, BOB, b"y")])
    extend(ch)
    segments = [(ch.interval_record(x).blocks, ch.block_at(x))
                for x in range(ch.height + 1)]
    rebuilt = replay_segments(segments, ch.params)
    assert rebuilt.tip_hash == ch.tip_hash
    assert rebuilt.height == ch.height
    assert rebuilt.interval_record(1).txids == ch.interval_record(1).txids
    report = verify_chain(segments, ch.params)
    assert report.ok
    assert report.present == 1 and report.deleted == 0
    assert str(report) == "valid: height 2, 1 intervals present, 0 deleted"


def test_gap_with_delete_evidence_verifies():
    ch, segments = deleted_history()
    assert segments[1][0] is None          # body really gone
    report = verify_chain(segments, ch.params)
    assert report.ok
    assert report.deleted == 1 and report.present == 1
    rebuilt = replay_segments(segments, ch.params)
    assert rebuilt.tip_hash == ch.tip_hash
    assert rebuilt.interval_status(1) is IntervalStatus.DELETED


def test_gap_without_evidence_fails():
    ch = fresh_chain(ALICE, params=FAST)
    extend(ch, [rem(ch, ALICE, b"here")])
    extend(ch)
    segments = [(ch.interval_record(x).blocks, ch.block_at(x))
                for x in range(ch.height + 1)]
    segments[1] = (None, segments[1][1])   # body withheld, no delete anywhere
    report = verify_chain(segments, ch.params)
    assert not report.ok
    assert "MissingDeleteEvidence" in report.problem
    assert "1" in report.problem


def test_an_unbacked_gap_is_reported_at_its_own_height():
    # the gap rule runs after the whole replay, yet the report names the
    # first unbacked interval, not a height past the tip
    ch = fresh_chain(ALICE, params=FAST)
    extend(ch, [rem(ch, ALICE, b"one")])                        # 1
    extend(ch, [rem(ch, ALICE, b"two")])                        # 2
    extend(ch, [rem(ch, ALICE, b"three")])                      # 3
    extend(ch)                                                  # 4
    segments = [(ch.interval_record(x).blocks, ch.block_at(x))
                for x in range(ch.height + 1)]
    for x in (2, 3):
        segments[x] = (None, segments[x][1])
    report = verify_chain(segments, ch.params)
    assert not report.ok
    assert report.height == 1 and report.present == 1 and report.deleted == 0
    assert str(report).startswith(
        "invalid at height 2: MissingDeleteEvidence: no delete evidence for "
        "interval(s) [2, 3]")


def test_replay_refuses_an_unbacked_gap_before_it_can_excuse_a_duplicate():
    # interval 2 names bob but is served as a gap with no delete
    # anywhere; a chain replayed from it would let that gap stand in for
    # bob's copy when alice deletes interval 1
    ch = fresh_chain(ALICE, BOB, params=FAST)
    extend(ch, [rem(ch, ALICE, b"a"), rem(ch, BOB, b"b")])      # 1
    extend(ch, [rem(ch, BOB, b"other")])                        # 2
    extend(ch)
    segments = [(ch.interval_record(x).blocks, ch.block_at(x))
                for x in range(ch.height + 1)]
    segments[2] = (None, segments[2][1])
    with pytest.raises(MissingDeleteEvidence) as err:
        replay_segments(iter(segments), ch.params)
    assert err.value.intervals == (2,)


def test_tampered_spine_fails_verification():
    ch, segments = deleted_history()
    block = segments[4][1]
    forged = dataclasses.replace(
        block, header=dataclasses.replace(block.header,
                                          prev_permanent=digest(b"forged")))
    segments[4] = (segments[4][0], forged)
    report = verify_chain(segments, ch.params)
    assert not report.ok
    assert "UnknownParent" in report.problem
    assert report.height == 3
    assert str(report).startswith("invalid at height 4:")


def test_replayed_prepare_inside_gap_interval_is_honored():
    # the prepare and delete confirmed while interval 1 was live; a
    # verifier replaying the gap must not call the interval deleted
    # before the delete height
    ch, segments = deleted_history()
    rebuilt = replay_segments(segments, ch.params)
    assert rebuilt.delete_record(1).height == 3
    delete_tx = segments[3][1].txs[-1]
    prep = rebuilt.prepare_record(delete_tx.inputs[0].txid)
    assert prep is not None and prep.interval == 1 and prep.height == 2
    # spent by that very delete, so not offered for another one
    assert rebuilt.prepares_for(ALICE.pubkey, 1) == []


def test_hidden_duplicate_evidence_is_trusted_only_with_a_gap():
    # interval 2 held the duplicate that justified deleting interval 1;
    # prune both and the verifier must still accept the history, taking
    # the vanished duplicate on trust because a gap follows the target
    ch = fresh_chain(ALICE, BOB, params=FAST)
    b_tx = rem(ch, BOB, b"bobs")
    extend(ch, [rem(ch, ALICE, b"a"), b_tx])                 # 1
    prep_a = build_prepare(ALICE, reg(ch, ALICE), 1)
    extend(ch, [b_tx], [prep_a])                             # 2
    extend(ch, body_txs=[build_delete(ALICE, 1, OutPoint(prep_a.txid, 0))])  # 3
    prep_b = build_prepare(BOB, reg(ch, BOB), 2)
    extend(ch, body_txs=[prep_b])                            # 4
    extend(ch, body_txs=[build_delete(BOB, 2, OutPoint(prep_b.txid, 0))])    # 5
    extend(ch)                                               # 6
    assert sorted(ch.prune()) == [1, 2]
    segments = [(ch.interval_record(x).blocks, ch.block_at(x))
                for x in range(ch.height + 1)]
    report = verify_chain(segments, ch.params)
    assert report.ok and report.deleted == 2


def test_strict_mode_rejects_bare_duplicate_claims():
    # same transcript as above but replayed strictly segment by segment
    # while bodies are still on hand: the dup requirement really binds
    ch = fresh_chain(ALICE, BOB, params=FAST)
    b_tx = rem(ch, BOB, b"bobs")
    extend(ch, [rem(ch, ALICE, b"a"), b_tx])
    prep_a = build_prepare(ALICE, reg(ch, ALICE), 1)
    extend(ch, body_txs=[prep_a])   # no duplicate anywhere
    with pytest.raises(MissingDuplicates):
        extend(ch, body_txs=[build_delete(ALICE, 1, OutPoint(prep_a.txid, 0))])


def honest_hidden_duplicate_history():
    """The honest transcript above, pruned, as a verifier receives it
    with every body that survives the prune."""
    ch = fresh_chain(ALICE, BOB, params=FAST)
    b_tx = rem(ch, BOB, b"bobs")
    extend(ch, [rem(ch, ALICE, b"a"), b_tx])                 # 1
    prep_a = build_prepare(ALICE, reg(ch, ALICE), 1)
    extend(ch, [b_tx], [prep_a])                             # 2
    extend(ch, body_txs=[build_delete(ALICE, 1, OutPoint(prep_a.txid, 0))])  # 3
    prep_b = build_prepare(BOB, reg(ch, BOB), 2)
    extend(ch, body_txs=[prep_b])                            # 4
    extend(ch, body_txs=[build_delete(BOB, 2, OutPoint(prep_b.txid, 0))])    # 5
    extend(ch)                                               # 6
    segments = [(ch.interval_record(x).blocks, ch.block_at(x))
                for x in range(ch.height + 1)]
    return ch, segments


@pytest.mark.parametrize("gaps", [(1,), (2,), (1, 2)])
def test_honest_hidden_duplicate_verifies_under_every_gap_placement(gaps):
    # the duplicate of bob's transaction lives in interval 2: present,
    # it is seen; a gap whose delete comes later, its p_list names bob
    ch, segments = honest_hidden_duplicate_history()
    for x in gaps:
        segments[x] = (None, segments[x][1])
    report = verify_chain(segments, ch.params)
    assert report.ok and report.deleted == len(gaps)


@pytest.mark.parametrize("gaps", [(), (1,), (2,), (1, 2)])
def test_forged_hidden_duplicate_is_rejected_under_every_gap_placement(gaps):
    # bob's only copy sat in interval 1, and interval 2's p_list does
    # not name bob, so no placement of gaps can excuse the delete of 1
    segments = forged_hidden_duplicate_history()
    for x in gaps:
        segments[x] = (None, segments[x][1])
    report = verify_chain(segments)
    assert not report.ok
    assert "MissingDuplicates" in report.problem
    assert report.height == 2        # the delete of interval 1 is refused
    with pytest.raises(MissingDuplicates) as err:
        replay_segments(segments)
    assert err.value.signers == (segments[0][1].txs[1].signer,)

"""Purpose schemas and grant chains, standalone and on a chain."""

import pytest
from hypothesis import given, strategies as st

from mutachain import (
    OutPoint,
    build_consent,
    build_info,
    build_prepare,
    digest,
    labels_for_mask,
    mask_for_labels,
)
from mutachain.errors import (
    ConsentInputSpent,
    ConsentValueOutOfRange,
    DuplicateConsentChain,
    UnknownInfo,
)
from mutachain.tx import InfoPayload
from support import ALICE, BOB, CAROL, extend, fresh_chain, reg, rem

SCHEMA = InfoPayload(controller=BOB.pubkey, purposes=("analytics", "ads", "sharing"))


def test_mask_and_labels_are_inverse():
    assert mask_for_labels(SCHEMA, ()) == 0
    assert mask_for_labels(SCHEMA, ("analytics",)) == 1
    assert mask_for_labels(SCHEMA, ("ads",)) == 2
    assert mask_for_labels(SCHEMA, ("analytics", "sharing")) == 5
    assert labels_for_mask(SCHEMA, 5) == ("analytics", "sharing")
    assert labels_for_mask(SCHEMA, 0) == ()
    with pytest.raises(ConsentValueOutOfRange):
        labels_for_mask(SCHEMA, 8)
    with pytest.raises(ValueError):
        mask_for_labels(SCHEMA, ("unknown",))


@given(st.integers(min_value=0, max_value=7))
def test_every_mask_round_trips(value):
    assert mask_for_labels(SCHEMA, labels_for_mask(SCHEMA, value)) == value


def chain_with_info():
    ch = fresh_chain(ALICE, BOB, CAROL)
    info = build_info(CAROL, reg(ch, CAROL), BOB.pubkey, ("analytics", "ads"))
    extend(ch, body_txs=[info])
    return ch, info


def grant_tx(ch, subject, info, value, spend=None):
    spent = spend if spend is not None else reg(ch, subject)
    return build_consent(subject, spent, OutPoint(info.txid, 0), value)


def test_grant_update_revoke_lifecycle():
    ch, info = chain_with_info()
    c1 = grant_tx(ch, ALICE, info, 1)
    extend(ch, body_txs=[c1])
    assert ch.consent_grant(ALICE.pubkey, info.txid) == 1

    c2 = grant_tx(ch, ALICE, info, 3, spend=OutPoint(c1.txid, 0))
    extend(ch, body_txs=[c2])
    assert ch.consent_grant(ALICE.pubkey, info.txid) == 3
    rec = ch.info_record(info.txid)
    assert labels_for_mask(rec, 3) == ("analytics", "ads")

    c3 = grant_tx(ch, ALICE, info, 0, spend=OutPoint(c2.txid, 0))
    extend(ch, body_txs=[c3])
    assert ch.consent_grant(ALICE.pubkey, info.txid) == 0
    st8 = ch.consent_chain(ALICE.pubkey, info.txid)
    assert not st8.live and st8.outpoint is None
    assert [e.value for e in st8.history] == [1, 3, 0]


def test_consent_value_bounded_by_schema():
    ch, info = chain_with_info()
    with pytest.raises(ConsentValueOutOfRange):
        extend(ch, body_txs=[grant_tx(ch, ALICE, info, 4)])
    extend(ch, body_txs=[grant_tx(ch, ALICE, info, 3)])   # max mask fits


def test_consent_requires_known_info():
    ch, _ = chain_with_info()
    extend(ch, [rem(ch, ALICE, b"a")])
    prep = build_prepare(ALICE, reg(ch, ALICE), 2)
    extend(ch, body_txs=[prep])
    # an unknown output, and a confirmed body output that is no info's
    for ref in (OutPoint(digest(b"no such info"), 0), OutPoint(prep.txid, 0)):
        tx = build_consent(ALICE, reg(ch, ALICE), ref, 1)
        with pytest.raises(UnknownInfo):
            extend(ch, body_txs=[tx])


def test_second_fresh_chain_rejected_while_live():
    ch, info = chain_with_info()
    extend(ch, body_txs=[grant_tx(ch, ALICE, info, 1)])
    with pytest.raises(DuplicateConsentChain):
        extend(ch, body_txs=[grant_tx(ch, ALICE, info, 2)])


def test_stale_consent_output_cannot_be_respent():
    ch, info = chain_with_info()
    c1 = grant_tx(ch, ALICE, info, 1)
    extend(ch, body_txs=[c1])
    c2 = grant_tx(ch, ALICE, info, 2, spend=OutPoint(c1.txid, 0))
    extend(ch, body_txs=[c2])
    stale = grant_tx(ch, ALICE, info, 3, spend=OutPoint(c1.txid, 0))
    with pytest.raises(ConsentInputSpent):
        extend(ch, body_txs=[stale])


def test_revoked_chain_reopens_from_register():
    ch, info = chain_with_info()
    c1 = grant_tx(ch, ALICE, info, 1)
    extend(ch, body_txs=[c1])
    c0 = grant_tx(ch, ALICE, info, 0, spend=OutPoint(c1.txid, 0))
    extend(ch, body_txs=[c0])
    assert ch.consent_grant(ALICE.pubkey, info.txid) == 0
    again = grant_tx(ch, ALICE, info, 2)   # spends the register output
    extend(ch, body_txs=[again])
    assert ch.consent_grant(ALICE.pubkey, info.txid) == 2
    # full history survives the reopen
    assert [e.value for e in ch.consent_chain(ALICE.pubkey, info.txid).history] \
        == [1, 0, 2]


def test_chains_are_per_subject_and_info():
    ch, info = chain_with_info()
    other = build_info(CAROL, reg(ch, CAROL), BOB.pubkey, ("x",))
    extend(ch, body_txs=[other])
    extend(ch, body_txs=[grant_tx(ch, ALICE, info, 1),
                         grant_tx(ch, BOB, info, 2),
                         grant_tx(ch, ALICE, other, 1)])
    assert ch.consent_grant(ALICE.pubkey, info.txid) == 1
    assert ch.consent_grant(BOB.pubkey, info.txid) == 2
    assert ch.consent_grant(ALICE.pubkey, other.txid) == 1
    assert ch.consent_grant(CAROL.pubkey, info.txid) == 0


def test_info_records_are_queryable():
    ch, info = chain_with_info()
    rec = ch.info_record(info.txid)
    assert rec.controller == BOB.pubkey
    assert rec.purposes == ("analytics", "ads")
    assert ch.info_record(digest(b"nope")) is None

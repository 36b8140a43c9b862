"""Trial application leaves no trace: every write a rejected or
never-committed stage made is undone, for every transaction kind."""

import pytest

from mutachain import (
    ChainParams,
    Mempool,
    OutPoint,
    TxKind,
    build_consent,
    build_delete,
    build_info,
    build_prepare,
    build_register,
    build_removable,
)
from mutachain.errors import LedgerError, MempoolRejection
from support import ALICE, BOB, CAROL, DAN, REF_DUMMY, extend, fresh_chain, make_segment, reg, rem

FAST = ChainParams(confirm_depth=1, delete_lock=0)


def world():
    """A chain with a shared interval (1), a sole-owner one (2), a
    shared one lacking duplicates (3), prepares for 1 and 3, and an info."""
    ch = fresh_chain(ALICE, BOB, CAROL, params=FAST)
    b1 = rem(ch, BOB, b"b1")
    extend(ch, [rem(ch, ALICE, b"a1"), b1])                      # 1
    extend(ch, [rem(ch, ALICE, b"solo")])                        # 2
    extend(ch, [rem(ch, ALICE, b"a3"), rem(ch, CAROL, b"c3")])   # 3
    prep1 = build_prepare(ALICE, reg(ch, ALICE), 1)
    prep3 = build_prepare(ALICE, reg(ch, ALICE), 3)
    info = build_info(ALICE, reg(ch, ALICE), b"ctl", ("analytics", "ads"))
    extend(ch, [b1], [prep1, prep3, info])                       # 4: b1 duplicated
    cases = [   # (transaction, admitted)
        (build_register(DAN), True),
        (build_register(ALICE), False),
        (rem(ch, BOB, b"fresh"), True),
        (build_removable(BOB, REF_DUMMY, b"stray"), False),
        (build_info(BOB, reg(ch, BOB), b"ctl", ("x",)), True),
        (build_info(BOB, REF_DUMMY, b"ctl", ("x",)), False),
        (build_consent(BOB, reg(ch, BOB), OutPoint(info.txid, 0), 1), True),
        (build_consent(BOB, reg(ch, BOB), OutPoint(info.txid, 0), 4), False),
        (build_prepare(BOB, reg(ch, BOB), 1), True),
        (build_prepare(CAROL, reg(ch, CAROL), 2), False),
        (build_delete(ALICE, 2), True),                                  # fast path
        (build_delete(ALICE, 1), False),
        (build_delete(ALICE, 1, OutPoint(prep1.txid, 0)), True),         # restricted
        (build_delete(ALICE, 3, OutPoint(prep3.txid, 0)), False),        # c3 has no dup
    ]
    return ch, cases


KINDS = ("register", "removable", "info", "consent", "prepare",
         "fast-delete", "restricted-delete")


@pytest.mark.parametrize("case", range(14),
                         ids=[f"{k}-{v}" for k in KINDS for v in ("ok", "rejected")])
def test_trials_and_rejected_segments_leave_the_chain_untouched(case):
    ch, cases = world()
    tx, admitted = cases[case]
    before = ch.copy()

    pool = Mempool()
    try:
        pool.submit(tx, ch)
    except MempoolRejection:
        assert not admitted
        pool._pending[tx.txid] = tx     # a stale queue entry is trial-applied too
    else:
        assert admitted
    assert vars(ch) == vars(before)

    interval, block = pool.build_candidate(ch, 1)
    placed = [t for rb in interval for t in rb.txs] + list(block.txs)
    assert (tx in placed) == admitted
    assert vars(ch) == vars(before)

    # the transaction applies (or not), then a duplicate register fails
    # the segment after it
    removable = [tx] if tx.kind is TxKind.REMOVABLE else []
    body = ([] if removable else [tx]) + [build_register(ALICE)]
    with pytest.raises(LedgerError):
        ch.append_segment(*make_segment(ch, removable, body))
    assert vars(ch) == vars(before)


def test_inner_commit_is_undone_when_the_outer_stage_is_left():
    ch, _ = world()
    before = ch.copy()
    with ch.stage():
        with ch.stage():
            ch.apply_body_tx(build_register(DAN), ch.height + 1)
            ch.commit()
        extend(ch, [rem(ch, BOB, b"kept?")])    # append_segment nests a stage too
        assert ch.registered(DAN.pubkey) and ch.height == before.height + 1
    assert vars(ch) == vars(before)


def test_uncommitted_inner_stage_undoes_only_its_own_writes():
    ch, _ = world()
    before = ch.copy()
    with ch.stage():                # never committed: the final check
        with ch.stage():
            ch.apply_body_tx(build_register(DAN), ch.height + 1)
            with ch.stage():
                ch.apply_removable(rem(ch, BOB, b"trial"), ch.height + 1)
                ch.apply_body_tx(build_delete(ALICE, 2), ch.height + 1)
            kept = ch.copy()
            ch.commit()
        # the chain's tables; the journals of the open stages differ
        assert vars(ch.copy()) == vars(kept)
        assert ch.registered(DAN.pubkey) and ch.delete_record(2) is None
        assert not ch.tx_confirmed(rem(ch, BOB, b"trial").txid)
    assert vars(ch) == vars(before)

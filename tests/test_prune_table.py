"""``Chain.prune`` reads a table of deleted intervals that still hold
their bodies.  On random single-chain histories it must drop exactly
what the walk over every confirmed delete, kept here as the reference,
finds eligible: after each segment, after a replay that fails partway
through its suffix, and on a copy that prunes apart from its source."""

import pytest
from hypothesis import given, settings, strategies as st

from mutachain import (
    ChainParams,
    IntervalStatus,
    OutPoint,
    build_delete,
    build_prepare,
    build_register,
    verify,
)
from mutachain.errors import DuplicateRegistration, LedgerError
from support import ALICE, BOB, CAROL, extend, fresh_chain, make_segment, reg, rem

KEYS = (ALICE, BOB, CAROL)
OPS = ("prepare", "fast-delete", "restricted-delete")


def reference(chain):
    tip, params = chain.height, chain.params
    return sorted(x for x in range(tip + 1)
                  if (rec := chain.delete_record(x)) is not None
                  and chain.interval_status(x) is IntervalStatus.PRESENT
                  and tip - rec.height >= params.confirm_depth
                  and tip - x >= params.delete_lock)


def check(chain, prune: bool) -> None:
    expected = reference(chain)
    assert chain.prune_eligible() == expected
    if prune:
        assert chain.prune() == expected
        assert reference(chain) == []


def grow(chain, data):
    """Append one segment: fresh data from some keys, copies of live
    data, and body transactions that may name the interval the segment
    closes; each body transaction is kept only if the segment stays
    valid with it.  Returns the segment."""
    h = chain.height + 1
    removables = {}
    for k in data.draw(st.lists(st.sampled_from(KEYS), max_size=3, unique=True)):
        tx = rem(chain, k, f"{h}:{KEYS.index(k)}".encode())
        removables[tx.txid] = tx
    live = [tx for x in range(1, h) for tx in chain.interval_txs(x)]
    if live:
        for tx in data.draw(st.lists(st.sampled_from(live), max_size=2)):
            removables[tx.txid] = tx
    removables = list(removables.values())

    body, prepared = [], {}
    for op, k, x in data.draw(st.lists(st.tuples(
            st.sampled_from(OPS), st.sampled_from(KEYS), st.integers(1, h)), max_size=3)):
        if op == "prepare":
            tx = prepared[k, x] = build_prepare(k, reg(chain, k), x)
        elif op == "fast-delete":
            tx = build_delete(k, x)
        else:
            prep = prepared.get((k, x)) or next(iter(chain.prepares_for(k.pubkey, x)), None)
            if prep is None:
                continue
            tx = build_delete(k, x, OutPoint(prep.txid, 0))
        try:
            with chain.trial():
                extend(chain, removables, body + [tx])
        except LedgerError:
            continue
        body.append(tx)
    return extend(chain, removables, body)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_prune_drops_exactly_what_the_walk_over_every_delete_finds(data):
    params = ChainParams(confirm_depth=data.draw(st.integers(0, 3)),
                         delete_lock=data.draw(st.integers(0, 3)))
    chain = fresh_chain(*KEYS, params=params)
    for _ in range(data.draw(st.integers(1, 12))):
        grow(chain, data)
        check(chain, prune=data.draw(st.booleans()))

    # a copy prunes apart from its source, which keeps its own table
    twin = chain.copy()
    check(twin, prune=True)
    for _ in range(data.draw(st.integers(0, 3))):
        grow(twin, data)
        check(twin, prune=True)
    check(chain, prune=False)

    # a suffix that fails at its last segment leaves the table as it was
    twin = chain.copy()
    suffix = [grow(twin, data) for _ in range(data.draw(st.integers(1, 4)))]
    suffix.append(make_segment(twin, body_txs=[build_register(ALICE)]))
    before = chain.copy()
    with pytest.raises(DuplicateRegistration):
        verify.replay_segments(suffix, params, onto=chain)
    assert vars(chain) == vars(before)
    check(chain, prune=True)
    for segment in suffix[:-1]:
        chain.append_segment(*segment)
        check(chain, prune=data.draw(st.booleans()))

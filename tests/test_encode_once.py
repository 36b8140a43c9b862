"""Each value is encoded at most once.  Replaying stored bytes encodes
nothing: decoders keep what they read.  A built transaction is encoded
when it is signed and never again on its way through a mempool and a
chain."""

from collections import Counter

import pytest

from mutachain import (
    BlockStore,
    Mempool,
    PermanentHeader,
    RemovableHeader,
    Transaction,
    verify_chain,
)
from support import ALICE, fresh_chain, rem
from test_store import fill
from test_verify import deleted_history


@pytest.fixture()
def encodes(monkeypatch):
    """Calls to every encoder of a transaction or a header, by name."""
    counts = Counter()

    def count(owner, name):
        original = getattr(owner, name)

        def counted(self, w):
            counts[f"{owner.__name__}.{name}"] += 1
            return original(self, w)
        monkeypatch.setattr(owner, name, counted)

    count(Transaction, "_encode_unsigned")
    count(PermanentHeader, "encode_into")
    count(RemovableHeader, "encode_into")
    return counts


def test_loading_and_auditing_a_store_encode_nothing(tmp_path, encodes):
    ch, _ = deleted_history()
    with BlockStore(tmp_path / "s", create=True) as store:
        fill(store, ch)
        store.prune(1)
    encodes.clear()
    with BlockStore(tmp_path / "s") as store:
        loaded = store.load_chain()
        report = verify_chain(store.segments(), store.params)
    assert loaded.tip_hash == ch.tip_hash
    assert report.ok and report.deleted == 1
    assert encodes == Counter()


def test_a_built_transaction_is_encoded_once_from_mempool_to_chain(encodes):
    ch = fresh_chain(ALICE)
    encodes.clear()
    tx = rem(ch, ALICE, b"once")
    pool = Mempool()
    pool.submit(tx, ch)
    interval, block = pool.build_candidate(ch, 1)
    ch.append_segment(interval, block)
    pool.observe_segment(interval, block, ch)
    assert ch.interval_record(1).txids == {tx.txid}
    assert encodes["Transaction._encode_unsigned"] == 1

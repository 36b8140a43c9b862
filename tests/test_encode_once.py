"""Each value is encoded at most once.  Replaying stored bytes encodes
nothing: decoders keep what they read.  A built transaction is encoded
when it is signed and never again on its way through a mempool and a
chain."""

from collections import Counter
from functools import cached_property

import pytest

from mutachain import tx as tx_module
from mutachain import (
    BlockStore,
    Mempool,
    PermanentHeader,
    RemovableHeader,
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

        def counted(*args):
            counts[f"{owner.__name__}.{name}"] += 1
            return original(*args)
        monkeypatch.setattr(owner, name, counted)

    def count_cached(owner, name):
        original = vars(owner)[name].func

        def counted(self):
            counts[f"{owner.__name__}.{name}"] += 1
            return original(self)
        spy = cached_property(counted)
        spy.__set_name__(owner, name)
        monkeypatch.setattr(owner, name, spy)

    # a transaction's fields up to its value: signed once, or encoded whole
    count(tx_module, "_encode_fields")
    count_cached(PermanentHeader, "encoded")
    count_cached(RemovableHeader, "encoded")
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


def test_a_built_transaction_is_encoded_once_from_mempool_to_chain(tmp_path, encodes):
    ch = fresh_chain(ALICE)
    store = BlockStore(tmp_path / "s", create=True)
    fill(store, ch)
    encodes.clear()
    tx = rem(ch, ALICE, b"once")
    pool = Mempool()
    pool.submit(tx, ch)
    interval, block = pool.build_candidate(ch, 1)
    ch.append_segment(interval, block)
    pool.observe_segment(interval, block, ch)
    store.append_segment(interval, block)
    store.close()
    assert ch.interval_record(1).txids == {tx.txid}
    assert len(interval) == 1
    # each header is encoded once too: the stored block writes its bytes
    assert encodes == Counter({"mutachain.tx._encode_fields": 1,
                               "PermanentHeader.encoded": 1,
                               "RemovableHeader.encoded": 1})

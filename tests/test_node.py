"""Node.extend: all or nothing, then observe, persist and prune."""

import os

import pytest

from mutachain import BlockStore, ChainParams, Mempool, Node, build_delete
from mutachain.errors import PListMismatch
from support import ALICE, BOB, fresh_chain, make_segment, rem, store_holds

FAST = ChainParams(confirm_depth=1, delete_lock=0)


class Crash(RuntimeError):
    pass


def stored_node(path, chain, mempool=None):
    store = BlockStore(path, create=True)
    store.rebuild(chain)
    return Node(chain, mempool, store)


def test_a_broken_second_segment_leaves_chain_mempool_and_store_as_they_were(tmp_path):
    chain = fresh_chain(ALICE, BOB, params=FAST)
    pool = Mempool()
    held = rem(chain, ALICE, b"in the first segment")
    pool.submit(held, chain)
    node = stored_node(tmp_path / "s", chain, pool)
    twin = chain.copy()
    first = make_segment(twin, [held])
    twin.append_segment(*first)
    broken = make_segment(twin, [rem(twin, BOB, b"signed by bob")], p_list=(ALICE.pubkey,))
    before, digest = chain.copy(), node.store.digest()
    with node.store:
        with pytest.raises(PListMismatch):
            node.extend([first, broken])
        assert node.chain is chain and vars(chain) == vars(before)
        assert pool.pending() == [held]
        assert node.store.digest() == digest


def test_extend_returns_the_intervals_it_pruned_and_their_files_are_gone(tmp_path):
    chain = fresh_chain(ALICE, params=FAST)
    node = stored_node(tmp_path / "s", chain)
    with node.store:
        assert node.extend([make_segment(chain, [rem(chain, ALICE, b"erase me")])]) == []
        assert node.extend([make_segment(chain, body_txs=[build_delete(ALICE, 1)])]) == []
        assert store_holds(node.store.root, b"erase me")
        assert node.extend([make_segment(chain)]) == [1]
        assert chain.interval_blocks(1) is None
        assert not store_holds(node.store.root, b"erase me")


def test_a_fork_no_taller_than_the_tip_changes_nothing(tmp_path):
    chain = fresh_chain(ALICE, BOB, params=FAST)
    pool = Mempool()
    node = stored_node(tmp_path / "s", chain, pool)
    other = Node(fresh_chain(ALICE, BOB, params=FAST))
    for data in (b"mine", b"also mine"):
        node.extend([make_segment(chain, [rem(chain, ALICE, data)])])
        other.extend([make_segment(other.chain, [rem(other.chain, BOB, data)])])
    pool.submit(rem(chain, BOB, b"queued"), chain)
    before, pending, digest = chain.copy(), pool.pending(), node.store.digest()
    with node.store:
        assert node.extend(other.history_segments()) == []
        assert node.chain is chain and vars(chain) == vars(before)
        assert pool.pending() == pending
        assert node.store.digest() == digest
        # one block taller, the same fork replaces the chain and the store
        other.extend([make_segment(other.chain)])
        node.extend(other.history_segments())
        assert node.chain.tip_hash == other.chain.tip_hash
    with BlockStore(tmp_path / "s") as store:
        assert store.load_chain().tip_hash == other.chain.tip_hash


def test_prune_erases_what_a_crash_between_append_and_prune_left(tmp_path, monkeypatch):
    chain = fresh_chain(ALICE, params=FAST)
    node = stored_node(tmp_path / "s", chain)
    with node.store:
        node.extend([make_segment(chain, [rem(chain, ALICE, b"erase me")])])
        node.extend([make_segment(chain, body_txs=[build_delete(ALICE, 1)])])

        def crash(*args):
            raise Crash("pwrite")
        monkeypatch.setattr(os, "pwrite", crash)
        with pytest.raises(Crash):
            node.extend([make_segment(chain)])   # appended, then the prune dies
        monkeypatch.undo()
    with BlockStore(tmp_path / "s") as store:
        assert store.height == 3
        assert store_holds(store.root, b"erase me")
        node = Node(store.load_chain(), store=store)
        assert node.prune() == [1]
        assert not store_holds(store.root, b"erase me")
        assert node.prune() == []

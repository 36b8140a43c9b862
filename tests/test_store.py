"""Disk layout, crash recovery, physical erasure, and store digests."""

import json

import pytest

from mutachain import (
    BlockStore,
    ChainParams,
    IntervalStatus,
    OutPoint,
    build_delete,
    build_prepare,
    verify_chain,
)
from mutachain.errors import (
    CorruptStore,
    MissingDeleteEvidence,
    MissingDuplicates,
    StoreLocked,
)
from support import ALICE, BOB, extend, fresh_chain, reg, rem

FAST = ChainParams(confirm_depth=1, delete_lock=0)


class Crash(RuntimeError):
    pass


def fill(store, ch):
    """Mirror ``ch``'s history into the store segment by segment."""
    store.set_params(ch.params)
    for x in range(ch.height + 1):
        store.append_segment(ch.interval_record(x).blocks, ch.block_at(x))


def simple_chain():
    ch = fresh_chain(ALICE, BOB, params=FAST)
    extend(ch, [rem(ch, ALICE, b"first"), rem(ch, BOB, b"second")])
    extend(ch)
    return ch


def test_round_trip_through_disk(tmp_path):
    ch = simple_chain()
    with BlockStore(tmp_path / "s", create=True) as store:
        fill(store, ch)
        assert store.height == ch.height
    with BlockStore(tmp_path / "s") as store:
        loaded = store.load_chain()
    assert loaded.tip_hash == ch.tip_hash
    assert loaded.interval_txs(1) == ch.interval_txs(1)


def test_loaded_gap_excuses_no_missing_duplicate(tmp_path):
    # interval 1 names bob and is pruned on disk; once loaded, its
    # delete is on record, so it cannot stand in for a copy of bob's
    # later data
    ch = fresh_chain(ALICE, BOB, params=FAST)
    b_tx = rem(ch, BOB, b"bobs")
    extend(ch, [rem(ch, ALICE, b"a"), b_tx])                          # 1
    prep = build_prepare(ALICE, reg(ch, ALICE), 1)
    extend(ch, [b_tx], [prep])                                        # 2
    extend(ch, body_txs=[build_delete(ALICE, 1, OutPoint(prep.txid, 0))])
    extend(ch)
    assert ch.prune() == [1]
    with BlockStore(tmp_path / "s", create=True) as store:
        fill(store, ch)
        store.prune(1)
    with BlockStore(tmp_path / "s") as store:
        loaded = store.load_chain()
    assert loaded.interval_blocks(1) is None
    extend(loaded, [rem(loaded, ALICE, b"a2"), rem(loaded, BOB, b"b2")])
    x = loaded.height
    prep2 = build_prepare(ALICE, reg(loaded, ALICE), x)
    extend(loaded, body_txs=[prep2])
    with pytest.raises(MissingDuplicates) as err:
        extend(loaded, body_txs=[build_delete(ALICE, x, OutPoint(prep2.txid, 0))])
    assert err.value.signers == (BOB.pubkey,)


def test_lock_excludes_second_writer(tmp_path):
    with BlockStore(tmp_path / "s", create=True):
        with pytest.raises(StoreLocked):
            BlockStore(tmp_path / "s")
    # released on close
    with BlockStore(tmp_path / "s"):
        pass


def test_leftover_lock_file_does_not_block_opening(tmp_path):
    with BlockStore(tmp_path / "s", create=True):
        pass
    # what a crashed process leaves behind: the file, but no lock on it
    (tmp_path / "s" / ".lock").write_text("4242")
    with BlockStore(tmp_path / "s") as store:
        assert store.height == -1


def test_open_missing_store_fails(tmp_path):
    with pytest.raises(CorruptStore):
        BlockStore(tmp_path / "nothing-here")
    with BlockStore(tmp_path / "s", create=True):
        pass
    with pytest.raises(CorruptStore):
        BlockStore(tmp_path / "s", create=True)   # already a store


def test_appends_must_be_contiguous(tmp_path):
    ch = simple_chain()
    with BlockStore(tmp_path / "s", create=True) as store:
        store.set_params(ch.params)
        store.append_segment((), ch.block_at(0))
        with pytest.raises(CorruptStore):
            store.append_segment(ch.interval_record(2).blocks, ch.block_at(2))


def test_prune_unlinks_interval_files(tmp_path):
    ch = fresh_chain(ALICE, params=FAST)
    extend(ch, [rem(ch, ALICE, b"purge me")])
    extend(ch, body_txs=[build_delete(ALICE, 1)])
    extend(ch)
    with BlockStore(tmp_path / "s", create=True) as store:
        fill(store, ch)
        assert (store.root / "interval_1" / "1.blk").exists()
        assert ch.prune() == [1]
        store.prune(1)
        assert not (store.root / "interval_1").exists()
        manifest = json.loads((store.root / "manifest.json").read_text())
        assert manifest["intervals"]["1"]["status"] == "deleted"
    with BlockStore(tmp_path / "s") as store:
        loaded = store.load_chain()
    assert loaded.interval_status(1) is IntervalStatus.DELETED
    assert loaded.interval_blocks(1) is None


def test_torn_log_append_is_swept(tmp_path):
    ch = simple_chain()
    with BlockStore(tmp_path / "s", create=True) as store:
        fill(store, ch)
        # a crash after the log write but before the manifest flip
        # leaves a tail the next load must discard
        with open(store.root / "permanent.log", "ab") as fh:
            fh.write(b"\xde\xad\xbe\xef half a block")
    with BlockStore(tmp_path / "s") as store:
        loaded = store.load_chain()
        assert loaded.height == ch.height
    # the tail is physically gone after the sweep
    with BlockStore(tmp_path / "s") as store:
        log = (store.root / "permanent.log").read_bytes()
    assert b"\xde\xad\xbe\xef" not in log


def test_crash_between_interval_file_and_manifest(tmp_path):
    ch = simple_chain()
    with BlockStore(tmp_path / "s", create=True) as store:
        store.set_params(ch.params)
        store.append_segment((), ch.block_at(0))
        hits = {"n": 0}

        def bomb(point):
            if point == "log-append":
                hits["n"] += 1
                raise Crash(point)

        store.crash_hook = bomb
        with pytest.raises(Crash):
            store.append_segment(ch.interval_record(1).blocks, ch.block_at(1))
        assert hits["n"] == 1
        # interval files were written, but nothing was committed
        assert store.height == 0
    with BlockStore(tmp_path / "s") as store:
        loaded = store.load_chain()   # orphan directory swept
        assert loaded.height == 0
        assert not (store.root / "interval_1").exists()


def test_crash_mid_prune_completes_on_load(tmp_path):
    ch = fresh_chain(ALICE, params=FAST)
    extend(ch, [rem(ch, ALICE, b"going"), rem(ch, ALICE, b"gone")],
           per_block=1)
    extend(ch, body_txs=[build_delete(ALICE, 1)])
    extend(ch)
    with BlockStore(tmp_path / "s", create=True) as store:
        fill(store, ch)
        ch.prune()
        taken = {"n": 0}

        def bomb(point):
            if point == "prune-file" and taken["n"] == 1:
                raise Crash(point)
            taken["n"] += 1

        store.crash_hook = bomb
        with pytest.raises(Crash):
            store.prune(1)
        # one of two block files removed, manifest still says present
        left = list((store.root / "interval_1").glob("*.blk"))
        assert len(left) == 1
    with BlockStore(tmp_path / "s") as store:
        loaded = store.load_chain()
        # the spine's delete evidence lets the half-pruned interval be
        # treated as deleted, and the leftovers are erased
        assert loaded.interval_status(1) is IntervalStatus.DELETED
        assert not (store.root / "interval_1").exists()


def test_missing_body_without_evidence_fails_load(tmp_path):
    ch = fresh_chain(ALICE, BOB, params=FAST)
    extend(ch, [rem(ch, ALICE, b"first"), rem(ch, BOB, b"second")],
           per_block=1)
    extend(ch)
    with BlockStore(tmp_path / "s", create=True) as store:
        fill(store, ch)
        (store.root / "interval_1" / "1.blk").unlink()
        survivor = (store.root / "interval_1" / "2.blk").read_bytes()
        manifest = (store.root / "manifest.json").read_text()
    with BlockStore(tmp_path / "s") as store:
        assert store.segments()[1][0] is None
        with pytest.raises(MissingDeleteEvidence):
            store.load_chain()
    # no delete on the spine, so nothing may be erased or rewritten
    assert (tmp_path / "s" / "interval_1" / "2.blk").read_bytes() == survivor
    assert (tmp_path / "s" / "manifest.json").read_text() == manifest


def test_stray_block_file_is_corruption(tmp_path):
    ch = simple_chain()
    with BlockStore(tmp_path / "s", create=True) as store:
        fill(store, ch)
        (store.root / "interval_1" / "x.blk").write_bytes(b"stray")
    with BlockStore(tmp_path / "s") as store:
        with pytest.raises(CorruptStore):
            store.load_chain()


def test_manifest_missing_a_field_is_corruption(tmp_path):
    with BlockStore(tmp_path / "s", create=True):
        pass
    path = tmp_path / "s" / "manifest.json"
    manifest = json.loads(path.read_text())
    del manifest["log_bytes"]
    path.write_text(json.dumps(manifest))
    with pytest.raises(CorruptStore):
        BlockStore(tmp_path / "s")
    path.write_text("[1, 2]")
    with pytest.raises(CorruptStore):
        BlockStore(tmp_path / "s")
    # a failed open leaves the store unlocked
    path.write_text(json.dumps({**manifest, "log_bytes": 0}))
    with BlockStore(tmp_path / "s") as store:
        assert store.height == -1


def test_tampered_block_file_fails_load(tmp_path):
    ch = simple_chain()
    with BlockStore(tmp_path / "s", create=True) as store:
        fill(store, ch)
        path = store.root / "interval_1" / "1.blk"
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF
        path.write_bytes(bytes(data))
    with BlockStore(tmp_path / "s") as store:
        with pytest.raises(CorruptStore):
            store.load_chain()


def test_rebuild_mirrors_a_chain(tmp_path):
    ch = fresh_chain(ALICE, params=FAST)
    extend(ch, [rem(ch, ALICE, b"x")])
    extend(ch, body_txs=[build_delete(ALICE, 1)])
    extend(ch)
    ch.prune()
    with BlockStore(tmp_path / "a", create=True) as store:
        store.rebuild(ch)
        a = store.digest()
        loaded = store.load_chain()
    assert loaded.tip_hash == ch.tip_hash
    assert loaded.interval_status(1) is IntervalStatus.DELETED
    with BlockStore(tmp_path / "b", create=True) as store:
        store.rebuild(ch)
        b = store.digest()
    assert a == b   # digest is layout-deterministic, not path-dependent


def test_digest_tracks_content(tmp_path):
    ch = simple_chain()
    with BlockStore(tmp_path / "s", create=True) as store:
        fill(store, ch)
        before = store.digest()
        assert before == store.digest()
        store.prune_probe = None
        (store.root / "interval_1" / "1.blk").write_bytes(b"altered")
        assert store.digest() != before


def test_verify_chain_accepts_loaded_segments(tmp_path):
    ch = fresh_chain(ALICE, BOB, params=FAST)
    extend(ch, [rem(ch, ALICE, b"mine")])
    extend(ch, body_txs=[build_delete(ALICE, 1)])
    extend(ch)
    ch.prune()
    with BlockStore(tmp_path / "s", create=True) as store:
        store.rebuild(ch)
    with BlockStore(tmp_path / "s") as store:
        report = verify_chain(store.segments(), store.params)
    assert report.ok and report.deleted == 1

"""Disk layout, crash recovery, physical erasure, and store digests."""

import json
import os
import stat
from dataclasses import replace
from pathlib import Path

import pytest
from click.testing import CliRunner

from mutachain import (
    BlockStore,
    ChainParams,
    IntervalStatus,
    OutPoint,
    build_delete,
    build_prepare,
    verify_chain,
)
from mutachain import tx as txmod
from mutachain.cli import main
from mutachain.errors import (
    CorruptStore,
    MissingDeleteEvidence,
    MissingDuplicates,
    StoreLocked,
)
from support import ALICE, BOB, extend, fresh_chain, make_segment, reg, rem
from test_simnet import away_and_back

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


def two_block_chain():
    """Interval 1 holds two blocks, interval 2 one; no delete anywhere."""
    ch = fresh_chain(ALICE, BOB, params=FAST)
    extend(ch, [rem(ch, ALICE, b"first"), rem(ch, BOB, b"second")],
           per_block=1)
    extend(ch, [rem(ch, ALICE, b"third")])
    extend(ch)
    return ch


def file_bytes(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


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
        assert (store.root / "interval_1.blk").exists()
        manifest = (store.root / "manifest.json").read_bytes()
        assert ch.prune() == [1]
        store.prune(1)
        assert not (store.root / "interval_1.blk").exists()
        # the file's absence is the record: prune commits nothing else
        assert (store.root / "manifest.json").read_bytes() == manifest
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


def test_manifest_behind_the_log_truncates_nothing(tmp_path):
    # a manifest committing fewer log bytes than its height needs is
    # corrupt, not a torn append: the log stays whole
    ch = simple_chain()
    with BlockStore(tmp_path / "s", create=True) as store:
        fill(store, ch)
    path = tmp_path / "s" / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["log_bytes"] -= len(ch.block_at(ch.height).encoded)
    path.write_text(json.dumps(manifest))
    log = (tmp_path / "s" / "permanent.log").read_bytes()
    with BlockStore(tmp_path / "s") as store:
        with pytest.raises(CorruptStore):
            store.load_chain()
    assert (tmp_path / "s" / "permanent.log").read_bytes() == log


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
        assert (store.root / "interval_1.blk").exists()
    with BlockStore(tmp_path / "s") as store:
        loaded = store.load_chain()   # orphan file swept
        assert loaded.height == 0
        assert not (store.root / "interval_1.blk").exists()


def test_crash_mid_prune_completes_on_load(tmp_path):
    ch = fresh_chain(ALICE, params=FAST)
    extend(ch, [rem(ch, ALICE, b"going"), rem(ch, ALICE, b"gone")],
           per_block=1)
    extend(ch, body_txs=[build_delete(ALICE, 1)])
    extend(ch)
    with BlockStore(tmp_path / "s", create=True) as store:
        fill(store, ch)
        assert ch.prune() == [1]

        def bomb(point):
            if point == "prune-file":
                raise Crash(point)

        store.crash_hook = bomb
        with pytest.raises(Crash):
            store.prune(1)
        # a prune is one unlink: the crash came before it, so the
        # interval is whole, never half erased
        assert (store.root / "interval_1.blk").exists()
    with BlockStore(tmp_path / "s") as store:
        loaded = store.load_chain()
        # the spine's matured delete makes the loaded chain prune again
        assert loaded.prune() == [1]
        store.prune(1)
        assert not (store.root / "interval_1.blk").exists()
    with BlockStore(tmp_path / "s") as store:
        assert store.load_chain().interval_status(1) is IntervalStatus.DELETED


def test_missing_body_without_evidence_fails_load(tmp_path):
    with BlockStore(tmp_path / "s", create=True) as store:
        fill(store, two_block_chain())
        (store.root / "interval_1.blk").unlink()
        before = file_bytes(store.root)
    with BlockStore(tmp_path / "s") as store:
        assert store.segments()[1][0] is None
        with pytest.raises(MissingDeleteEvidence):
            store.load_chain()
    # no delete on the spine, so nothing may be erased or rewritten
    assert file_bytes(tmp_path / "s") == before


def test_interval_file_cut_short_is_corruption(tmp_path):
    with BlockStore(tmp_path / "s", create=True) as store:
        fill(store, two_block_chain())
        path = store.root / "interval_1.blk"
        data = path.read_bytes()
        first = 4 + int.from_bytes(data[:4], "little")   # one framed block
        path.write_bytes(data[:first])
    with BlockStore(tmp_path / "s") as store:
        with pytest.raises(CorruptStore):
            store.load_chain()
    assert path.read_bytes() == data[:first]


def test_stray_block_file_is_corruption(tmp_path):
    ch = simple_chain()
    with BlockStore(tmp_path / "s", create=True) as store:
        fill(store, ch)
    root = tmp_path / "s"
    (root / "interval_1.bak").write_bytes(b"stray")
    with BlockStore(root) as store:
        with pytest.raises(CorruptStore):
            store.load_chain()
    (root / "interval_1.bak").unlink()
    # a directory of the old one-file-per-block layout
    (root / "interval_1").mkdir()
    (root / "interval_1" / "1.blk").write_bytes(b"old layout")
    before = file_bytes(root)
    with BlockStore(root) as store:
        with pytest.raises(CorruptStore):
            store.load_chain()
    assert file_bytes(root) == before


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
    manifest["log_bytes"] = 0
    # a store of the old layout names its version
    path.write_text(json.dumps({**manifest, "version": 1}))
    with pytest.raises(CorruptStore, match="version 1"):
        BlockStore(tmp_path / "s")
    for field, value in [("version", True), ("version", "2"), ("version", 2.0),
                         ("height", -2), ("height", "0"), ("height", None),
                         ("height", True), ("log_bytes", -1), ("log_bytes", 0.5),
                         ("params", []), ("params", {"confirm_depth": 1}),
                         ("params", {"confirm_depth": "1", "delete_lock": 0}),
                         ("params", {"confirm_depth": 1, "delete_lock": -1})]:
        path.write_text(json.dumps({**manifest, field: value}))
        with pytest.raises(CorruptStore):
            BlockStore(tmp_path / "s")
    # a failed open leaves the store unlocked
    path.write_text(json.dumps({**manifest, "log_bytes": 0}))
    with BlockStore(tmp_path / "s") as store:
        assert store.height == -1


def test_commit_and_erasure_are_durable(tmp_path, monkeypatch):
    # the manifest rename and a prune's unlink each reach the disk only
    # with an fsync of the directory that holds them
    ch = fresh_chain(ALICE, params=FAST)
    extend(ch, [rem(ch, ALICE, b"purge me")])
    extend(ch, body_txs=[build_delete(ALICE, 1)])
    extend(ch)
    root = tmp_path / "s"
    calls = []
    real_fsync, real_replace, real_unlink = os.fsync, os.replace, Path.unlink

    def fsync(fd):
        st = os.fstat(fd)
        on_root = stat.S_ISDIR(st.st_mode) and os.path.samestat(st, os.stat(root))
        calls.append("fsync root" if on_root else "fsync")
        real_fsync(fd)

    def replace(src, dst):
        calls.append("replace")
        real_replace(src, dst)

    def unlink(path, missing_ok=False):
        calls.append("unlink")
        real_unlink(path, missing_ok=missing_ok)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    monkeypatch.setattr(Path, "unlink", unlink)
    with BlockStore(root, create=True) as store:
        fill(store, ch)
        assert ch.prune() == [1]
        store.prune(1)
    assert calls.count("replace") == ch.height + 3   # create, params, appends
    assert calls.count("unlink") == 1
    for k, call in enumerate(calls):
        if call in ("replace", "unlink"):
            assert calls[k + 1:k + 2] == ["fsync root"], (k, calls)


def test_tampered_block_file_fails_load(tmp_path):
    ch = simple_chain()
    with BlockStore(tmp_path / "s", create=True) as store:
        fill(store, ch)
        path = store.root / "interval_1.blk"
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
        (store.root / "interval_1.blk").write_bytes(b"altered")
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


# ----------------------------------------------------------------------
# the tip mark: signatures this store's chain accepted are not re-checked


def erased_chain():
    """Interval 1 erased after its delete, interval 3 live."""
    ch = fresh_chain(ALICE, BOB, params=FAST)
    extend(ch, [rem(ch, ALICE, b"gone")])
    extend(ch, body_txs=[build_delete(ALICE, 1)])
    extend(ch, [rem(ch, ALICE, b"kept"), rem(ch, BOB, b"kept too")])
    extend(ch)
    assert ch.prune() == [1]
    return ch


def count_signature_checks(monkeypatch):
    calls = []
    real = txmod.verify_signature

    def counted(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(txmod, "verify_signature", counted)
    return calls


def tip_mark(root):
    return json.loads((root / "manifest.json").read_text()).get("tip")


def set_tip(root, tip):
    manifest = json.loads((root / "manifest.json").read_text())
    if tip is None:
        del manifest["tip"]
    else:
        manifest["tip"] = tip
    (root / "manifest.json").write_text(json.dumps(manifest))


def test_load_of_a_marked_store_checks_no_signature(tmp_path, monkeypatch):
    ch = erased_chain()
    with BlockStore(tmp_path / "s", create=True) as store:
        fill(store, ch)
    assert tip_mark(tmp_path / "s") == ch.tip_hash.hex()
    calls = count_signature_checks(monkeypatch)
    with BlockStore(tmp_path / "s") as store:
        loaded = store.load_chain()
    assert calls == []
    assert loaded.tip_hash == ch.tip_hash and loaded.interval_blocks(1) is None


@pytest.mark.parametrize("tip", ["other block", None])
def test_load_without_a_matching_mark_checks_every_signature(tmp_path, monkeypatch, tip):
    ch = erased_chain()
    with BlockStore(tmp_path / "s", create=True) as store:
        fill(store, ch)
        segments = store.segments()
    set_tip(tmp_path / "s", ch.block_at(1).block_hash.hex() if tip else None)
    calls = count_signature_checks(monkeypatch)
    with BlockStore(tmp_path / "s") as store:
        assert store.load_chain().tip_hash == ch.tip_hash
    txs = sum(len(block.txs) + sum(len(rb.txs) for rb in blocks or ())
              for blocks, block in segments)
    assert len(calls) == txs > 0


def test_forged_signature_appended_past_a_chain(tmp_path):
    ch = fresh_chain(ALICE, BOB, params=FAST)
    forged = replace(rem(ch, ALICE, b"never signed"), signature=bytes(64))
    root = tmp_path / "s"
    with BlockStore(root, create=True) as store:
        fill(store, ch)
        # a breach of the append contract: no Chain saw this segment
        store.append_segment(*make_segment(ch, [forged]))
        report = verify_chain(store.segments(), store.params)
        assert not report.ok and "BadSignature" in report.problem
        # the node's own load trusts its mark: that is the boundary
        assert store.load_chain().height == 1
    out = CliRunner().invoke(main, ["verify", "--store", str(root)])
    assert out.exit_code == 1 and "BadSignature" in out.output
    set_tip(root, None)
    with BlockStore(root) as store:
        with pytest.raises(CorruptStore, match="BadSignature"):
            store.load_chain()


def test_rebuilt_store_carries_a_matching_mark(tmp_path, monkeypatch):
    ch = erased_chain()
    with BlockStore(tmp_path / "s", create=True) as store:
        fill(store, simple_chain())

        def crash(point):
            if point == "log-append":
                raise Crash(point)
        store.crash_hook = crash
        with pytest.raises(Crash):
            store.rebuild(ch)
        # the empty store committed first carries no mark
        assert tip_mark(store.root) is None
        store.crash_hook = None
        store.rebuild(ch)
    assert tip_mark(tmp_path / "s") == ch.tip_hash.hex()
    calls = count_signature_checks(monkeypatch)
    with BlockStore(tmp_path / "s") as store:
        assert store.load_chain().tip_hash == ch.tip_hash
    assert calls == []


def test_fork_rebuild_leaves_a_matching_mark(tmp_path):
    stores = {i: BlockStore(tmp_path / f"node{i}", create=True) for i in range(3)}
    try:
        net, _, _ = away_and_back(stores, fork=True)
        net.step(10)
        assert any(e["ev"] == "sync" and e["node"] == 2 for e in net.events)
        late = net.nodes[2]
        assert tip_mark(late.store.root) == late.chain.tip_hash.hex()
        assert late.store.load_chain().tip_hash == late.chain.tip_hash
    finally:
        for st in stores.values():
            st.close()

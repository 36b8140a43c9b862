"""Disk layout, crash recovery, physical erasure, and store digests."""

import json
import os
import struct
import zlib
from dataclasses import replace
from pathlib import Path

import pytest
from click.testing import CliRunner

from mutachain import (
    BlockStore,
    ChainParams,
    IntervalStatus,
    Node,
    OutPoint,
    build_delete,
    build_prepare,
    digest,
    verify_chain,
)
from mutachain.cli import main
from mutachain.errors import (
    CorruptStore,
    MissingDeleteEvidence,
    MissingDuplicates,
    StoreLocked,
)
from mutachain.store import FRAME_HEAD, log_frame
from support import (
    ALICE, BOB, body_frames, cold_cache, count_signature_checks, erase_body, erased_frame,
    extend, fresh_chain, make_segment, reg, rem, segment_spans, store_holds,
)
from test_simnet import away_and_back
from test_store_crash import ROOT, Recorder, crash_states, materialize

FAST = ChainParams(confirm_depth=1, delete_lock=0)


class Crash(RuntimeError):
    pass


def crash_call(*args):
    """Stands for an ``os`` call the process died in."""
    raise Crash()


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


def test_prune_zeroes_the_body_frame_in_place(tmp_path):
    ch = fresh_chain(ALICE, params=FAST)
    extend(ch, [rem(ch, ALICE, b"purge me")])
    extend(ch, body_txs=[build_delete(ALICE, 1)])
    extend(ch)
    with BlockStore(tmp_path / "s", create=True) as store:
        fill(store, ch)
        log = (store.root / "permanent.log").read_bytes()
        assert b"purge me" in log
        start, end = body_frames(log)[1]
        manifest = (store.root / "manifest.json").read_bytes()
        assert ch.prune() == [1]
        store.prune(1)
        # the frame is rewritten in place at its length, and nothing else
        assert (store.root / "permanent.log").read_bytes() \
            == log[:start] + erased_frame(start, end) + log[end:]
        assert not store_holds(store.root, b"purge me")
        # the erased frame is the record: prune commits nothing else
        assert (store.root / "manifest.json").read_bytes() == manifest
        assert sorted(os.listdir(store.root)) == [".lock", "manifest.json", "permanent.log"]
    with BlockStore(tmp_path / "s") as store:
        loaded = store.load_chain()
    assert loaded.interval_status(1) is IntervalStatus.DELETED
    assert loaded.interval_blocks(1) is None


def test_prune_before_any_read_locates_the_body_frame(tmp_path):
    ch = fresh_chain(ALICE, params=FAST)
    extend(ch, [rem(ch, ALICE, b"purge me")])
    extend(ch, body_txs=[build_delete(ALICE, 1)])
    extend(ch)
    root = tmp_path / "s"
    with BlockStore(root, create=True) as store:
        fill(store, ch)
    log = (root / "permanent.log").read_bytes()
    start, end = body_frames(log)[1]
    # neither load_chain nor segments() ran in this session: the prune
    # reads the log itself to find the frame
    with BlockStore(root) as store:
        store.prune(1)
    assert (root / "permanent.log").read_bytes() \
        == log[:start] + erased_frame(start, end) + log[end:]
    assert not store_holds(root, b"purge me")


@pytest.mark.parametrize("x", [-1, 4])
def test_prune_outside_the_stored_heights_is_corruption(tmp_path, x):
    root = tmp_path / "s"
    with BlockStore(root, create=True) as store:
        fill(store, two_block_chain())      # heights 0 to 3
    before = file_bytes(root)
    with BlockStore(root) as store:
        with pytest.raises(CorruptStore, match=f"interval {x} is not in this store"):
            store.prune(x)
    assert file_bytes(root) == before


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


def test_crash_mid_segment_append_is_truncated(tmp_path, monkeypatch):
    ch = simple_chain()
    root = tmp_path / "s"
    with BlockStore(root, create=True) as store:
        store.set_params(ch.params)
        store.append_segment((), ch.block_at(0))
        log = (root / "permanent.log").read_bytes()
        monkeypatch.setattr(os, "fsync", crash_call)
        with Recorder(root) as rec, pytest.raises(Crash):
            store.append_segment(ch.interval_record(1).blocks, ch.block_at(1))
        monkeypatch.undo()
        # the segment goes out in one write, committed by one fsync: the
        # crash in it committed nothing
        fid, segment = rec.fid("permanent.log"), rec.ops[0][3]
        assert rec.ops == [("write", fid, len(log), segment), ("fsync", fid)]
        assert segment.startswith(log_frame(ch.block_at(1).encoded))
        assert store.height == 0
    # the write lost, whole, or torn at any sector: only the whole
    # segment loads, and a torn one is truncated
    for state in crash_states(rec.base, rec.ops[:1]):
        materialize(state, tmp_path / "crash")
        with BlockStore(tmp_path / "crash") as store:
            height = store.load_chain().height
        after = (tmp_path / "crash" / "permanent.log").read_bytes()
        assert (height, after) == ((1, log + segment) if after == log + segment else (0, log))
    # a write cut after the permanent frame, its body frame never written
    (root / "permanent.log").write_bytes(log + log_frame(ch.block_at(1).encoded))
    with BlockStore(root) as store:
        loaded = store.load_chain()   # the torn segment is truncated
        assert loaded.height == 0
    assert (root / "permanent.log").read_bytes() == log


def test_crash_mid_prune_completes_on_load(tmp_path, monkeypatch):
    ch = fresh_chain(ALICE, params=FAST)
    extend(ch, [rem(ch, ALICE, b"going"), rem(ch, ALICE, b"gone")],
           per_block=1)
    extend(ch, body_txs=[build_delete(ALICE, 1)])
    extend(ch)
    with BlockStore(tmp_path / "s", create=True) as store:
        fill(store, ch)
        assert ch.prune() == [1]
        monkeypatch.setattr(os, "pwrite", crash_call)
        with pytest.raises(Crash):
            store.prune(1)
        monkeypatch.undo()
        # the crash came before the overwrite, so the interval is whole
        assert store_holds(store.root, b"going") and store_holds(store.root, b"gone")
    with BlockStore(tmp_path / "s") as store:
        loaded = store.load_chain()
        # the spine's matured delete makes the loaded chain prune again
        assert loaded.prune() == [1]
        store.prune(1)
        assert not store_holds(store.root, b"going")
        assert not store_holds(store.root, b"gone")
    with BlockStore(tmp_path / "s") as store:
        assert store.load_chain().interval_status(1) is IntervalStatus.DELETED


def prune_cut_short(root, x, cut):
    """Interval ``x``'s body frame with the first ``cut`` bytes of its
    erased frame written over it, as a crash inside a prune's overwrite
    leaves it; returns the log before and after."""
    path = root / "permanent.log"
    log = path.read_bytes()
    start, end = body_frames(log)[x]
    cut = (end - start) // 2 if cut == "half" else cut
    torn = log[:start] + erased_frame(start, end)[:cut] + log[start + cut:]
    path.write_bytes(torn)
    return log, torn


@pytest.mark.parametrize("cut", [6, FRAME_HEAD.size + 3, "half"])
def test_prune_cut_short_is_erased_by_the_load_that_proves_its_delete(tmp_path, monkeypatch, cut):
    # 6 bytes leave a head that fails its check, whose length a prune
    # never changes; more leave a whole head over a body half zeroed
    ch = fresh_chain(ALICE, BOB, params=FAST)
    extend(ch, [rem(ch, ALICE, b"going"), rem(ch, ALICE, b"gone")], per_block=1)
    extend(ch, [rem(ch, BOB, b"staying")], [build_delete(ALICE, 1)])
    extend(ch)
    root = tmp_path / "s"
    with BlockStore(root, create=True) as store:
        fill(store, ch)
        assert ch.prune() == [1]
        monkeypatch.setattr(os, "pwrite", crash_call)
        with pytest.raises(Crash):
            store.prune(1)
        monkeypatch.undo()
    log, torn = prune_cut_short(root, 1, cut)
    # the audit path serves the frame as a gap and leaves it as it was
    with BlockStore(root) as store:
        assert store.segments()[1][0] is None
        assert verify_chain(store.segments(), store.params).ok
    assert (root / "permanent.log").read_bytes() == torn
    # the load proves interval 1's delete, then finishes the prune
    with BlockStore(root) as store:
        loaded = store.load_chain()
    assert loaded.interval_status(1) is IntervalStatus.DELETED
    assert loaded.interval_blocks(1) is None and loaded.height == ch.height
    start, end = body_frames(log)[1]
    assert (root / "permanent.log").read_bytes() \
        == log[:start] + erased_frame(start, end) + log[end:]
    assert not store_holds(root, b"going") and store_holds(root, b"staying")
    # the same damage where no delete backs it fails, and changes nothing
    prune_cut_short(root, 2, cut)
    before = file_bytes(root)
    with BlockStore(root) as store:
        with pytest.raises(MissingDeleteEvidence):
            store.load_chain()
    assert file_bytes(root) == before


@pytest.mark.parametrize("marked", [True, False], ids=["marked", "same-session"])
def test_prune_of_the_tip_cut_short_is_erased_by_the_load_that_proves_its_delete(
        tmp_path, monkeypatch, marked):
    # interval 1's body is deleted in its own block, so the prune that
    # follows its append overwrites the log's last frame; the overwrite
    # is cut after its first sector, leaving a damaged frame that runs
    # to the end of the log, as a torn append would
    ch = fresh_chain(ALICE, params=ChainParams(confirm_depth=0, delete_lock=0))
    root = tmp_path / "s"
    with BlockStore(root, create=True) as store:
        store.rebuild(ch)
        segment = make_segment(ch, [rem(ch, ALICE, b"going" * 400)], [build_delete(ALICE, 1)])
        if marked:
            store.append_segment(*segment)     # closed with the body whole
    store = BlockStore(root)
    node = Node(store.load_chain(), store=store)
    real_pwrite = os.pwrite

    def torn(fd, data, offset):
        real_pwrite(fd, data[:512], offset)
        raise Crash("pwrite")
    monkeypatch.setattr(os, "pwrite", torn)
    with pytest.raises(Crash):
        if marked:
            node.prune()
        else:
            node.extend([segment])
    monkeypatch.undo()
    crash(store)
    torn_log = (root / "permanent.log").read_bytes()
    start, end = body_frames(torn_log)[1]
    assert end == len(torn_log) and torn_log[start:end] != erased_frame(start, end)
    # the load serves the frame as a gap, proves its delete, and erases it
    with BlockStore(root) as store:
        loaded = store.load_chain()
    assert loaded.height == 1 and loaded.interval_blocks(1) is None
    assert (root / "permanent.log").read_bytes() == torn_log[:start] + erased_frame(start, end)
    assert not store_holds(root, b"going")


def test_erasure_reaches_every_link_and_open_descriptor(tmp_path):
    ch = fresh_chain(ALICE, params=FAST)
    extend(ch, [rem(ch, ALICE, b"VERY-PRIVATE-NOTE")])
    extend(ch, body_txs=[build_delete(ALICE, 1)])
    extend(ch)
    root = tmp_path / "s"
    link = tmp_path / "link.log"
    with BlockStore(root, create=True) as store:
        fill(store, ch)
        log = (root / "permanent.log").read_bytes()
        start, end = body_frames(log)[1]
        check = struct.pack("<I", zlib.crc32(log[start + FRAME_HEAD.size:end]))
        assert log.count(b"VERY-PRIVATE-NOTE") == 1 and log.count(check) == 1
        os.link(root / "permanent.log", link)
        with open(link, "rb") as held:
            assert ch.prune() == [1]
            store.prune(1)
            seen = [held.read(), link.read_bytes(), (root / "permanent.log").read_bytes()]
    for data in seen:
        # neither the body nor its old crc32 is left for any reader
        assert b"VERY-PRIVATE-NOTE" not in data and check not in data


def test_damaged_body_length_with_a_segment_after_it_is_corruption(tmp_path):
    # a body frame's head fails its check, and the length it states
    # lands on no segment: nothing tells where the next one starts
    root = tmp_path / "s"
    with BlockStore(root, create=True) as store:
        fill(store, two_block_chain())
    log = bytearray((root / "permanent.log").read_bytes())
    log[body_frames(log)[1][0] + 3] ^= 0x80
    (root / "permanent.log").write_bytes(log)
    before = file_bytes(root)
    with BlockStore(root) as store:
        with pytest.raises(CorruptStore, match="damaged body frame 1"):
            store.load_chain()
    assert file_bytes(root) == before


@pytest.mark.parametrize("last, named", [
    (b"last", "damaged body frame 2 in the committed log"),
    (None, "damaged log frame 2 in the committed log"),
])
def test_damaged_last_frame_below_the_mark_is_named(tmp_path, last, named):
    # the log's last byte flipped after a clean close: the mark committed
    # that frame, so it is no torn append, and the error names the frame
    # (a body frame, or a permanent one when the tip's interval is empty)
    ch = fresh_chain(ALICE, BOB, params=FAST)
    extend(ch, [rem(ch, ALICE, b"first")])
    extend(ch, [rem(ch, BOB, last)] if last else [])
    root = tmp_path / "s"
    with BlockStore(root, create=True) as store:
        fill(store, ch)
    log = bytearray((root / "permanent.log").read_bytes())
    log[-1] ^= 0xFF
    (root / "permanent.log").write_bytes(log)
    before = file_bytes(root)
    with BlockStore(root) as store:
        for read in (store.load_chain, store.segments):
            with pytest.raises(CorruptStore, match=named):
                read()
    assert file_bytes(root) == before


def test_missing_body_without_evidence_fails_load(tmp_path):
    with BlockStore(tmp_path / "s", create=True) as store:
        fill(store, two_block_chain())
    assert erase_body(tmp_path / "s", b"first") == 1
    # taken once the filling session has closed and written its mark
    before = file_bytes(tmp_path / "s")
    with BlockStore(tmp_path / "s") as store:
        assert store.segments()[1][0] is None
        with pytest.raises(MissingDeleteEvidence):
            store.load_chain()
    # no delete on the spine, so nothing may be erased or rewritten
    assert file_bytes(tmp_path / "s") == before


def test_load_that_fails_repairs_nothing(tmp_path):
    # a torn append (half its permanent frame) over a chain that fails
    # to load: the tear is left for a load that succeeds
    root = tmp_path / "s"
    ch = two_block_chain()
    with BlockStore(root, create=True) as store:
        fill(store, ch)
    erase_body(root, b"first")
    with open(root / "permanent.log", "ab") as fh:
        fh.write(log_frame(ch.block_at(1).encoded)[:FRAME_HEAD.size + 8])
    before = file_bytes(root)
    with BlockStore(root) as store:
        with pytest.raises(MissingDeleteEvidence):
            store.load_chain()
    assert file_bytes(root) == before


def test_interval_file_cut_short_is_corruption(tmp_path):
    # interval 1's body frame holds its first block of two, under a head
    # that checks, and the manifest counts the shorter log
    root = tmp_path / "s"
    with BlockStore(root, create=True) as store:
        fill(store, two_block_chain())
    path = root / "permanent.log"
    log = path.read_bytes()
    start, end = body_frames(log)[1]
    body = log[start + FRAME_HEAD.size:end]
    first = 4 + int.from_bytes(body[:4], "little")   # one block's byte string
    path.write_bytes(log[:start] + log_frame(body[:first]) + log[end:])
    manifest = json.loads((root / "manifest.json").read_text())
    manifest["log_bytes"] -= len(body) - first
    (root / "manifest.json").write_text(json.dumps(manifest))
    before = file_bytes(root)
    with BlockStore(root) as store:
        with pytest.raises(CorruptStore):
            store.load_chain()
    assert file_bytes(root) == before


def test_directory_in_place_of_the_log_is_corruption(tmp_path):
    ch = simple_chain()
    with BlockStore(tmp_path / "s", create=True) as store:
        fill(store, ch)
    root = tmp_path / "s"
    # the store reads only its own files: those of an older layout are
    # neither read nor removed
    (root / "interval_1.blk").write_bytes(b"old layout")
    (root / "interval_2").mkdir()
    (root / "interval_2" / "1.blk").write_bytes(b"older layout")
    with BlockStore(root) as store:
        assert store.load_chain().tip_hash == ch.tip_hash
    assert (root / "interval_1.blk").read_bytes() == b"old layout"
    assert (root / "interval_2" / "1.blk").read_bytes() == b"older layout"
    (root / "permanent.log").unlink()
    (root / "permanent.log").mkdir()
    before = file_bytes(root)
    with BlockStore(root) as store:
        with pytest.raises(CorruptStore, match="permanent.log"):
            store.load_chain()
    assert file_bytes(root) == before


def test_unreadable_log_is_corruption(tmp_path, monkeypatch):
    with BlockStore(tmp_path / "s", create=True) as store:
        fill(store, simple_chain())
    real = Path.read_bytes

    def refused(path):
        if path.name == "permanent.log":
            raise PermissionError(13, "Permission denied", str(path))
        return real(path)
    with BlockStore(tmp_path / "s") as store:
        monkeypatch.setattr(Path, "read_bytes", refused)
        with pytest.raises(CorruptStore, match="unreadable permanent.log"):
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
    manifest["log_bytes"] = 0
    # a store of an old layout names its version: 3 kept a file per interval
    for old in (1, 3):
        path.write_text(json.dumps({**manifest, "version": old}))
        with pytest.raises(CorruptStore, match=f"version {old}, expected 4"):
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


def test_commit_and_erasure_are_durable(tmp_path):
    # a new name (the log, the renamed manifest) reaches the disk only
    # with an fsync of the directory that holds it; an append and a
    # prune each change the log alone and end with one fsync of it
    ch = fresh_chain(ALICE, params=FAST)
    extend(ch, [rem(ch, ALICE, b"purge me")])
    extend(ch, body_txs=[build_delete(ALICE, 1)])
    extend(ch)
    root = tmp_path / "s"
    with Recorder(root) as rec:
        with BlockStore(root, create=True) as store:
            fill(store, ch)
            appended = len(rec.ops)
            assert ch.prune() == [1]
            store.prune(1)
            log = rec.fid("permanent.log")
            start, end = body_frames((root / "permanent.log").read_bytes())[1]
            assert rec.ops[appended:] == [("write", log, start, erased_frame(start, end)),
                                          ("fsync", log)]
    kinds = [op[0] for op in rec.ops]
    assert kinds.count("rename") == 3       # create, params, close
    assert rec.ops.count(("fsync", ROOT)) == 3
    assert kinds.count("unlink") == 0
    # one fsync per append, whatever its interval holds, and one per prune
    assert rec.ops.count(("fsync", log)) == ch.height + 2
    for k, op in enumerate(rec.ops):
        if op[0] == "rename":
            assert rec.ops[k + 1:k + 2] == [("fsync", ROOT)], (k, rec.ops)
    # every name a log frame commits was made durable before it, and no
    # name is left unsynced at the end
    names, synced = set(), frozenset()
    for op in rec.ops:
        if op[0] == "create":
            names.add(op[1])
        elif op[0] == "rename":
            names.discard(op[1])
            names.add(op[2])
        elif op == ("fsync", ROOT):
            synced = frozenset(names)
        elif op == ("fsync", log):
            assert names <= synced, (names, synced)
    assert names == synced == {"manifest.json", "permanent.log"}


def test_tampered_block_file_fails_load(tmp_path):
    ch = simple_chain()
    root = tmp_path / "s"
    with BlockStore(root, create=True) as store:
        fill(store, ch)
    path = root / "permanent.log"
    log = path.read_bytes()
    start, end = body_frames(log)[1]
    # a flipped byte fails the body frame's check: the frame is served
    # as a gap, and no delete backs it
    data = bytearray(log)
    data[end - 1] ^= 0xFF
    path.write_bytes(bytes(data))
    before = file_bytes(root)
    with BlockStore(root) as store:
        with pytest.raises(MissingDeleteEvidence):
            store.load_chain()
    assert file_bytes(root) == before
    # under a head recomputed to match, it fails the replay
    path.write_bytes(log[:start] + log_frame(bytes(data[start + FRAME_HEAD.size:end]))
                     + log[end:])
    before = file_bytes(root)
    with BlockStore(root) as store:
        with pytest.raises(CorruptStore):
            store.load_chain()
    assert file_bytes(root) == before


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
        path = store.root / "permanent.log"
        data = bytearray(path.read_bytes())
        data[body_frames(data)[1][1] - 1] ^= 0xFF     # a byte of interval 1
        path.write_bytes(bytes(data))
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


def test_tx_confirmed_answers_alike_on_the_live_and_the_loaded_chain(tmp_path):
    # interval 1 erased; interval 2 deleted but not yet pruned, its bob
    # transaction copied into interval 3; interval 4 live
    ch = fresh_chain(ALICE, BOB, params=ChainParams(confirm_depth=2, delete_lock=0))
    gone = rem(ch, ALICE, b"gone")
    extend(ch, [gone])                                                 # 1
    doomed, bobs = rem(ch, ALICE, b"doomed"), rem(ch, BOB, b"bobs")
    extend(ch, [doomed, bobs])                                         # 2
    prep = build_prepare(ALICE, reg(ch, ALICE), 2)
    extend(ch, [bobs], [prep, build_delete(ALICE, 1)])                 # 3
    live = rem(ch, ALICE, b"live")
    extend(ch, [live], [build_delete(ALICE, 2, OutPoint(prep.txid, 0))])  # 4
    extend(ch)                                                         # 5
    assert ch.prune() == [1]
    assert ch.interval_status(2) is IntervalStatus.PRESENT and ch.delete_record(2)
    with BlockStore(tmp_path / "s", create=True) as store:
        store.rebuild(ch)
    with BlockStore(tmp_path / "s") as store:
        loaded = store.load_chain()
    expected = {
        prep.txid: True,             # a body transaction
        live.txid: True,             # a live interval transaction
        bobs.txid: True,             # a copy whose first interval is deleted, not pruned
        doomed.txid: False,          # held only by that deleted interval
        gone.txid: False,            # erased with its interval
        digest(b"unknown"): False,   # never seen
    }
    for chain in (ch, loaded):
        assert {txid: chain.tx_confirmed(txid) for txid in expected} == expected


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
def test_load_without_a_matching_mark_checks_every_signature(tmp_path, monkeypatch, tip, cold_cache):
    ch = erased_chain()
    with BlockStore(tmp_path / "s", create=True) as store:
        fill(store, ch)
        segments = store.segments()
    set_tip(tmp_path / "s", ch.block_at(1).block_hash.hex() if tip else None)
    cold_cache()
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
        log = store.root / "permanent.log"
        real_fsync = os.fsync

        def fsync(fd):
            # the rebuild's first append: it emptied and synced the log first
            if os.path.samestat(os.fstat(fd), os.stat(log)) and log.stat().st_size:
                raise Crash("log-append")
            real_fsync(fd)
        monkeypatch.setattr(os, "fsync", fsync)
        with pytest.raises(Crash):
            store.rebuild(ch)
        monkeypatch.undo()
        # the empty store committed first carries no mark
        assert tip_mark(store.root) is None
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
    finally:
        for st in stores.values():
            st.close()
    # closing writes the mark
    assert tip_mark(late.store.root) == late.chain.tip_hash.hex()
    with BlockStore(late.store.root) as store:
        assert store.load_chain().tip_hash == late.chain.tip_hash


# ----------------------------------------------------------------------
# a session that never closed: its log frames are its commits


def crash(store):
    """What a killed process leaves: its lock dies with it, and the
    manifest keeps the mark of the last clean write."""
    store._release_lock()


def tx_count(segments):
    return sum(len(block.txs) + sum(len(rb.txs) for rb in blocks or ())
               for blocks, block in segments)


def crashed_store(root, ch, k):
    """``ch`` stored up to ``k`` segments below its tip and closed, then
    its last ``k`` appended by a session that never closed."""
    with BlockStore(root, create=True) as store:
        store.set_params(ch.params)
        for x in range(ch.height + 1 - k):
            store.append_segment(ch.interval_blocks(x) or (), ch.block_at(x))
    store = BlockStore(root)
    store.load_chain()
    for x in range(ch.height + 1 - k, ch.height + 1):
        store.append_segment(ch.interval_blocks(x) or (), ch.block_at(x))
    crash(store)
    assert tip_mark(root) == ch.block_at(ch.height - k).block_hash.hex()


@pytest.mark.parametrize("k", [1, 2])
def test_appends_past_the_mark_load_with_every_signature(tmp_path, monkeypatch, k, cold_cache):
    ch = erased_chain()
    root = tmp_path / "s"
    crashed_store(root, ch, k)
    cold_cache()
    calls = count_signature_checks(monkeypatch)
    with BlockStore(root) as store:
        segments = store.segments()
        calls.clear()
        loaded = store.load_chain()
    assert loaded.tip_hash == ch.tip_hash and loaded.interval_blocks(1) is None
    assert len(calls) == tx_count(segments) > 0
    # that load checked the tip, and its close marked it
    assert tip_mark(root) == ch.tip_hash.hex()
    calls.clear()
    with BlockStore(root) as store:
        assert store.load_chain().tip_hash == ch.tip_hash
    assert calls == []


def test_last_frame_cut_at_any_byte_loads_the_height_below(tmp_path):
    ch = fresh_chain(ALICE, BOB, params=FAST)
    extend(ch, [rem(ch, ALICE, b"kept")])
    extend(ch, [rem(ch, BOB, b"torn away")])
    root = tmp_path / "s"
    crashed_store(root, ch, 1)
    log = (root / "permanent.log").read_bytes()
    whole, body, _ = segment_spans(log)[2]
    assert body is not None      # the last segment is a permanent frame and a body frame
    for cut in range(whole, len(log)):
        # cut short by EOF, or its bytes from the cut on lost while the
        # log kept its size: read back as zeros or as junk
        for tail in (b"", bytes(len(log) - cut), b"\xa5" * (len(log) - cut)):
            if tail == log[cut:]:
                continue    # the bytes lost were those already there
            (root / "permanent.log").write_bytes(log[:cut] + tail)
            with BlockStore(root) as store:
                assert store.load_chain().height == 1, (cut, tail[:1])
            # the torn segment is truncated; interval 1's body is kept
            assert (root / "permanent.log").read_bytes() == log[:whole]


def test_lost_append_after_the_last_frame_is_dropped(tmp_path):
    # the log grew by a frame whose bytes never reached the disk
    root = tmp_path / "s"
    ch = simple_chain()
    crashed_store(root, ch, 1)
    log = (root / "permanent.log").read_bytes()
    (root / "permanent.log").write_bytes(log + bytes(len(log_frame(ch.block_at(2).encoded))))
    with BlockStore(root) as store:
        assert store.load_chain().height == ch.height
    assert (root / "permanent.log").read_bytes() == log


def test_undecodable_frame_past_the_mark_is_corruption(tmp_path):
    root = tmp_path / "s"
    with BlockStore(root, create=True) as store:
        fill(store, simple_chain())
    # a whole frame that is no block, then a torn one
    with open(root / "permanent.log", "ab") as fh:
        fh.write(log_frame(b"not a block") + b"\x40\x00")
    before = file_bytes(root)
    with BlockStore(root) as store:
        with pytest.raises(CorruptStore, match="undecodable log frame 3"):
            store.load_chain()
    assert file_bytes(root) == before


def test_body_frame_that_checks_but_does_not_decode_is_corruption(tmp_path):
    ch = two_block_chain()
    root = tmp_path / "s"
    with BlockStore(root, create=True) as store:
        fill(store, ch)
    path = root / "permanent.log"
    log = path.read_bytes()
    start, end = body_frames(log)[2]
    # interval 2's transaction gets an unknown kind tag, its first byte,
    # under a frame head recomputed to match
    body = bytearray(log[start + FRAME_HEAD.size:end])
    body[body.index(ch.interval_txs(2)[0].encoded)] ^= 0xFF
    path.write_bytes(log[:start] + log_frame(bytes(body)) + log[end:])
    before = file_bytes(root)
    for read in (BlockStore.load_chain, BlockStore.segments):
        with BlockStore(root) as store:
            with pytest.raises(CorruptStore, match="undecodable interval 2"):
                read(store)
        assert file_bytes(root) == before


@pytest.mark.parametrize("at", [0, 3, 4, 8, 11, FRAME_HEAD.size])
def test_damaged_frame_with_more_of_the_log_after_it_is_corruption(tmp_path, at):
    # one flipped bit in a frame past the mark, in its length (the high
    # byte makes the frame run past EOF), its block's check, its head's
    # check or its block: the frame after it is a commit, so this is no
    # torn append, and nothing may be cut away
    ch = erased_chain()
    root = tmp_path / "s"
    crashed_store(root, ch, 2)
    log = bytearray((root / "permanent.log").read_bytes())
    start = segment_spans(log)[ch.height - 1][0]
    log[start + at] ^= 0x80
    (root / "permanent.log").write_bytes(log)
    before = file_bytes(root)
    with BlockStore(root) as store:
        with pytest.raises(CorruptStore, match=f"damaged log frame {ch.height - 1}"):
            store.load_chain()
    assert file_bytes(root) == before

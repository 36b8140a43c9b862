"""Disk layout, crash recovery, physical erasure, and store digests."""

import json
import os
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
from mutachain.store import FRAME_HEAD, log_frame
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
    # taken once the filling session has closed and written its mark
    before = file_bytes(tmp_path / "s")
    with BlockStore(tmp_path / "s") as store:
        assert store.segments()[1][0] is None
        with pytest.raises(MissingDeleteEvidence):
            store.load_chain()
    # no delete on the spine, so nothing may be erased or rewritten
    assert file_bytes(tmp_path / "s") == before


def test_load_that_fails_repairs_nothing(tmp_path):
    # a torn append (half its frame, its whole interval file) over a
    # chain that fails to load: the tear is left for a load that succeeds
    root = tmp_path / "s"
    ch = two_block_chain()
    with BlockStore(root, create=True) as store:
        fill(store, ch)
        (store.root / "interval_1.blk").unlink()
    (root / f"interval_{ch.height + 1}.blk").write_bytes(b"orphan")
    with open(root / "permanent.log", "ab") as fh:
        fh.write(log_frame(ch.block_at(1).encoded)[:FRAME_HEAD.size + 8])
    before = file_bytes(root)
    with BlockStore(root) as store:
        with pytest.raises(MissingDeleteEvidence):
            store.load_chain()
    assert file_bytes(root) == before


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
    (root / "interval_1" / "1.blk").unlink()
    (root / "interval_1").rmdir()
    # a directory in place of the log
    (root / "permanent.log").unlink()
    (root / "permanent.log").mkdir()
    before = file_bytes(root)
    with BlockStore(root) as store:
        with pytest.raises(CorruptStore, match="permanent.log"):
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
    # a new name (an interval file, the log, the renamed manifest) and a
    # prune's unlink each reach the disk only with an fsync of the
    # directory that holds them; the log frame that commits an append
    # is fsynced only after its interval file's name is durable
    ch = fresh_chain(ALICE, params=FAST)
    extend(ch, [rem(ch, ALICE, b"purge me")])
    extend(ch, body_txs=[build_delete(ALICE, 1)])
    extend(ch)
    root = tmp_path / "s"
    calls = []      # (event, the root's names when it happened)
    real_fsync, real_replace, real_unlink = os.fsync, os.replace, Path.unlink

    def names():
        return frozenset(os.listdir(root)) - {".lock"}

    def fsync(fd):
        st = os.fstat(fd)
        name = "root" if os.path.samestat(st, os.stat(root)) else next(
            n for n in os.listdir(root) if os.path.samestat(st, os.stat(root / n)))
        calls.append((f"fsync {name}", names()))
        real_fsync(fd)

    def replace(src, dst):
        real_replace(src, dst)
        calls.append(("replace", names()))

    def unlink(path, missing_ok=False):
        real_unlink(path, missing_ok=missing_ok)
        calls.append(("unlink", names()))

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    monkeypatch.setattr(Path, "unlink", unlink)
    with BlockStore(root, create=True) as store:
        fill(store, ch)
        assert ch.prune() == [1]
        store.prune(1)
    events = [event for event, _ in calls]
    assert events.count("replace") == 3     # create, params, close
    assert events.count("unlink") == 1
    assert events.count("fsync permanent.log") == ch.height + 1
    for k, event in enumerate(events):
        if event in ("replace", "unlink"):
            assert events[k + 1:k + 2] == ["fsync root"], (k, events)
        if event.startswith("fsync interval_"):
            later = events[k + 1:]
            assert "fsync root" in later, (k, events)
            assert later.index("fsync root") < later.index("fsync permanent.log")
    # every name a log frame commits was made durable before it, and no
    # name is left unsynced at the end
    synced = frozenset()
    for event, present in calls:
        if event == "fsync root":
            synced = present
        elif event == "fsync permanent.log":
            assert present <= synced, (present, synced)
    assert names() == synced


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
def test_appends_past_the_mark_load_with_every_signature(tmp_path, monkeypatch, k):
    ch = erased_chain()
    root = tmp_path / "s"
    crashed_store(root, ch, k)
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
    whole = len(log) - len(log_frame(ch.block_at(2).encoded))
    body = (root / "interval_2.blk").read_bytes()
    kept = (root / "interval_1.blk").read_bytes()
    for cut in range(whole, len(log)):
        # cut short by EOF, or its bytes from the cut on lost while the
        # log kept its size: read back as zeros or as junk
        for tail in (b"", bytes(len(log) - cut), b"\xa5" * (len(log) - cut)):
            if tail == log[cut:]:
                continue    # the bytes lost were those already there
            (root / "permanent.log").write_bytes(log[:cut] + tail)
            (root / "interval_2.blk").write_bytes(body)
            with BlockStore(root) as store:
                assert store.load_chain().height == 1, (cut, tail[:1])
            assert (root / "permanent.log").read_bytes() == log[:whole]
            assert (root / "interval_1.blk").read_bytes() == kept
            assert not (root / "interval_2.blk").exists()   # an orphan, swept


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
    start = len(log) - sum(len(log_frame(ch.block_at(x).encoded))
                           for x in (ch.height - 1, ch.height))
    log[start + at] ^= 0x80
    (root / "permanent.log").write_bytes(log)
    before = file_bytes(root)
    with BlockStore(root) as store:
        with pytest.raises(CorruptStore, match=f"damaged log frame {ch.height - 1}"):
            store.load_chain()
    assert file_bytes(root) == before

"""Store loading is total and erases nothing it may not: after one
mutation of a small store, closed or left past its mark by a session
that never closed, opening and loading it either succeeds or raises a
``MutachainError``.  A failed load has removed no interval file at or
below the committed height and left the log as it was.  A load that
succeeds has changed no interval file at or below the loaded height,
has at most cut the log short, and has kept every frame of the store
that the mutation left as it was."""

import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from mutachain import BlockStore, ChainParams, build_delete
from mutachain.errors import CorruptStore, MutachainError
from mutachain.store import FRAME_HEAD, INTERVAL_FILE
from support import ALICE, BOB, extend, fresh_chain, rem

FAST = ChainParams(confirm_depth=1, delete_lock=0)
HEIGHT = 3
DATA_FILES = ["permanent.log", "interval_2.blk", "interval_3.blk"]
STRAYS = ["interval_0.blk", "interval_1.blk", "interval_4.blk", "interval_01.blk",
          "interval_2.bak", "interval_2", "interval_x.blk"]
ABSENT = object()
OTHER_TIP = object()    # the hash of another committed block
JUNK = st.one_of(st.none(), st.booleans(), st.integers(-3, 1 << 12),
                 st.floats(allow_nan=False), st.text(max_size=3),
                 st.lists(st.integers(0, 3), max_size=2),
                 st.dictionaries(st.sampled_from(["confirm_depth", "delete_lock"]),
                                 st.integers(-1, 5)))


@pytest.fixture(scope="module")
def template(tmp_path_factory):
    """Interval 1 erased from disk, interval 2 of two blocks and
    interval 3 of one live, at committed height 3: ``closed`` marks
    height 3, ``crashed`` height 1, as a session killed after it
    appended segments 2 and 3 leaves it."""
    ch = fresh_chain(ALICE, BOB, params=FAST)
    extend(ch, [rem(ch, ALICE, b"purge me")])                          # 1
    extend(ch, [rem(ch, ALICE, b"a"), rem(ch, BOB, b"b")],
           [build_delete(ALICE, 1)], per_block=1)                      # 2
    extend(ch, [rem(ch, BOB, b"c")])                                   # 3
    assert ch.height == HEIGHT and ch.prune() == [1]
    roots = {}
    for name in ("closed", "crashed"):
        roots[name] = root = tmp_path_factory.mktemp(name) / "s"
        store = BlockStore(root, create=True)
        store.set_params(ch.params)
        for x in range(HEIGHT + 1):
            store.append_segment(ch.interval_blocks(x) or (), ch.block_at(x))
            if x == 1:
                store.mark()
        store.prune(1)
        if name == "closed":
            store.close()
        else:
            store._release_lock()   # killed: the lock goes, the mark stays
    return roots


@st.composite
def mutations(draw):
    template = draw(st.sampled_from(["closed", "crashed"]))
    return template, draw(mutations_of_a_store())


@st.composite
def mutations_of_a_store(draw):
    kind = draw(st.sampled_from(["flip", "truncate", "append", "cut", "zero",
                                 "length", "delete", "stray", "field"]))
    if kind == "cut":
        return kind, "permanent.log", draw(st.integers(0, 1 << 16))
    if kind == "zero":
        return kind, "permanent.log", draw(st.integers(0, 1 << 16)), draw(st.integers(0, 64))
    if kind == "length":
        return (kind, "permanent.log", draw(st.integers(0, HEIGHT)), draw(st.integers(0, 3)),
                draw(st.integers(1, 0xFF)))
    if kind in ("flip", "truncate", "append"):
        return (kind, draw(st.sampled_from(DATA_FILES)), draw(st.integers(0, 1 << 16)),
                draw(st.binary(min_size=1, max_size=16)))
    if kind == "delete":
        return kind, draw(st.sampled_from(DATA_FILES + ["manifest.json"]))
    if kind == "stray":
        return (kind, draw(st.sampled_from(STRAYS)), draw(st.booleans()),
                draw(st.binary(max_size=16)))
    key = draw(st.sampled_from(["version", "params", "height", "log_bytes", "tip",
                                "params.confirm_depth", "params.delete_lock"]))
    return kind, key, draw(st.one_of(st.just(ABSENT), st.just(OTHER_TIP), JUNK))


def frames(log: bytes) -> list:
    """``(start, end)`` of each frame of a log that holds whole frames."""
    spans = []
    while (start := spans[-1][1] if spans else 0) < len(log):
        spans.append((start, start + FRAME_HEAD.size + FRAME_HEAD.unpack_from(log, start)[0]))
    return spans


def mutate(root: Path, mutation) -> None:
    kind, name, *args = mutation
    path = root / name
    if kind == "cut":
        # inside the last frame, as a torn append leaves it
        data = path.read_bytes()
        start, end = frames(data)[-1]
        path.write_bytes(data[:start + 1 + args[0] % (end - start - 1)])
    elif kind == "zero":
        # the last frame's bytes from some point on lost, read back as
        # zeros, where the log kept its size or grew by a lost append
        data = path.read_bytes()
        start, end = frames(data)[-1]
        at = start + args[0] % (end - start)
        path.write_bytes(data[:at] + bytes(end - at + args[1]))
    elif kind == "length":
        frame, byte, bits = args
        data = bytearray(path.read_bytes())
        data[frames(data)[frame][0] + byte] ^= bits
        path.write_bytes(bytes(data))
    elif kind in ("flip", "truncate", "append"):
        at, junk = args
        data = bytearray(path.read_bytes())
        at %= len(data)
        if kind == "flip":
            data[at] ^= junk[0] or 0xFF
        elif kind == "truncate":
            del data[at:]
        else:
            data += junk
        path.write_bytes(bytes(data))
    elif kind == "delete":
        path.unlink()
    elif kind == "stray":
        as_dir, data = args
        if as_dir:
            path.mkdir(exist_ok=True)
        else:
            path.write_bytes(data)
    else:
        manifest = json.loads((root / "manifest.json").read_text())
        *owner, key = name.split(".")
        fields = manifest[owner[0]] if owner else manifest
        if args[0] is ABSENT:
            del fields[key]
        elif args[0] is OTHER_TIP:
            with BlockStore(root) as store:
                fields[key] = store.segments()[1][1].block_hash.hex()
        else:
            fields[key] = args[0]
        (root / "manifest.json").write_text(json.dumps(manifest))


def committed_data(root: Path, height: int = HEIGHT) -> dict:
    return {p.name: p.read_bytes() for p in root.iterdir() if p.is_file() and (
        p.name == "permanent.log"
        or (m := INTERVAL_FILE.fullmatch(p.name)) and int(m[1]) <= height)}


@pytest.mark.parametrize("tip", [None, 7, "", "ab", "A" * 64, "0" * 63, "0" * 65,
                                 "g" * 64, "0" * 64 + "\n"])
def test_tip_that_is_not_a_hex_hash_is_corruption(template, tip, tmp_path):
    root = tmp_path / "s"
    shutil.copytree(template["closed"], root)
    mutate(root, ("field", "tip", tip))
    with pytest.raises(CorruptStore, match="tip"):
        BlockStore(root)


@settings(max_examples=200, deadline=None)
@given(mutations())
def test_mutated_store_loads_or_fails_without_erasing(template, mutation):
    name, change = mutation
    stored = (template[name] / "permanent.log").read_bytes()
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "s"
        shutil.copytree(template[name], root)
        mutate(root, change)
        before = committed_data(root)
        try:
            with BlockStore(root) as store:
                height = store.load_chain().height
        except MutachainError:
            assert committed_data(root) == before
        else:
            after = committed_data(root, height)
            log, loaded = before.pop("permanent.log"), after.pop("permanent.log")
            assert log.startswith(loaded) and len(frames(loaded)) == height + 1
            # only the damaged last frame of a torn append may be dropped
            assert all(end <= len(loaded) for start, end in frames(stored)
                       if log[start:end] == stored[start:end]), (frames(stored), len(loaded))
            assert after == {k: v for k, v in before.items()
                             if int(INTERVAL_FILE.fullmatch(k)[1]) <= height}

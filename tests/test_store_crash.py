"""Every crash state a store session can leave loads what it acknowledged.

The store's crash model, enumerated at the write level as ALICE does
(Pillai et al., "All File Systems Are Not Created Equal", OSDI 2014).
``Recorder`` patches the Python names the store writes through (its
module's ``open``, ``Path.write_bytes``, ``Path.unlink``, ``os.pwrite``,
``os.fsync`` and ``os.replace``) and keeps each operation of a session:
a new name, a rename or an unlink in the store's directory, a write's
bytes and offset, a truncation, an fsync of a file or of the directory.
``crash_states`` replays a prefix of those operations under every state
the model allows after a crash there:

* every write and truncation before a file's last fsync persists; each
  later one persists whole, not at all, or torn at a 512-byte boundary
  of the file (a prefix of its bytes);
* a new name, rename or unlink before the directory's last fsync
  persists; of the later ones, those made first persist first, so a
  rename may or may not persist, and never without the names made
  before it.

``check_state`` then holds the store to its promise: a state a crash
left after ``create`` returned opens and loads, raising neither
``CorruptStore`` nor ``MissingDeleteEvidence``; the loaded chain is a
prefix of a chain the session stored and holds every segment whose
``append_segment`` returned; the load changed the log only as
``test_store_fuzz.check_load`` allows; and once ``Node.prune`` has run,
no payload byte of an interval the chain holds as a gap is left in the
store's files.  A state before ``create`` returned that lacks the
manifest is no store, and a store can be created over it.

Run as a script, it sweeps longer sessions (a fork rebuilds the store,
and two prunes follow) and prints the number of states checked:
``PYTHONPATH=src:tests python tests/test_store_crash.py``.
"""

from __future__ import annotations

import itertools
import os
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from mutachain import BlockStore, ChainParams, Node, build_delete
from mutachain import store as store_module
from mutachain.errors import CorruptStore
from mutachain.store import LOCK, LOG, MANIFEST
from support import ALICE, BOB, fresh_chain, make_segment, rem
from test_store_fuzz import check_load

SECTOR = 512
ROOT = None     # the file id an fsync of the store's directory names
DIR_OPS = ("create", "rename", "unlink")


class _RecordedFile:
    """A file the store opened, whose writes and truncations are kept."""

    def __init__(self, recorder, fh, fid):
        self._recorder, self._fh, self._fid = recorder, fh, fid

    def write(self, data):
        self._recorder.ops.append(("write", self._fid, self._fh.tell(), bytes(data)))
        return self._fh.write(data)

    def truncate(self, size):
        self._recorder.ops.append(("truncate", self._fid, size))
        return self._fh.truncate(size)

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


class Recorder:
    """The operations a store session makes under ``root``, from the files
    there when it starts (``base``).  A file is named by an id that a
    rename keeps; ``ops`` holds ``("create", name, fid)``, ``("rename",
    src, dst)``, ``("unlink", name)``, ``("write", fid, offset, data)``,
    ``("truncate", fid, size)`` and ``("fsync", fid)``, the directory's
    fid being ``ROOT``.  ``acks`` holds ``(op count, height, block hash)``
    once each append returns; a rebuild starting adds ``(op count, -1,
    None)``, as it may drop what earlier appends wrote."""

    def __init__(self, root):
        self.root = Path(root)
        self.ops: list[tuple] = []
        self.acks: list[tuple] = []
        self.created = 0
        self.names: dict[str, int] = {}
        self._fids = itertools.count()
        files = {}
        if self.root.is_dir():
            for path in sorted(self.root.iterdir()):
                if path.is_file() and path.name != LOCK:
                    self.names[path.name] = fid = next(self._fids)
                    files[fid] = path.read_bytes()
        self.base = (dict(self.names), files)

    def __enter__(self) -> "Recorder":
        self._patch = pytest.MonkeyPatch()
        real = {"write_bytes": Path.write_bytes, "unlink": Path.unlink,
                "pwrite": os.pwrite, "fsync": os.fsync, "replace": os.replace}

        def store_open(path, mode="r"):
            if mode[0] in "wa":
                self._opened(Path(path).name, truncate=mode[0] == "w")
            fh = open(path, mode)
            return _RecordedFile(self, fh, self.names.get(Path(path).name))

        def write_bytes(path, data):
            if path.parent == self.root:
                self._opened(path.name, truncate=True)
                self.ops.append(("write", self.names[path.name], 0, bytes(data)))
            return real["write_bytes"](path, data)

        def unlink(path, missing_ok=False):
            if path.parent == self.root and path.name in self.names:
                self.ops.append(("unlink", path.name))
                del self.names[path.name]
            return real["unlink"](path, missing_ok=missing_ok)

        def pwrite(fd, data, offset):
            self.ops.append(("write", self._fid(fd), offset, bytes(data)))
            return real["pwrite"](fd, data, offset)

        def fsync(fd):
            self.ops.append(("fsync", self._fid(fd)))
            return real["fsync"](fd)

        def replace(src, dst):
            src, dst = Path(src).name, Path(dst).name
            self.ops.append(("rename", src, dst))
            self.names[dst] = self.names.pop(src)
            return real["replace"](self.root / src, self.root / dst)

        self._patch.setattr(store_module, "open", store_open, raising=False)
        self._patch.setattr(Path, "write_bytes", write_bytes)
        self._patch.setattr(Path, "unlink", unlink)
        self._patch.setattr(os, "pwrite", pwrite)
        self._patch.setattr(os, "fsync", fsync)
        self._patch.setattr(os, "replace", replace)
        return self

    def __exit__(self, *exc) -> None:
        self._patch.undo()

    def _opened(self, name: str, truncate: bool) -> None:
        if name not in self.names:
            self.names[name] = fid = next(self._fids)
            self.ops.append(("create", name, fid))
        elif truncate:
            self.ops.append(("truncate", self.names[name], 0))

    def _fid(self, fd: int):
        st = os.fstat(fd)
        if os.path.samestat(st, os.stat(self.root)):
            return ROOT
        return next(fid for name, fid in self.names.items()
                    if os.path.samestat(st, os.stat(self.root / name)))

    def fid(self, name: str) -> int:
        return self.names[name]

    def watch(self, store) -> None:
        """Note each append of ``store`` as it returns, and each rebuild as
        it starts."""
        append, rebuild = store.append_segment, store.rebuild

        def acked_append(blocks, block):
            append(blocks, block)
            self.acks.append((len(self.ops), block.height, block.block_hash))

        def noted_rebuild(chain):
            self.acks.append((len(self.ops), -1, None))
            rebuild(chain)
        store.append_segment, store.rebuild = acked_append, noted_rebuild


def _outcomes(op):
    """What a crash may leave of ``op``, issued after its file's last fsync."""
    if op[0] == "truncate":
        return None, op
    kind, fid, offset, data = op
    first = -offset % SECTOR or SECTOR
    return (None, op, *[(kind, fid, offset, data[:cut])
                        for cut in range(first, len(data), SECTOR)])


def _apply(base, ops, lost, chosen) -> dict:
    names, files = dict(base[0]), {fid: bytearray(data) for fid, data in base[1].items()}
    for i, op in enumerate(ops):
        op = chosen.get(i, op)
        if i in lost or op is None:
            continue
        kind = op[0]
        if kind == "create":
            names[op[1]] = op[2]
            files.setdefault(op[2], bytearray())
        elif kind == "rename":
            names[op[2]] = names.pop(op[1])
        elif kind == "unlink":
            del names[op[1]]
        elif kind == "write":
            data = files.setdefault(op[1], bytearray())
            data.extend(bytes(max(0, op[2] - len(data))))
            data[op[2]:op[2] + len(op[3])] = op[3]
        elif kind == "truncate":
            del files.setdefault(op[1], bytearray())[op[2]:]
    return {name: bytes(files[fid]) for name, fid in names.items()}


def crash_states(base, ops) -> list[dict]:
    """Each distinct file tree, ``{name: bytes}``, that a crash right after
    ``ops`` may leave, from the tree ``base`` of a ``Recorder``."""
    last_sync = {op[1]: i for i, op in enumerate(ops) if op[0] == "fsync"}
    late_dir = [i for i, op in enumerate(ops)
                if op[0] in DIR_OPS and i > last_sync.get(ROOT, -1)]
    late = [i for i, op in enumerate(ops)
            if op[0] in ("write", "truncate") and i > last_sync.get(op[1], -1)]
    states = {}
    for kept in range(len(late_dir) + 1):
        lost = set(late_dir[kept:])
        for outcome in itertools.product(*(_outcomes(ops[i]) for i in late)):
            state = _apply(base, ops, lost, dict(zip(late, outcome)))
            states.setdefault(frozenset(state.items()), state)
    return list(states.values())


def materialize(state: dict, root: Path) -> None:
    shutil.rmtree(root, ignore_errors=True)
    root.mkdir(parents=True)
    for name, data in state.items():
        (root / name).write_bytes(data)


def check_state(root: Path, rec: Recorder, k: int, chains, markers) -> None:
    """Hold the store left at ``root`` by a crash after ``rec.ops[:k]`` to
    the promises the module docstring lists."""
    if not (root / MANIFEST).exists():
        assert k < rec.created, "the manifest is lost after create returned"
        with pytest.raises(CorruptStore, match="no store"):
            BlockStore(root)
        BlockStore(root, create=True).close()
        return
    log = (root / LOG).read_bytes()
    with BlockStore(root) as store:
        chain = store.load_chain()
        check_load(log, (root / LOG).read_bytes(), chain)
        hashes = [chain.block_at(x).block_hash for x in range(chain.height + 1)]
        assert any(c.height >= chain.height and hashes
                   == [c.block_at(x).block_hash for x in range(chain.height + 1)]
                   for c in chains), "the loaded chain is no chain the session stored"
        _, height, acked = ([ack for ack in rec.acks if ack[0] <= k] or [(0, -1, None)])[-1]
        assert chain.height >= height, f"lost height {height}, acknowledged"
        assert height < 0 or hashes[height] == acked
        Node(chain, store=store).prune()
        files = b"".join(path.read_bytes() for path in sorted(root.iterdir()))
        for x in range(chain.height + 1):
            if chain.interval_blocks(x) is None:
                for marker in markers.get(hashes[x], ()):
                    assert marker not in files, f"interval {x}'s {marker!r} is left"


def check_every_state(rec: Recorder, chains, markers, scratch: Path) -> int:
    """Check every crash state of the recorded session; return how many
    distinct (state, crash point) pairs there were."""
    checked = set()
    for k in range(len(rec.ops) + 1):
        ack = len([a for a in rec.acks if a[0] <= k]), k < rec.created
        for state in crash_states(rec.base, rec.ops[:k]):
            key = frozenset(state.items()), ack
            if key in checked:
                continue
            checked.add(key)
            materialize(state, scratch)
            try:
                check_state(scratch, rec, k, chains, markers)
            except Exception as exc:
                op = rec.ops[k - 1][:3] if k else None
                raise AssertionError(
                    f"crash after op {k} of {len(rec.ops)} ({op}), files "
                    f"{ {name: len(data) for name, data in state.items()} }: {exc!r}") from exc
    return len(checked)


# ----------------------------------------------------------------------
# sessions


def _segment(chain, markers: dict, payloads=(), body_txs=()):
    """A segment on ``chain``'s tip with a removable of about 2 KB for
    each ``(key, tag)`` of ``payloads``, a run of a marker no other
    payload holds; ``markers`` lists them under the segment's block."""
    tags = [f"<{tag}>".encode() for _, tag in payloads]
    segment = make_segment(chain, [rem(chain, key, tag * (2000 // len(tag)))
                                   for (key, _), tag in zip(payloads, tags)], body_txs)
    markers[segment[1].block_hash] = tags
    return segment


def session(root: Path, params: ChainParams, *, fork: bool = False):
    """Create a store, append genesis and three segments through a
    ``Node``, one of which prunes, and close it: the recorder, the
    chains stored and the payload markers by block hash.

    With ``confirm_depth == 0`` the first segment's body deletes its own
    interval, so the prune overwrites the tip's body frame.  ``fork``
    then extends the node by a taller fork from genesis, whose rebuild
    is followed by a second prune."""
    markers: dict = {}
    chain = fresh_chain(ALICE, BOB, params=params)
    own = params.confirm_depth == 0
    rec = Recorder(root)
    with rec:
        store = BlockStore(root, create=True)
        rec.created = len(rec.ops)
        rec.watch(store)
        store.set_params(params)
        store.append_segment((), chain.block_at(0))
        node = Node(chain, store=store)
        delete = [build_delete(ALICE, 1)]
        node.extend([_segment(chain, markers, [(ALICE, "a1")], delete if own else ())])
        node.extend([_segment(chain, markers, [(BOB, "b2")], () if own else delete)])
        node.extend([_segment(chain, markers)])
        chains = [node.chain]
        if fork:
            # interval 2's delete matures once the node holds the fork
            other = fresh_chain(ALICE, BOB, params=params)
            for payloads, body_txs in [([(BOB, "f1")], ()), ([(ALICE, "f2")], ()),
                                       ((), [build_delete(ALICE, 2)]), ((), ()), ((), ())]:
                other.append_segment(*_segment(other, markers, payloads, body_txs))
            node.extend([(other.interval_blocks(x), other.block_at(x))
                         for x in range(other.height + 1)])
            chains.append(node.chain)
        store.close()
    assert chains[0].interval_blocks(1) is None
    return rec, chains, markers


PARAMS = (ChainParams(confirm_depth=1, delete_lock=0), ChainParams(confirm_depth=0, delete_lock=0))


@pytest.mark.parametrize("params", PARAMS, ids=["delete-a-block-later", "delete-in-its-own-block"])
def test_every_crash_state_of_a_session_loads_what_it_acknowledged(tmp_path, params):
    rec, chains, markers = session(tmp_path / "s", params)
    assert check_every_state(rec, chains, markers, tmp_path / "crash") > 0


def main() -> int:
    total = 0
    for params in PARAMS:
        with tempfile.TemporaryDirectory() as tmp:
            rec, chains, markers = session(Path(tmp) / "s", params, fork=True)
            count = check_every_state(rec, chains, markers, Path(tmp) / "crash")
        print(f"{params}: {len(rec.ops)} operations, {count} crash states checked")
        total += count
    print(f"{total} crash states checked")
    return 0


if __name__ == "__main__":
    sys.exit(main())

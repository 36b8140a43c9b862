"""On-disk block store built for real deletion.

Layout under the store root:

* ``permanent.log``: the spine, append-only, one frame per block.  A
  frame is a 12-byte head, then the block's canonical encoding; the
  head holds the block's length and crc32 and the crc32 of those 8
  bytes, so a damaged length is told from a frame cut short.
* ``interval_<x>.blk``: interval ``x``'s removable blocks, each framed
  as a codec byte string.  Erasing the interval is unlinking this one
  file; nothing else on disk holds those bytes.  The spine header says
  how many blocks it holds; whether it exists says present or pruned.
* ``manifest.json``: format version, parameters and the mark: the
  height, log length and ``tip`` (the hex hash of the block at that
  height) as of the last clean write, a size that does not grow with
  the chain.  ``create``, ``set_params``, the end of ``rebuild`` and
  ``close`` write it, through a temp file, an atomic rename and an
  fsync of the root directory; ``close`` only when the session moved
  the tip, by appending or by a ``load_chain`` that checked every
  signature past the mark.
* ``.lock``: ``flock``-ed against concurrent writers; the lock dies
  with the process that holds it.

An append commits with its log frame.  It fsyncs the interval file,
then the root directory so that the file's name is durable, then
appends the frame and fsyncs the log: three fsyncs, one for an empty
interval.  A prune is one unlink followed by an fsync of the root.

Failures are crash-only: a process may die at any point, and the disk
keeps what was fsynced before it.  Only the last append can be unsynced,
so only the log's final frame can be torn: cut short by EOF, or its
bytes lost (zeros or junk) where the file kept its new size.  A frame is
whole when its head and block pass their checks.  Loading reads the log
as follows and erases nothing at or below its last whole frame:

* the bytes below the mark's ``log_bytes`` must be ``height + 1`` whole
  frames that decode; anything else is ``CorruptStore`` and nothing is
  truncated;
* whole frames past the mark are appends committed by a session that
  never closed; they are served, and the load checks their signatures;
  one that does not decode is ``CorruptStore``;
* a frame that is not whole is the torn last append, and is truncated,
  only if nothing of the log follows it: its head checks and states an
  end at or past EOF, or its head fails and no whole frame starts
  anywhere after it.  Otherwise it is ``CorruptStore``;
* interval files above the last whole frame are orphans of torn appends
  and are swept.

``load_chain`` truncates and sweeps only once the chain verifies, so a
load that fails leaves the store as it found it.

A missing interval file is served as a gap; the rebuilt chain is
re-verified, including delete evidence for every gap.

The store appends only segments a ``Chain`` has accepted, so every
signature it holds was checked before it was written.  ``tip`` marks
that: when it names the last block of the log, ``load_chain`` skips the
Ed25519 checks and runs every other rule (decode, shape, ``tx_root``,
interval and prev links, p_lists, stateful rules, delete evidence for
every gap).  A txid covers its signature, so ``tx_root`` and the hash
links bind every signature byte to the marked tip; a changed byte fails
the replay as before.  Without the field, or when it names another
block (as it does when frames follow the mark), the load checks every
signature.  Someone who can rewrite the log can rewrite the mark too,
so it costs no trust a node does not already place in its own disk.
Audits never trust it: ``mutachain verify`` and ``verify.verify_chain``
check every signature.

``crash_hook`` is a test seam: when set, it is called with a named
point before each mutation step and may raise to simulate a crash.
"""

from __future__ import annotations

import fcntl
import json
import os
import re
import struct
import zlib
from dataclasses import asdict, fields
from pathlib import Path
from typing import Callable

# replay through the module: a wrapper set on verify.replay_segments sees it
from . import codec, verify
from .blocks import PermanentBlock, RemovableBlock
from .crypto import digest
from .errors import (
    CorruptStore,
    MissingDeleteEvidence,
    MutachainError,
    StoreLocked,
)
from .ledger import Chain, ChainParams

MANIFEST = "manifest.json"
LOG = "permanent.log"
LOCK = ".lock"
VERSION = 3
PARAM_FIELDS = tuple(f.name for f in fields(ChainParams))
INTERVAL_FILE = re.compile(r"interval_(0|[1-9][0-9]*)\.blk")
TIP = re.compile(r"[0-9a-f]{64}")
# a log frame's head: the block's length, its crc32, the crc32 of those 8 bytes
FRAME_HEAD = struct.Struct("<III")


def log_frame(block: bytes) -> bytes:
    """``block``, an encoding, framed for the log."""
    head = struct.pack("<II", len(block), zlib.crc32(block))
    return head + struct.pack("<I", zlib.crc32(head)) + block


def _framed_length(raw: bytes, pos: int) -> int | None:
    """The block length the frame head at ``pos`` states, if the head is
    whole and checks."""
    head = raw[pos:pos + FRAME_HEAD.size]
    if len(head) < FRAME_HEAD.size:
        return None
    length, _, check = FRAME_HEAD.unpack(head)
    return length if zlib.crc32(head[:8]) == check else None


def _framed_block(raw: bytes, pos: int) -> bytes | None:
    """The block of the frame at ``pos``, if the frame is whole."""
    length = _framed_length(raw, pos)
    if length is None:
        return None
    start = pos + FRAME_HEAD.size
    block = raw[start:start + length]
    if len(block) < length or zlib.crc32(block) != FRAME_HEAD.unpack_from(raw, pos)[1]:
        return None
    return block


def _write_synced(path: Path, data: bytes, mode: str) -> None:
    with open(path, mode) as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())


def _checked_manifest(manifest) -> dict:
    """``manifest`` if every field has its type and range, else ValueError."""
    if not isinstance(manifest, dict):
        raise ValueError("not a JSON object")
    version = manifest.get("version")
    if type(version) is not int or version != VERSION:
        raise ValueError(f"format version {version!r}, expected {VERSION}")
    params = manifest.get("params")
    if not isinstance(params, dict):
        raise ValueError(f"params {params!r} is not an object")
    for key, low in (("height", -1), ("log_bytes", 0)):
        value = manifest.get(key)
        if type(value) is not int or value < low:
            raise ValueError(f"{key} {value!r} is not an int >= {low}")
    tip = manifest.get("tip")
    if "tip" in manifest and not (isinstance(tip, str) and TIP.fullmatch(tip)):
        raise ValueError(f"tip {tip!r} is not a 64-digit lowercase hex hash")
    # the one rule for parameters; InvalidParams is a ValueError
    ChainParams(**{key: params.get(key) for key in PARAM_FIELDS})
    return manifest


class BlockStore:
    def __init__(self, root, *, create: bool = False):
        self.root = Path(root)
        self.crash_hook: Callable[[str], None] | None = None
        if create:
            self.root.mkdir(parents=True, exist_ok=True)
            if (self.root / MANIFEST).exists():
                raise CorruptStore(f"{self.root} already holds a store")
        elif not (self.root / MANIFEST).exists():
            raise CorruptStore(f"no store at {self.root}")
        self._lock_fd: int | None = None
        self._acquire_lock()
        # _manifest is the live state, _written the manifest as on disk
        if create:
            self._manifest = {
                "version": VERSION,
                "params": asdict(ChainParams()),
                "height": -1,
                "log_bytes": 0,
            }
            # the manifest write's root fsync makes the log's name durable
            (self.root / LOG).write_bytes(b"")
            self._write_manifest()
        else:
            try:
                self._manifest = _checked_manifest(
                    json.loads((self.root / MANIFEST).read_text()))
            except (OSError, ValueError) as exc:
                self._release_lock()
                raise CorruptStore(f"unreadable manifest: {exc}")
            self._written = dict(self._manifest)
        # until the log is read, frames past the mark are not counted
        self._log_read = create

    # ------------------------------------------------------------------
    # lifecycle

    def _acquire_lock(self) -> None:
        fd = os.open(self.root / LOCK, os.O_CREAT | os.O_WRONLY)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            os.close(fd)
            raise StoreLocked(f"{self.root} is in use")
        self._lock_fd = fd

    def _release_lock(self) -> None:
        if self._lock_fd is not None:
            os.close(self._lock_fd)     # closing drops the flock
            self._lock_fd = None

    def close(self) -> None:
        """Write the mark if this session moved the tip since it was last
        written: by appending, or by a load that checked every signature
        past the mark.  Then release the store."""
        try:
            if self._manifest.get("tip") != self._written.get("tip"):
                self._write_manifest()
        finally:
            self._release_lock()

    def __enter__(self) -> "BlockStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # helpers

    def _crash(self, point: str) -> None:
        if self.crash_hook is not None:
            self.crash_hook(point)

    def _interval_path(self, x: int) -> Path:
        return self.root / f"interval_{x}.blk"

    def _sync_root(self) -> None:
        """Make the root's entries (new names, renames, unlinks) durable."""
        fd = os.open(self.root, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def _write_manifest(self) -> None:
        self._crash("manifest")
        text = json.dumps(self._manifest, sort_keys=True, indent=2) + "\n"
        tmp = self.root / (MANIFEST + ".tmp")
        _write_synced(tmp, text.encode("utf-8"), "wb")
        os.replace(tmp, self.root / MANIFEST)
        self._sync_root()
        self._written = dict(self._manifest)

    @property
    def params(self) -> ChainParams:
        p = self._manifest["params"]
        return ChainParams(**{key: p[key] for key in PARAM_FIELDS})

    @property
    def height(self) -> int:
        """Height of the log's last whole frame, as far as this session
        has read or appended it."""
        return self._manifest["height"]

    def set_params(self, params: ChainParams) -> None:
        self._manifest["params"] = asdict(params)
        self._write_manifest()

    # ------------------------------------------------------------------
    # mutation

    def append_segment(self, removable_blocks, block: PermanentBlock) -> None:
        """Persist one segment; its log frame commits it, and ``block``
        becomes the tip the next mark names.

        Contract: append only segments a ``Chain`` accepted, signatures
        checked.  ``load_chain`` skips the Ed25519 checks up to the
        marked tip; ``verify_chain`` over ``segments()`` does not."""
        removable_blocks = tuple(removable_blocks or ())
        if not self._log_read:
            self.segments()     # count the frames left past the mark
        x = block.height
        if x != self.height + 1:
            raise CorruptStore(
                f"appending height {x} onto committed height {self.height}")
        if removable_blocks:
            # no temp file: until its frame is in the log it is an orphan
            self._crash("interval-file")
            _write_synced(self._interval_path(x),
                          b"".join(codec.encode_byte_string(rb.encoded)
                                   for rb in removable_blocks), "wb")
            self._sync_root()
        self._crash("log-append")
        frame = log_frame(block.encoded)
        _write_synced(self.root / LOG, frame, "ab")
        self._manifest["height"] = x
        self._manifest["log_bytes"] += len(frame)
        self._manifest["tip"] = block.block_hash.hex()

    def prune(self, x: int) -> None:
        """Physically erase interval ``x`` from disk."""
        if not 0 <= x <= self.height:
            raise CorruptStore(f"interval {x} is not in this store")
        self._crash("prune-file")
        self._interval_path(x).unlink(missing_ok=True)
        self._sync_root()

    def rebuild(self, chain: Chain) -> None:
        """Replace all block data with the given chain's contents."""
        # mark the empty store first and empty the log before any
        # interval file goes: a crash below leaves the old chain whole
        # past the mark, or an empty log and orphan interval files
        self._manifest["height"] = -1
        self._manifest["log_bytes"] = 0
        self._manifest.pop("tip", None)
        self.set_params(chain.params)
        _write_synced(self.root / LOG, b"", "wb")
        for child in self.root.glob("interval_*"):
            child.unlink()
        self._sync_root()
        for x in range(chain.height + 1):
            self.append_segment(chain.interval_blocks(x), chain.block_at(x))
        self._write_manifest()

    # ------------------------------------------------------------------
    # loading

    def segments(self) -> list:
        """Committed segments, one per whole log frame; truncates a torn
        final frame and sweeps interval files above the last whole one."""
        segments, repair = self._read()
        repair()
        return segments

    def _read(self) -> tuple[list, Callable[[], None]]:
        """Committed segments, and the repair that truncates a torn final
        frame and sweeps the orphans of torn appends.  The repair is run
        once the segments are accepted, so a load that fails leaves the
        store as it found it."""
        log_path = self.root / LOG
        try:
            raw = log_path.read_bytes()
        except OSError as exc:
            raise CorruptStore(f"unreadable {LOG}: {exc}")
        blocks, ends = [], [0]
        while ends[-1] < len(raw):
            pos = ends[-1]
            block = _framed_block(raw, pos)
            if block is None:
                # the torn last append, unless more of the log follows
                length = _framed_length(raw, pos)
                if length is None:
                    followed = any(_framed_block(raw, q) is not None
                                   for q in range(pos + 1, len(raw)))
                else:
                    followed = pos + FRAME_HEAD.size + length < len(raw)
                if followed:
                    raise CorruptStore(
                        f"damaged log frame {len(blocks)} has more of the log after it")
                break
            try:
                blocks.append(PermanentBlock.decode(block))
            except MutachainError as exc:
                raise CorruptStore(f"undecodable log frame {len(blocks)}: {exc}")
            ends.append(pos + FRAME_HEAD.size + len(block))
        marked, log_bytes = self._written["height"] + 1, self._written["log_bytes"]
        if ends[marked:marked + 1] != [log_bytes]:
            raise CorruptStore(
                f"log does not begin with {marked} whole frames in "
                f"{log_bytes} bytes, as the manifest committed")
        height = len(blocks) - 1
        bodied = {b.height for b in blocks if b.header.interval_len}
        orphans, present = [], set()
        try:
            entries = list(os.scandir(self.root))
        except OSError as exc:
            raise CorruptStore(f"unreadable {self.root}: {exc}")
        for entry in entries:
            m = INTERVAL_FILE.fullmatch(entry.name)
            x = int(m[1]) if m and entry.is_file() else None
            if x is not None and x > height:
                orphans.append(Path(entry.path))
            elif x in bodied:
                present.add(x)
            elif entry.name.startswith("interval_"):
                raise CorruptStore(f"stray {entry.name} in {self.root}")

        segments = []
        for block in blocks:
            x = block.height
            if block.header.interval_len == 0:
                segments.append(((), block))
                continue
            if x not in present:
                # pruned: the spine must prove the delete
                segments.append((None, block))
                continue
            try:
                reader = codec.Reader(self._interval_path(x).read_bytes())
            except OSError as exc:
                raise CorruptStore(f"unreadable interval {x}: {exc}")
            rbs = []
            try:
                while not reader.exhausted:
                    rbs.append(RemovableBlock.decode(reader.byte_string()))
            except MutachainError as exc:
                raise CorruptStore(f"undecodable interval {x}: {exc}")
            segments.append((tuple(rbs), block))   # replay checks the count

        def repair() -> None:
            for child in orphans:
                child.unlink()
            if ends[-1] < len(raw):
                with open(log_path, "r+b") as fh:
                    fh.truncate(ends[-1])
            self._manifest["height"] = height
            self._manifest["log_bytes"] = ends[-1]
            self._log_read = True
        return segments, repair

    def load_chain(self) -> Chain:
        """Replay and re-verify the store's contents: every rule, and
        every signature unless the tip marks this log.  The loaded tip
        becomes the tip the next mark names."""
        segments, repair = self._read()
        tip = segments[-1][1].block_hash.hex() if segments else None
        try:
            chain = verify.replay_segments(
                segments, self.params,
                check_signatures=self._manifest.get("tip") != tip)
        except MissingDeleteEvidence:
            raise
        except MutachainError as exc:
            raise CorruptStore(
                f"stored chain does not verify: {type(exc).__name__}: {exc}")
        repair()
        if tip is not None:
            self._manifest["tip"] = tip
        return chain

    # ------------------------------------------------------------------

    def digest(self) -> str:
        """Hex digest over the block data and manifest, path-ordered."""
        h = []
        for path in sorted(self.root.rglob("*")):
            rel = path.relative_to(self.root).as_posix()
            if path.is_dir() or rel == LOCK or rel.endswith(".tmp"):
                continue
            if rel.split("/")[0] in ("keys", "pending") or rel == "labels.json":
                continue
            h.append((rel, path.read_bytes()))
        acc = b""
        for rel, data in h:
            acc = digest(acc + rel.encode("utf-8") + b"\x00"
                         + len(data).to_bytes(8, "little") + data)
        return acc.hex()

"""On-disk block store built for real deletion.

Layout under the store root:

* ``permanent.log``: the chain, append-only, one segment after another.
  A segment is its permanent block's frame, then, when the block's
  header counts removable blocks, one body frame.  A frame is a 12-byte
  head, then its payload; the head holds the payload's length and crc32
  and the crc32 of those 8 bytes, so a damaged length is told from a
  frame cut short.  A body frame's payload is the interval's removable
  blocks, each a codec byte string.
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

An append writes its whole segment in one ``write`` and fsyncs the log:
one fsync and no directory change, whatever the interval holds.  A
session that appends one segment and closes, as ``mutachain mine`` does,
pays three fsyncs: the append's, then the manifest's temp file and the
root directory when ``close`` writes the mark.

A prune overwrites interval ``x``'s body frame in place with an *erased*
frame of the same length: zeros under a head recomputed over those
zeros, so nothing derived from the body, not even its crc32, stays in
the log.  It is one ``pwrite`` and one fsync of the log.  Every link to the log and
every descriptor open on it reads the zeros.  A whole, all-zero body
frame is a gap; a body that holds blocks never is, since each block's
byte string starts with a non-zero length.

What the overwrite cannot do (Reardon, Basin and Čapkun, "SoK: Secure
Data Deletion", IEEE S&P 2013): it reaches the blocks the file system
maps the log to now, so on a copy-on-write file system (btrfs, ZFS) or
on flash with wear levelling the old bytes may survive elsewhere on the
device.  The erased frame keeps the body's length.  Zeroed bytes stay
allocated; nothing punches holes in the log.

Failures are crash-only: a process may die at any point, and the disk
keeps what was fsynced before it.  The crash model, which
``tests/test_store_crash.py`` enumerates write by write for whole
sessions: every write to a file before its last fsync persists, and
each later one persists whole, not at all, or torn at a 512-byte
boundary; a new name or a rename persists once the root is fsynced,
and before that may or may not, never ahead of the names made before
it.  Only the last append can be unsynced, so only the log's final
segment can be torn: cut short by EOF, or its bytes lost (zeros or
junk) where the file kept its new size.  A prune cut short can leave
one body frame partly zeroed, the tip's too.  A frame is whole when its
head and payload pass their checks.  Loading reads the log as follows,
and at or below its last whole segment erases only the bodies whose
delete it proves:

* the bytes below the mark's ``log_bytes`` must be ``height + 1``
  segments whose permanent frames are whole and decode; anything else is
  ``CorruptStore``, which names the first frame there that is not whole
  (and not served as a gap), and nothing is truncated;
* segments past the mark are appends committed by a session that never
  closed; they are served, and the load checks their signatures; a
  permanent frame that does not decode is ``CorruptStore``;
* a segment whose permanent or body frame is not whole is the torn last
  append, and is truncated, only if no segment follows it: no whole
  frame that holds a permanent block starts anywhere after that frame.
  A permanent frame that is not whole with a segment after it is
  ``CorruptStore``;
* a body frame that is not whole but is followed by a whole frame where
  its length says it ends is served as a gap, as is a whole erased one.
  A prune never rewrites a body frame's length, so a prune cut short
  leaves that length intact;
* a body frame that is not whole and whose length ends the log is the
  tip's, torn by its append or by a prune.  ``load_chain`` serves it as
  a gap first; if the replay then names it in ``MissingDeleteEvidence``,
  no delete backs it, and it reads the log again with that segment as
  the torn last append.  ``segments``, which runs no replay, reads it
  as a torn append at once.

The replay accepts a gap only where a confirmed delete backs it, and
raises ``MissingDeleteEvidence`` otherwise.  ``load_chain`` truncates a
torn append, and rewrites as erased each damaged body frame it served as
a gap, only once the chain verifies, every gap's delete proven; so a
load that fails leaves the store as it found it.  ``segments``, the
audit path, truncates a torn append and overwrites nothing.

The store appends only segments a ``Chain`` has accepted, so every
signature it holds was checked before it was written.  ``tip`` marks
that: when it names the last block of the log, ``load_chain`` skips the
Ed25519 checks and runs every other rule (decode, shape, ``tx_root``,
interval and prev links, p_lists, stateful rules, delete evidence for
every gap).  A txid covers its signature, so ``tx_root`` and the hash
links bind every signature byte to the marked tip; a changed byte fails
the replay as before.  Without the field, or when it names another
block (as it does when segments follow the mark), the load checks every
signature.  Someone who can rewrite the log can rewrite the mark too,
so it costs no trust a node does not already place in its own disk.
Audits never trust it: ``mutachain verify`` and ``verify.verify_chain``
check every signature.
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
VERSION = 4
PARAM_FIELDS = tuple(f.name for f in fields(ChainParams))
TIP = re.compile(r"[0-9a-f]{64}")
# a frame's head: the payload's length, its crc32, the crc32 of those 8 bytes
FRAME_HEAD = struct.Struct("<III")


def log_frame(payload: bytes) -> bytes:
    """``payload``, a block's encoding or an interval's body, framed for
    the log."""
    head = struct.pack("<II", len(payload), zlib.crc32(payload))
    return head + struct.pack("<I", zlib.crc32(head)) + payload


def _framed(raw, pos: int):
    """The payload of the frame at ``pos``, if the frame is whole."""
    head = raw[pos:pos + FRAME_HEAD.size]
    if len(head) < FRAME_HEAD.size:
        return None
    length, crc, check = FRAME_HEAD.unpack(head)
    if zlib.crc32(head[:8]) != check:
        return None
    payload = raw[pos + FRAME_HEAD.size:pos + FRAME_HEAD.size + length]
    return payload if len(payload) == length and zlib.crc32(payload) == crc else None


def _ends_the_log(raw, pos: int) -> bool:
    """Whether no segment follows the frame at ``pos``, which is not whole:
    no whole frame that holds a permanent block starts after it."""
    for q in range(pos + 1, len(raw)):
        payload = _framed(raw, q)
        if payload is not None:
            try:
                PermanentBlock.decode(payload)
                return False
            except MutachainError:
                pass
    return True


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
        # until the log is read, segments past the mark are not counted
        # and bodies not located: height -> (offset, length) of its frame
        self._log_read = create
        self._bodies: dict[int, tuple[int, int]] = {}

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

    def _sync_root(self) -> None:
        """Make the root's entries (new names, renames) durable."""
        fd = os.open(self.root, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def _write_manifest(self) -> None:
        text = json.dumps(self._manifest, sort_keys=True, indent=2) + "\n"
        tmp = self.root / (MANIFEST + ".tmp")
        _write_synced(tmp, text.encode("utf-8"), "wb")
        os.replace(tmp, self.root / MANIFEST)
        self._sync_root()
        self._written = dict(self._manifest)

    def _erase(self, offset: int, length: int) -> None:
        """Overwrite the body frame of ``length`` bytes at ``offset`` with
        an erased frame, and fsync the log."""
        fd = os.open(self.root / LOG, os.O_WRONLY)
        try:
            os.pwrite(fd, log_frame(bytes(length - FRAME_HEAD.size)), offset)
            os.fsync(fd)
        finally:
            os.close(fd)

    @property
    def params(self) -> ChainParams:
        p = self._manifest["params"]
        return ChainParams(**{key: p[key] for key in PARAM_FIELDS})

    @property
    def height(self) -> int:
        """Height of the log's last whole segment, as far as this session
        has read or appended it."""
        return self._manifest["height"]

    def set_params(self, params: ChainParams) -> None:
        self._manifest["params"] = asdict(params)
        self._write_manifest()

    # ------------------------------------------------------------------
    # mutation

    def append_segment(self, removable_blocks, block: PermanentBlock) -> None:
        """Persist one segment, committed by one write and one fsync of the
        log; ``block`` becomes the tip the next mark names.  A gap (no
        blocks where the header counts some) is stored erased.

        Contract: append only segments a ``Chain`` accepted, signatures
        checked.  ``load_chain`` skips the Ed25519 checks up to the
        marked tip; ``verify_chain`` over ``segments()`` does not."""
        if not self._log_read:
            self.segments()     # count the segments left past the mark
        x = block.height
        if x != self.height + 1:
            raise CorruptStore(
                f"appending height {x} onto committed height {self.height}")
        frame = log_frame(block.encoded)
        body = b""
        if block.header.interval_len:
            body = log_frame(b"".join(codec.encode_byte_string(rb.encoded)
                                      for rb in removable_blocks or ()))
        _write_synced(self.root / LOG, frame + body, "ab")
        offset = self._manifest["log_bytes"] + len(frame)
        if body:
            self._bodies[x] = (offset, len(body))
        self._manifest["height"] = x
        self._manifest["log_bytes"] = offset + len(body)
        self._manifest["tip"] = block.block_hash.hex()

    def prune(self, x: int) -> None:
        """Physically erase interval ``x``: overwrite its body frame in
        place with an erased frame and fsync the log."""
        if not self._log_read:
            self.segments()     # locate the bodies
        if not 0 <= x <= self.height:
            raise CorruptStore(f"interval {x} is not in this store")
        if x in self._bodies:
            self._erase(*self._bodies[x])

    def rebuild(self, chain: Chain) -> None:
        """Replace all block data with the given chain's contents."""
        # mark the empty store before the log is emptied: a crash below
        # leaves the old chain whole past the mark, or an empty log
        self._manifest["height"] = -1
        self._manifest["log_bytes"] = 0
        self._manifest.pop("tip", None)
        self.set_params(chain.params)
        _write_synced(self.root / LOG, b"", "wb")
        self._log_read, self._bodies = True, {}
        for x in range(chain.height + 1):
            self.append_segment(chain.interval_blocks(x), chain.block_at(x))
        self._write_manifest()

    # ------------------------------------------------------------------
    # loading

    def segments(self) -> list:
        """Committed segments, one per whole segment of the log; truncates
        a torn final segment and overwrites nothing."""
        segments, _, repair = self._read(tail_gap=False)
        repair()
        return segments

    def _read(self, tail_gap: bool) -> tuple[list, list, Callable[[], None]]:
        """Committed segments, the heights of the damaged body frames served
        as gaps, and the repair that truncates a torn final segment and
        records where the bodies are.  The repair is run once the segments
        are accepted, so a load that fails leaves the store as it found
        it.  With ``tail_gap`` a damaged body frame whose length ends the
        log is served as a gap too, else as a torn append."""
        log_path = self.root / LOG
        try:
            raw = log_path.read_bytes()
        except OSError as exc:
            raise CorruptStore(f"unreadable {LOG}: {exc}")
        view = memoryview(raw)      # frames are sliced, not copied
        committed = self._written["log_bytes"]
        segments, damaged, bodies, ends = [], [], {}, [0]
        while ends[-1] < len(raw):
            pos = ends[-1]
            frame = _framed(view, pos)
            if frame is None:
                # the torn last append, unless the mark or more of the log
                # follows
                if pos < committed:
                    raise CorruptStore(
                        f"damaged log frame {len(segments)} in the committed log")
                if not _ends_the_log(view, pos):
                    raise CorruptStore(
                        f"damaged log frame {len(segments)} has more of the log after it")
                break
            try:
                block = PermanentBlock.decode(frame)
            except MutachainError as exc:
                raise CorruptStore(f"undecodable log frame {len(segments)}: {exc}")
            end = pos + FRAME_HEAD.size + len(frame)
            x = block.height
            if block.header.interval_len == 0:
                segments.append(((), block))
                ends.append(end)
                continue
            body = _framed(view, end)
            # a prune keeps the length, so it holds in a frame it cut short
            after = end + FRAME_HEAD.size + int.from_bytes(raw[end:end + 4], "little")
            if body is None and _framed(view, after) is None \
                    and not (tail_gap and after == len(raw)):
                if end < committed:
                    raise CorruptStore(f"damaged body frame {x} in the committed log")
                if not _ends_the_log(view, end):
                    raise CorruptStore(
                        f"damaged body frame {x} has more of the log after it")
                break
            bodies[x] = (end, after - end)
            if body is None:
                damaged.append(x)
                segments.append((None, block))
            elif raw.count(0, end + FRAME_HEAD.size, after) == len(body):
                segments.append((None, block))      # erased
            else:
                reader = codec.Reader(body)
                rbs = []
                try:
                    while not reader.exhausted:
                        rbs.append(RemovableBlock.decode(reader.byte_string()))
                except MutachainError as exc:
                    raise CorruptStore(f"undecodable interval {x}: {exc}")
                segments.append((tuple(rbs), block))   # replay checks the count
            ends.append(after)
        marked = self._written["height"] + 1
        if ends[marked:marked + 1] != [committed]:
            raise CorruptStore(
                f"log does not begin with {marked} whole segments in "
                f"{committed} bytes, as the manifest committed")

        size = len(raw)     # the repair keeps no reference to the log's bytes

        def repair() -> None:
            if ends[-1] < size:
                with open(log_path, "r+b") as fh:
                    fh.truncate(ends[-1])
            self._manifest["height"] = len(segments) - 1
            self._manifest["log_bytes"] = ends[-1]
            self._bodies = bodies
            self._log_read = True
        return segments, damaged, repair

    def load_chain(self) -> Chain:
        """Replay and re-verify the store's contents: every rule, and
        every signature unless the tip marks this log.  A body frame a
        prune cut short is erased once its delete is proven.  The loaded
        tip becomes the tip the next mark names."""
        # a damaged body frame that ends the log is read first as a prune
        # cut short, which a delete must back, and else as a torn append
        for tail_gap in (True, False):
            segments, damaged, repair = self._read(tail_gap)
            tip = segments[-1][1].block_hash.hex() if segments else None
            try:
                chain = verify.replay_segments(
                    segments, self.params,
                    check_signatures=self._manifest.get("tip") != tip)
                break
            except MissingDeleteEvidence as exc:
                if damaged[-1:] != [len(segments) - 1] or exc.intervals[-1] != damaged[-1]:
                    raise
            except MutachainError as exc:
                raise CorruptStore(
                    f"stored chain does not verify: {type(exc).__name__}: {exc}")
        repair()
        for x in damaged:
            self._erase(*self._bodies[x])
        if tip is not None:
            self._manifest["tip"] = tip
        return chain

    # ------------------------------------------------------------------

    def digest(self) -> str:
        """Hex digest over the store's own files, the manifest then the
        log, each hashed with its name and length."""
        acc = b""
        for name in (MANIFEST, LOG):
            data = (self.root / name).read_bytes()
            acc = digest(acc + name.encode("utf-8") + b"\x00"
                         + len(data).to_bytes(8, "little") + data)
        return acc.hex()

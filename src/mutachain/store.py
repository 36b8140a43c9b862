"""On-disk block store built for real deletion.

Layout under the store root:

* ``permanent.log``: the spine, concatenated canonical block encodings,
  append-only.
* ``interval_<x>.blk``: interval ``x``'s removable blocks, each framed
  as a codec byte string.  Erasing the interval is unlinking this one
  file; nothing else on disk holds those bytes.  The spine header says
  how many blocks it holds; whether it exists says present or pruned.
* ``manifest.json``: format version, parameters, committed height,
  committed log length and ``tip``, the hex hash of the block at that
  height: a size that does not grow with the chain.  Its rename is the
  commit point: an append fsyncs the interval file and the log first
  and the manifest last, through a temp file and an atomic rename.  The
  root directory is fsynced after that rename and after a prune's
  unlink, so commits and erasures survive power loss.
* ``.lock``: ``flock``-ed against concurrent writers; the lock dies
  with the process that holds it.

Loading reads only the committed log prefix and sweeps leftovers of an
interrupted append (log tail, interval files above the committed
height), erasing nothing at or below it.  A missing interval file is
served as a gap; the rebuilt chain is re-verified, including delete
evidence for every gap.

The store appends only segments a ``Chain`` has accepted, so every
signature it holds was checked before it was written.  ``tip`` marks
that: when it names the last block of the committed log, ``load_chain``
skips the Ed25519 checks and runs every other rule (decode, shape,
``tx_root``, interval and prev links, p_lists, stateful rules, delete
evidence for every gap).  A txid covers its signature, so ``tx_root``
and the hash links bind every signature byte to the marked tip; a
changed byte fails the replay as before.  Without the field, or when
it names another block, the load checks every signature.  Someone who
can rewrite the log can rewrite the mark too, so it costs no trust a
node does not already place in its own disk.  Audits never trust it:
``mutachain verify`` and ``verify.verify_chain`` check every signature.

``crash_hook`` is a test seam: when set, it is called with a named
point before each mutation step and may raise to simulate a crash.
"""

from __future__ import annotations

import fcntl
import json
import os
import re
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
VERSION = 2
PARAM_FIELDS = tuple(f.name for f in fields(ChainParams))
INTERVAL_FILE = re.compile(r"interval_(0|[1-9][0-9]*)\.blk")
TIP = re.compile(r"[0-9a-f]{64}")


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
        if create:
            self._manifest = {
                "version": VERSION,
                "params": asdict(ChainParams()),
                "height": -1,
                "log_bytes": 0,
            }
            self._write_manifest()
        else:
            try:
                self._manifest = _checked_manifest(
                    json.loads((self.root / MANIFEST).read_text()))
            except (OSError, ValueError) as exc:
                self._release_lock()
                raise CorruptStore(f"unreadable manifest: {exc}")

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

    @property
    def params(self) -> ChainParams:
        p = self._manifest["params"]
        return ChainParams(**{key: p[key] for key in PARAM_FIELDS})

    @property
    def height(self) -> int:
        return self._manifest["height"]

    def set_params(self, params: ChainParams) -> None:
        self._manifest["params"] = asdict(params)
        self._write_manifest()

    # ------------------------------------------------------------------
    # mutation

    def append_segment(self, removable_blocks, block: PermanentBlock) -> None:
        """Persist one segment; the manifest flips last and marks
        ``block`` as the tip.

        Contract: append only segments a ``Chain`` accepted, signatures
        checked.  ``load_chain`` skips the Ed25519 checks up to the
        marked tip; ``verify_chain`` over ``segments()`` does not."""
        removable_blocks = tuple(removable_blocks or ())
        x = block.height
        if x != self.height + 1:
            raise CorruptStore(
                f"appending height {x} onto committed height {self.height}")
        if removable_blocks:
            # no temp file: until the manifest flips it is an orphan
            self._crash("interval-file")
            _write_synced(self._interval_path(x),
                          b"".join(codec.encode_byte_string(rb.encoded)
                                   for rb in removable_blocks), "wb")
        self._crash("log-append")
        _write_synced(self.root / LOG, block.encoded, "ab")
        self._manifest["height"] = x
        self._manifest["log_bytes"] += len(block.encoded)
        self._manifest["tip"] = block.block_hash.hex()
        self._write_manifest()

    def prune(self, x: int) -> None:
        """Physically erase interval ``x`` from disk."""
        if not 0 <= x <= self.height:
            raise CorruptStore(f"interval {x} is not in this store")
        self._crash("prune-file")
        self._interval_path(x).unlink(missing_ok=True)
        self._sync_root()

    def rebuild(self, chain: Chain) -> None:
        """Replace all block data with the given chain's contents."""
        # commit the empty store first: a crash below leaves only a log
        # tail and orphan interval files, both swept on load
        self._manifest["height"] = -1
        self._manifest["log_bytes"] = 0
        self._manifest.pop("tip", None)
        self.set_params(chain.params)
        for child in self.root.glob("interval_*"):
            child.unlink()
        (self.root / LOG).unlink(missing_ok=True)
        for x in range(chain.height + 1):
            self.append_segment(chain.interval_blocks(x), chain.block_at(x))

    # ------------------------------------------------------------------
    # loading

    def segments(self) -> list:
        """Committed segments, sweeping debris from interrupted appends."""
        log_bytes = self._manifest["log_bytes"]
        log_path = self.root / LOG
        raw = log_path.read_bytes() if log_path.exists() else b""
        if len(raw) < log_bytes:
            raise CorruptStore(
                f"log holds {len(raw)} bytes, manifest committed {log_bytes}")
        reader = codec.Reader(raw[:log_bytes])
        blocks = []
        try:
            while not reader.exhausted:
                blocks.append(PermanentBlock.decode_from(reader))
        except MutachainError as exc:
            raise CorruptStore(f"undecodable spine: {exc}")
        if len(blocks) != self.height + 1:
            raise CorruptStore(
                f"{len(blocks)} blocks in log, manifest height {self.height}")
        if len(raw) > log_bytes:
            # torn append: drop the uncommitted tail
            with open(log_path, "r+b") as fh:
                fh.truncate(log_bytes)

        bodied = {self._interval_path(b.height).name
                  for b in blocks if b.header.interval_len}
        for child in self.root.glob("interval_*"):
            m = INTERVAL_FILE.fullmatch(child.name)
            if m and int(m[1]) > self.height and child.is_file():
                child.unlink()      # orphan of a torn append
            elif not (child.name in bodied and child.is_file()):
                raise CorruptStore(f"stray {child.name} in {self.root}")

        segments = []
        for block in blocks:
            x = block.height
            if block.header.interval_len == 0:
                segments.append(((), block))
                continue
            try:
                reader = codec.Reader(self._interval_path(x).read_bytes())
            except FileNotFoundError:
                # pruned: the spine must prove the delete
                segments.append((None, block))
                continue
            rbs = []
            try:
                while not reader.exhausted:
                    rbs.append(RemovableBlock.decode(reader.byte_string()))
            except MutachainError as exc:
                raise CorruptStore(f"undecodable interval {x}: {exc}")
            segments.append((tuple(rbs), block))   # replay checks the count
        return segments

    def load_chain(self) -> Chain:
        """Replay and re-verify the store's contents: every rule, and
        every signature unless the manifest's tip marks this log."""
        segments = self.segments()
        marked = bool(segments) and \
            self._manifest.get("tip") == segments[-1][1].block_hash.hex()
        try:
            return verify.replay_segments(segments, self.params,
                                          check_signatures=not marked)
        except MissingDeleteEvidence:
            raise
        except MutachainError as exc:
            raise CorruptStore(
                f"stored chain does not verify: {type(exc).__name__}: {exc}")

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

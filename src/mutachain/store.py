"""On-disk block store built for real deletion.

Layout under the store root:

* ``permanent.log``: the spine, concatenated canonical block encodings,
  append-only.
* ``interval_<x>/<seq>.blk``: one file per removable block, so erasing
  interval ``x`` is unlinking its files; nothing else on disk holds
  those bytes.
* ``manifest.json``: parameters, committed height, committed log
  length, per-interval status.  The manifest rename is the commit
  point: every mutation writes data files first and the manifest last,
  through a temp file and an atomic rename.
* ``.lock``: ``flock``-ed against concurrent writers; the lock dies
  with the process that holds it.

Loading reads only the committed log prefix and sweeps leftovers of an
interrupted append (log tail, directories above the committed height).
An interval missing block files is served as a gap and left on disk.
The rebuilt chain is re-verified, including delete evidence for every
gap, and only then does ``prune`` erase what an interrupted prune left.

``crash_hook`` is a test seam: when set, it is called with a named
point before each mutation step and may raise to simulate a crash.
"""

from __future__ import annotations

import fcntl
import json
import os
import shutil
from pathlib import Path
from typing import Callable

from . import codec
from .blocks import PermanentBlock, RemovableBlock
from .crypto import digest
from .errors import (
    CorruptStore,
    HistoryRejected,
    MissingDeleteEvidence,
    MutachainError,
    StoreLocked,
)
from .ledger import Chain, ChainParams, IntervalStatus
from .verify import replay_verified

MANIFEST = "manifest.json"
LOG = "permanent.log"
LOCK = ".lock"
MANIFEST_FIELDS = ("params", "height", "log_bytes", "intervals")


def _interval_dir(root: Path, x: int) -> Path:
    return root / f"interval_{x}"


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
                "version": 1,
                "params": {"confirm_depth": ChainParams().confirm_depth,
                           "delete_lock": ChainParams().delete_lock},
                "height": -1,
                "log_bytes": 0,
                "intervals": {},
            }
            self._write_manifest()
        else:
            try:
                self._manifest = json.loads((self.root / MANIFEST).read_text())
                if not all(k in self._manifest for k in MANIFEST_FIELDS):
                    raise ValueError(f"fields {MANIFEST_FIELDS} expected")
            except (OSError, ValueError, TypeError) as exc:
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

    def _write_file(self, path: Path, data: bytes) -> None:
        tmp = path.with_suffix(path.suffix + ".tmp")
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)

    def _write_manifest(self) -> None:
        self._crash("manifest")
        text = json.dumps(self._manifest, sort_keys=True, indent=2) + "\n"
        self._write_file(self.root / MANIFEST, text.encode("utf-8"))

    @property
    def params(self) -> ChainParams:
        p = self._manifest["params"]
        return ChainParams(confirm_depth=p["confirm_depth"],
                           delete_lock=p["delete_lock"])

    @property
    def height(self) -> int:
        return self._manifest["height"]

    def set_params(self, params: ChainParams) -> None:
        self._manifest["params"] = {"confirm_depth": params.confirm_depth,
                                    "delete_lock": params.delete_lock}
        self._write_manifest()

    # ------------------------------------------------------------------
    # mutation

    def append_segment(self, removable_blocks, block: PermanentBlock) -> None:
        """Persist one segment; the manifest flips last."""
        removable_blocks = tuple(removable_blocks or ())
        x = block.height
        if x != self.height + 1:
            raise CorruptStore(
                f"appending height {x} onto committed height {self.height}")
        if removable_blocks:
            d = _interval_dir(self.root, x)
            d.mkdir(exist_ok=True)
            for rb in removable_blocks:
                self._crash("interval-file")
                self._write_file(d / f"{rb.seq}.blk", rb.encoded)
        self._crash("log-append")
        with open(self.root / LOG, "ab") as fh:
            fh.write(block.encoded)
            fh.flush()
            os.fsync(fh.fileno())
        self._manifest["height"] = x
        self._manifest["log_bytes"] += len(block.encoded)
        self._manifest["intervals"][str(x)] = {
            "status": "present", "blocks": block.header.interval_len}
        self._write_manifest()

    def prune(self, x: int) -> None:
        """Physically erase interval ``x`` from disk."""
        entry = self._manifest["intervals"].get(str(x))
        if entry is None:
            raise CorruptStore(f"interval {x} is not in this store")
        d = _interval_dir(self.root, x)
        if d.exists():
            for blk in sorted(d.iterdir()):
                self._crash("prune-file")
                blk.unlink()
            d.rmdir()
        entry["status"] = "deleted"
        self._write_manifest()

    def rebuild(self, chain: Chain) -> None:
        """Replace all block data with the given chain's contents."""
        for child in self.root.iterdir():
            if child.name.startswith("interval_"):
                shutil.rmtree(child)
        (self.root / LOG).unlink(missing_ok=True)
        self._manifest["height"] = -1
        self._manifest["log_bytes"] = 0
        self._manifest["intervals"] = {}
        self.set_params(chain.params)
        for x in range(chain.height + 1):
            rec = chain.interval_record(x)
            self.append_segment(rec.blocks, chain.block_at(x))
            if rec.status is IntervalStatus.DELETED:
                self._manifest["intervals"][str(x)]["status"] = "deleted"
        self._write_manifest()

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
        if len(raw) > log_bytes:
            # torn append: drop the uncommitted tail
            with open(log_path, "r+b") as fh:
                fh.truncate(log_bytes)
            raw = raw[:log_bytes]
        reader = codec.Reader(raw)
        blocks = []
        try:
            while not reader.exhausted:
                blocks.append(PermanentBlock.decode_from(reader))
        except MutachainError as exc:
            raise CorruptStore(f"undecodable spine: {exc}")
        if len(blocks) != self.height + 1:
            raise CorruptStore(
                f"{len(blocks)} blocks in log, manifest height {self.height}")

        known = self._manifest["intervals"]
        for child in sorted(self.root.iterdir()):
            if not child.name.startswith("interval_"):
                continue
            if child.name.split("_", 1)[1] not in known:
                # orphan of a torn append above the committed height
                shutil.rmtree(child)

        segments = []
        for block in blocks:
            x = block.height
            entry = known.get(str(x))
            if entry is None:
                raise CorruptStore(f"no manifest entry for interval {x}")
            n = block.header.interval_len
            if n == 0:
                segments.append(((), block))
                continue
            d = _interval_dir(self.root, x)
            names = [f"{seq}.blk" for seq in range(1, n + 1)]
            on_disk = {f.name for f in d.glob("*.blk")}
            if on_disk - set(names):
                raise CorruptStore(
                    f"interval {x} holds stray files {sorted(on_disk - set(names))}")
            if entry["status"] == "deleted" or len(on_disk) != n:
                # a gap: pruned, or cut short by an interrupted prune,
                # which the spine must prove
                segments.append((None, block))
                continue
            try:
                rbs = tuple(RemovableBlock.decode((d / name).read_bytes())
                            for name in names)
            except MutachainError as exc:
                raise CorruptStore(f"undecodable interval {x}: {exc}")
            segments.append((rbs, block))
        return segments

    def load_chain(self) -> Chain:
        """Replay and fully re-verify the store's contents, then finish
        any prune a crash interrupted."""
        segments = self.segments()
        try:
            chain = replay_verified(segments, self.params)
        except HistoryRejected as exc:
            if isinstance(exc.cause, MissingDeleteEvidence):
                raise exc.cause
            raise CorruptStore(f"stored chain does not verify: {exc}")
        for rbs, block in segments:
            x = block.height
            if rbs is None and (self._manifest["intervals"][str(x)]["status"] != "deleted"
                                or _interval_dir(self.root, x).exists()):
                self.prune(x)
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

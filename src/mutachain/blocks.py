"""Block structures: the permanent spine and the removable intervals.

A permanent block at height ``i`` closes interval ``I_i``, the run of
removable blocks mined since the previous permanent block.  Its header
carries two links: ``prev_permanent`` points at block ``i - 1`` and
``prev_removable`` points at the last removable block of ``I_i`` (the
null hash when the interval is empty).  Removable block ``j`` of
interval ``i`` links to removable block ``j - 1``, except the first,
which links to permanent block ``i - 1``.  Dropping a whole interval
therefore severs nothing: the spine never references the interval's
interior, only its final block, and that reference is preserved in the
permanent header.

Permanent header wire layout:

==============  ==========================================
field           width
==============  ==========================================
height          u32
prev_permanent  32
prev_removable  32
interval_len    u8
p_list          u8 count + 32 per key (sorted, max 4)
tx_root         32
==============  ==========================================

Removable header wire layout: interval u32, seq u8 (1-based),
prev 32, tx_root 32.

Relative to a plain single-link header, the permanent header adds the
second link and the interval length (33 bytes) plus the p_list when the
interval carried transactions; ``header_overhead`` itemizes this.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import codec
from .crypto import HASH_SIZE, NULL_HASH, PUBKEY_SIZE, digest
from .errors import BlockShapeError, PListOverflow
from .tx import SHAPES, Transaction

MAX_P_LIST = 4


def compute_tx_root(txs: tuple[Transaction, ...] | list[Transaction]) -> bytes:
    """Digest over the concatenated transaction ids, in block order."""
    return digest(b"".join(tx.txid for tx in txs))


def compute_p_list(interval_txs) -> tuple[bytes, ...]:
    """Sorted, deduplicated signer keys of an interval's transactions.

    Raises ``PListOverflow`` past ``MAX_P_LIST`` distinct signers.
    """
    keys = sorted({tx.signer for tx in interval_txs})
    if len(keys) > MAX_P_LIST:
        raise PListOverflow(
            f"{len(keys)} distinct interval signers, limit {MAX_P_LIST}")
    return tuple(keys)


class _Header(codec.Encoded):
    @cached_property
    def block_hash(self) -> bytes:
        return digest(self.encoded)


@dataclass(frozen=True)
class PermanentHeader(_Header):
    height: int
    prev_permanent: bytes
    prev_removable: bytes
    interval_len: int
    p_list: tuple[bytes, ...]
    tx_root: bytes

    def encode_into(self, w: codec.Writer) -> None:
        w.u32(self.height)
        w.fixed(self.prev_permanent, HASH_SIZE)
        w.fixed(self.prev_removable, HASH_SIZE)
        w.u8(self.interval_len)
        w.short_count(len(self.p_list))
        for key in self.p_list:
            w.fixed(key, PUBKEY_SIZE)
        w.fixed(self.tx_root, HASH_SIZE)

    @classmethod
    def decode_from(cls, r: codec.Reader) -> "PermanentHeader":
        start = r.pos
        height = r.u32()
        prev_permanent = r.fixed(HASH_SIZE)
        prev_removable = r.fixed(HASH_SIZE)
        interval_len = r.u8()
        p_list = tuple(r.fixed(PUBKEY_SIZE) for _ in range(r.short_count()))
        tx_root = r.fixed(HASH_SIZE)
        return codec.keep_encoded(
            cls(height, prev_permanent, prev_removable, interval_len, p_list, tx_root),
            r.since(start))


@dataclass(frozen=True)
class RemovableHeader(_Header):
    interval: int
    seq: int
    prev: bytes
    tx_root: bytes

    def encode_into(self, w: codec.Writer) -> None:
        w.u32(self.interval)
        w.u8(self.seq)
        w.fixed(self.prev, HASH_SIZE)
        w.fixed(self.tx_root, HASH_SIZE)

    @classmethod
    def decode_from(cls, r: codec.Reader) -> "RemovableHeader":
        start = r.pos
        header = cls(interval=r.u32(), seq=r.u8(),
                     prev=r.fixed(HASH_SIZE), tx_root=r.fixed(HASH_SIZE))
        return codec.keep_encoded(header, r.since(start))


class _Block(codec.Encoded):
    """A header, then the body: a u16 count and each transaction."""

    @property
    def block_hash(self) -> bytes:
        return self.header.block_hash

    def encode_into(self, w: codec.Writer) -> None:
        self.header.encode_into(w)
        w.count(len(self.txs))
        for tx in self.txs:
            w.fixed(tx.encoded, len(tx.encoded))

    @staticmethod
    def _body_from(r: codec.Reader) -> tuple[Transaction, ...]:
        return tuple(Transaction.decode_from(r) for _ in range(r.count()))


@dataclass(frozen=True)
class PermanentBlock(_Block):
    header: PermanentHeader
    txs: tuple[Transaction, ...]

    @property
    def height(self) -> int:
        return self.header.height

    @classmethod
    def decode_from(cls, r: codec.Reader) -> "PermanentBlock":
        return cls(PermanentHeader.decode_from(r), cls._body_from(r))

    decode = classmethod(codec.decode_whole)


@dataclass(frozen=True)
class RemovableBlock(_Block):
    header: RemovableHeader
    txs: tuple[Transaction, ...]

    @property
    def interval(self) -> int:
        return self.header.interval

    @property
    def seq(self) -> int:
        return self.header.seq

    @classmethod
    def decode_from(cls, r: codec.Reader) -> "RemovableBlock":
        return cls(RemovableHeader.decode_from(r), cls._body_from(r))

    decode = classmethod(codec.decode_whole)


def build_removable_block(interval: int, seq: int, prev: bytes,
                          txs) -> RemovableBlock:
    txs = tuple(txs)
    header = RemovableHeader(interval=interval, seq=seq, prev=prev,
                             tx_root=compute_tx_root(txs))
    return RemovableBlock(header, txs)


def build_permanent_block(height: int, prev_permanent: bytes,
                          prev_removable: bytes, interval_len: int,
                          p_list, txs) -> PermanentBlock:
    txs = tuple(txs)
    header = PermanentHeader(height=height, prev_permanent=prev_permanent,
                             prev_removable=prev_removable,
                             interval_len=interval_len,
                             p_list=tuple(p_list),
                             tx_root=compute_tx_root(txs))
    return PermanentBlock(header, txs)


def check_permanent_shape(block: PermanentBlock) -> None:
    """Structural checks with no chain context.

    Transactions must be permanent kinds, the p_list sorted and unique
    within its size bound, the tx root consistent, and an empty interval
    must carry a null removable link (a non-empty one, a real link).
    """
    h = block.header
    for tx in block.txs:
        if not SHAPES[tx.kind].permanent:
            raise BlockShapeError(
                f"{tx.kind.name} transaction in a permanent block")
    if len(h.p_list) > MAX_P_LIST:
        raise PListOverflow(f"p_list has {len(h.p_list)} keys")
    if list(h.p_list) != sorted(set(h.p_list)):
        raise BlockShapeError("p_list not sorted and unique")
    if h.tx_root != compute_tx_root(block.txs):
        raise BlockShapeError("tx_root does not match block body")
    if h.interval_len == 0:
        if h.prev_removable != NULL_HASH:
            raise BlockShapeError("empty interval with a removable link")
        if h.p_list:
            raise BlockShapeError("empty interval with a nonempty p_list")
    elif h.prev_removable == NULL_HASH:
        raise BlockShapeError("nonempty interval with a null removable link")


def check_removable_shape(block: RemovableBlock) -> None:
    h = block.header
    if h.seq < 1:
        raise BlockShapeError("removable seq is 1-based")
    for tx in block.txs:
        if SHAPES[tx.kind].permanent:
            raise BlockShapeError(
                f"{tx.kind.name} transaction in a removable block")
    if h.tx_root != compute_tx_root(block.txs):
        raise BlockShapeError("tx_root does not match block body")


def header_overhead(p_list_size: int = 0) -> dict[str, int]:
    """Byte cost of the permanent header beyond a single-link design.

    The second link and the interval length are always present; the
    p_list costs its count byte plus 32 per key only when the interval
    had signers at all.
    """
    if not 0 <= p_list_size <= MAX_P_LIST:
        raise ValueError(f"p_list_size out of range: {p_list_size}")
    p_cost = (1 + PUBKEY_SIZE * p_list_size) if p_list_size else 0
    return {
        "second_link": HASH_SIZE,
        "interval_len": 1,
        "p_list": p_cost,
        "total": HASH_SIZE + 1 + p_cost,
    }

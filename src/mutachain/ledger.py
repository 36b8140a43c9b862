"""Chain state: block admission, deletion authorization, pruning.

``Chain`` holds the permanent spine plus one record per closed
interval.  Blocks arrive as segments: the removable blocks of interval
``I_k`` followed by the permanent block at height ``k`` that closes it.
A segment is applied inside ``stage()``, which journals every write
and undoes them unless the whole segment passed, so a rejected block
leaves no partial state behind; mempool trials stage and never commit.
Stages nest, so a sync can extend the chain by a whole run of segments
all or nothing.

Within a segment the interval's transactions are indexed before the
permanent body is applied.  A prepare in ``B_k`` may therefore name
``I_k`` itself, and a delete may chase a prepare confirmed earlier in
the same body.

Deletion of interval ``I_x`` is authorized two ways:

* fast path: the delete has no input and the interval's p_list is
  exactly the delete's signer, so nobody else's data is at stake;
* restricted path: the delete spends the output of a confirmed prepare
  for ``x`` by the same signer, and every removable transaction in
  ``I_x`` signed by someone else already has a byte-identical duplicate
  confirmed in another live interval.  ``DeleteRecord.prepare`` names
  that prepare; the delete itself keeps any prepare for ``x`` unspendable.

A replayed history may lack interval bodies (gaps).  Only headers
survive pruning, so a gap ``j != x`` whose delete has not confirmed
yet counts as a copy of ``I_x``'s data for each signer in its p_list;
if ``I_x`` is a gap, any undeleted ``j != x`` naming the signer counts.
A live chain's gaps all carry their deletes, so it excuses nothing.

A confirmed delete does not remove anything by itself.  ``prune`` drops
interval bodies once the delete is ``confirm_depth`` blocks deep and at
least ``delete_lock`` blocks younger than the interval it targets;
the interval's status flips to Deleted at that moment.  A transaction
that a pruned interval held and no unpruned one still holds is erased;
an input naming it fails as ``RemovableTxDependsOnDeletedState``.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace
from enum import Enum

from . import consent
from .blocks import (
    PermanentBlock,
    RemovableBlock,
    build_permanent_block,
    check_permanent_shape,
    check_removable_shape,
    compute_p_list,
)
from .crypto import NULL_HASH, KeyPair
from .errors import (
    BlockShapeError,
    BrokenIntervalChain,
    DuplicateRegistration,
    IntervalAlreadyDeleted,
    IntervalLenMismatch,
    InvalidDelete,
    InvalidParams,
    LedgerError,
    MissingDuplicates,
    NotEligible,
    NotSoleOwnerAndNoPrepare,
    PListMismatch,
    PrepareSignerMismatch,
    RemovableTxDependsOnDeletedState,
    UnknownInterval,
    UnknownParent,
    UnknownRegisterRef,
)
from .tx import (
    OutPoint,
    Transaction,
    TxKind,
    build_consent,
    build_delete,
    build_info,
    build_prepare,
    build_register,
    build_removable,
    validate_stateless,
)


@dataclass(frozen=True)
class ChainParams:
    confirm_depth: int = 2   # blocks a delete must age before pruning
    delete_lock: int = 1     # minimum height gap delete - interval

    def __post_init__(self):
        for key, value in vars(self).items():
            if type(value) is not int or value < 0:
                raise InvalidParams(f"{key} {value!r} is not an int >= 0")


class IntervalStatus(Enum):
    PRESENT = "present"
    DELETED = "deleted"


@dataclass(frozen=True)
class IntervalRecord:
    length: int                    # removable block count, from the header
    p_list: tuple[bytes, ...]
    blocks: tuple[RemovableBlock, ...] | None   # None once pruned or absent
    txids: frozenset               # removable txids; kept once pruned, empty for a gap

    @property
    def status(self) -> IntervalStatus:
        return IntervalStatus.DELETED if self.blocks is None else IntervalStatus.PRESENT


@dataclass(frozen=True)
class PrepareRecord:
    txid: bytes
    signer: bytes
    interval: int
    height: int


@dataclass(frozen=True)
class DeleteRecord:
    txid: bytes
    signer: bytes
    interval: int
    height: int
    prepare: bytes | None          # txid of the prepare it spent; None on the fast path


class Chain:
    """Validated view of one chain, from genesis to the current tip."""

    def __init__(self, params: ChainParams | None = None):
        self.params = params or ChainParams()
        self._blocks: dict[int, PermanentBlock] = {}
        self._intervals: dict[int, IntervalRecord] = {}
        self._registrations: dict[bytes, bytes] = {}     # pubkey -> register txid
        self._infos: dict[bytes, consent.InfoRecord] = {}
        self._consents: dict[tuple[bytes, bytes], consent.ConsentChain] = {}
        self._prepares: dict[bytes, PrepareRecord] = {}  # prepare txid -> record
        self._deletes: dict[int, DeleteRecord] = {}      # interval -> record, with its prepare
        self._dup_index: dict[bytes, frozenset[int]] = {}  # removable txid -> unpruned intervals
        self._permanent_txids: dict[bytes, int] = {}     # txid -> height confirmed
        self._journal: list | None = None                # undo entries of the innermost stage
        self._enclosing: list = []                       # journals of the stages around it

    # ------------------------------------------------------------------
    # construction

    @classmethod
    def bootstrap(cls, genesis_txs=(), params: ChainParams | None = None) -> "Chain":
        chain = cls(params)
        genesis = build_permanent_block(
            height=0, prev_permanent=NULL_HASH, prev_removable=NULL_HASH,
            interval_len=0, p_list=(), txs=tuple(genesis_txs))
        chain.append_segment((), genesis)
        return chain

    def copy(self) -> "Chain":
        other = Chain(self.params)
        for name, table in vars(self).items():
            if isinstance(table, dict):
                setattr(other, name, dict(table))
        return other

    # ------------------------------------------------------------------
    # staging

    @contextmanager
    def stage(self):
        """Apply changes to the live state; on exit undo them all unless
        ``commit()`` was called inside.  Stages nest: an inner commit
        hands its writes to the enclosing stage, which may still undo
        them, and an inner stage left uncommitted undoes only its own."""
        mine = []
        self._enclosing.append(self._journal)
        self._journal = mine
        try:
            yield
        finally:
            outer = self._enclosing.pop()
            if self._journal is mine:
                self._journal = None
                for entry in reversed(mine):
                    self._write(*entry)
            self._journal = outer

    def commit(self) -> None:
        """Keep everything written in the innermost open stage, for as
        long as the stages around it keep it.  Call it once per stage."""
        outer = self._enclosing[-1]
        if outer is not None:
            outer.extend(self._journal)
        self._journal = outer

    def _write(self, table: dict, key, value=None) -> None:
        """Set ``table[key]``, or delete it when ``value`` is None.  All
        state changes go through here and no table holds None or a
        mutable value, so a stage need only journal the old value."""
        if self._journal is not None:
            self._journal.append((table, key, table.get(key)))
        if value is None:
            table.pop(key, None)
        else:
            table[key] = value

    # ------------------------------------------------------------------
    # tip accessors

    @property
    def height(self) -> int:
        return len(self._blocks) - 1

    @property
    def tip_hash(self) -> bytes:
        return self._blocks[self.height].block_hash if self._blocks else NULL_HASH

    def block_at(self, height: int) -> PermanentBlock:
        if height not in self._blocks:
            raise UnknownParent(f"no permanent block at height {height}")
        return self._blocks[height]

    # ------------------------------------------------------------------
    # segment admission

    def append_segment(self, removable_blocks, block: PermanentBlock, *,
                       check_signatures: bool = True) -> None:
        """Validate and commit interval blocks plus their closing block.
        ``check_signatures=False`` keeps every rule but the Ed25519 check."""
        with self.stage():
            self._apply_segment(tuple(removable_blocks), block, check_signatures)
            self.commit()

    def append_gap_segment(self, block: PermanentBlock, *,
                           check_signatures: bool = True) -> None:
        """Commit a permanent block whose interval body is unavailable;
        ``verify.replay_segments`` settles whether a delete excuses it."""
        with self.stage():
            self._apply_segment(None, block, check_signatures)
            self.commit()

    def _apply_segment(self, removable_blocks, block: PermanentBlock,
                       check_signatures: bool) -> None:
        height = len(self._blocks)
        h = block.header
        if h.height != height:
            raise UnknownParent(
                f"block height {h.height} does not extend tip {height - 1}")
        expected_prev = self.tip_hash
        if h.prev_permanent != expected_prev:
            raise UnknownParent("prev link does not match the tip hash")
        check_permanent_shape(block)

        if removable_blocks is not None:
            if len(removable_blocks) != h.interval_len:
                raise IntervalLenMismatch(
                    f"{len(removable_blocks)} interval blocks, header says {h.interval_len}")
            if height == 0 and removable_blocks:
                raise BlockShapeError("genesis closes an empty interval")
            anchor = expected_prev
            for seq, rb in enumerate(removable_blocks, start=1):
                check_removable_shape(rb)
                if rb.interval != height:
                    raise BrokenIntervalChain(
                        f"block tagged interval {rb.interval} inside interval {height}")
                if rb.seq != seq:
                    raise BrokenIntervalChain(
                        f"seq {rb.seq} where {seq} was expected")
                if rb.header.prev != anchor:
                    raise BrokenIntervalChain(f"link broken at seq {seq}")
                anchor = rb.block_hash
            if removable_blocks and h.prev_removable != anchor:
                raise BrokenIntervalChain(
                    "header does not link the interval's last block")
            interval_txs = [tx for rb in removable_blocks for tx in rb.txs]
            if compute_p_list(interval_txs) != h.p_list:
                raise PListMismatch(
                    "header p_list does not match the interval's signers")
            for tx in interval_txs:
                validate_stateless(tx, check_signatures=check_signatures)
            for tx in interval_txs:
                self.apply_removable(tx, height)
        self.close_interval(height, h.interval_len, h.p_list, removable_blocks)

        for tx in block.txs:
            validate_stateless(tx, check_signatures=check_signatures)
        for tx in block.txs:
            self.apply_body_tx(tx, height)
        self._write(self._blocks, height, block)

    def close_interval(self, height: int, length: int, p_list: tuple[bytes, ...],
                       blocks: tuple[RemovableBlock, ...] | None) -> None:
        """Record interval ``height`` as closed, so body rules can name
        it; ``blocks`` None records an absent interval."""
        self._write(self._intervals, height, IntervalRecord(
            length=length, p_list=p_list, blocks=blocks,
            txids=frozenset(tx.txid for rb in blocks or () for tx in rb.txs)))

    # ------------------------------------------------------------------
    # transaction rules

    def _register_outpoint(self, signer: bytes) -> OutPoint:
        reg_txid = self._registrations.get(signer)
        if reg_txid is None:
            raise UnknownRegisterRef("signer is not registered")
        return OutPoint(reg_txid, 0)

    def _check_register_input(self, tx: Transaction) -> None:
        expected = self._register_outpoint(tx.signer)
        got = tx.inputs[0]
        if got != expected:
            # erased: a pruned interval held it and no unpruned copy is left
            if got.txid not in self._dup_index and any(
                    got.txid in rec.txids for rec in self._intervals.values()
                    if rec.blocks is None):
                raise RemovableTxDependsOnDeletedState(
                    f"input {got.txid.hex()[:12]} was erased with its interval")
            raise UnknownRegisterRef(
                f"input {got.txid.hex()[:12]}:{got.index} is not the signer's register output")

    def apply_removable(self, tx: Transaction, height: int) -> None:
        """Admit a removable transaction into interval ``height``."""
        self._check_register_input(tx)
        self._write(self._dup_index, tx.txid,
                    self._dup_index.get(tx.txid, frozenset()) | {height})

    def apply_body_tx(self, tx: Transaction, height: int) -> None:
        """Admit a permanent-body transaction confirmed at ``height``."""
        # kind rules first: deterministic signing makes a rebuilt
        # transaction byte-identical, so the replay guard alone would
        # shadow the specific duplicate-register / already-deleted errors
        if tx.kind is TxKind.REGISTER:
            if tx.signer in self._registrations:
                raise DuplicateRegistration(
                    f"key {tx.signer.hex()[:12]} is already registered")
        elif tx.kind is TxKind.PREPARE:
            self._validate_prepare(tx)
            self._write(self._prepares, tx.txid, PrepareRecord(
                txid=tx.txid, signer=tx.signer,
                interval=tx.payload.interval, height=height))
        elif tx.kind is TxKind.DELETE:
            self._write(self._deletes, tx.payload.interval, DeleteRecord(
                txid=tx.txid, signer=tx.signer, interval=tx.payload.interval,
                height=height, prepare=self._validate_delete(tx)))
        elif tx.kind is TxKind.INFO:
            self._check_register_input(tx)
            self._write(self._infos, tx.txid, consent.make_info_record(tx))
        elif tx.kind is TxKind.CONSENT:
            reg = self._register_outpoint(tx.signer)
            updated = consent.apply_consent(tx, height, infos=self._infos,
                                            chains=self._consents, register_outpoint=reg)
            self._write(self._consents, (updated.subject, updated.info), updated)
        if tx.txid in self._permanent_txids:
            raise LedgerError(
                f"transaction {tx.txid.hex()[:12]} already confirmed")
        if tx.kind is TxKind.REGISTER:
            self._write(self._registrations, tx.signer, tx.txid)
        self._write(self._permanent_txids, tx.txid, height)

    def _interval_for_removal(self, x: int) -> IntervalRecord:
        rec = self._intervals.get(x)
        if rec is None:
            raise UnknownInterval(f"interval {x} is not closed yet")
        if rec.length == 0:
            raise UnknownInterval(f"interval {x} is empty")
        # judged by the delete evidence seen so far, not by the record's
        # status: a replayed gap interval is absent from the start, yet
        # prepares and the delete itself confirmed while it was live
        if x in self._deletes:
            raise IntervalAlreadyDeleted(f"interval {x} already has a delete")
        return rec

    def _validate_prepare(self, tx: Transaction) -> None:
        self._check_register_input(tx)
        rec = self._interval_for_removal(tx.payload.interval)
        if tx.signer not in rec.p_list:
            raise NotEligible(
                f"signer is not in the p_list of interval {tx.payload.interval}")

    def _validate_delete(self, tx: Transaction) -> bytes | None:
        """Check authorization; return the spent prepare txid, if any."""
        if tx.signer not in self._registrations:
            raise UnknownRegisterRef("delete signer is not registered")
        x = tx.payload.interval
        rec = self._interval_for_removal(x)
        if not tx.inputs:
            if rec.p_list != (tx.signer,):
                raise NotSoleOwnerAndNoPrepare(
                    f"interval {x} has other signers and no prepare is referenced")
            return None
        op = tx.inputs[0]
        prep = self._prepares.get(op.txid)
        if prep is None or op.index != 0:
            raise NotSoleOwnerAndNoPrepare(
                "input does not reference a confirmed prepare output")
        if prep.interval != x:
            raise InvalidDelete(
                f"prepare names interval {prep.interval}, delete names {x}")
        if prep.signer != tx.signer:
            raise PrepareSignerMismatch(
                "prepare and delete are signed by different keys")
        self._check_duplicates(x, exclude=tx.signer)
        return op.txid

    def _uncopied(self, x: int, exclude: bytes) -> list[Transaction]:
        """Transactions of ``I_x`` not signed by ``exclude`` that no other
        undeleted interval holds, each once; none if the body is absent."""
        rec = self._intervals.get(x)
        if rec is None or rec.blocks is None:
            return []
        out = {}
        for rb in rec.blocks:
            for tx in rb.txs:
                if tx.signer != exclude and not any(
                        j != x and j not in self._deletes
                        for j in self._dup_index.get(tx.txid, ())):
                    out[tx.txid] = tx
        return list(out.values())

    def _check_duplicates(self, x: int, exclude: bytes) -> None:
        """Raise ``MissingDuplicates`` unless every signer of ``I_x`` but
        ``exclude`` keeps a copy of its data outside ``I_x``, judging gaps
        by their headers alone (see the module docstring)."""
        rec = self._intervals[x]
        missing = self._uncopied(x, exclude)
        uncovered = set(rec.p_list) - {exclude} if rec.blocks is None \
            else {tx.signer for tx in missing}
        for j, other in reversed(self._intervals.items()):
            if not uncovered:
                return
            if j != x and j not in self._deletes \
                    and (other.blocks is None or rec.blocks is None):
                uncovered -= set(other.p_list)
        if uncovered:
            raise MissingDuplicates(
                [tx.txid for tx in missing if tx.signer in uncovered],
                sorted(uncovered))

    # ------------------------------------------------------------------
    # pruning

    def prune_eligible(self) -> list[int]:
        """Intervals whose confirmed delete has aged past both bounds."""
        return sorted(x for x, rec in self._deletes.items()
                      if self._intervals[x].blocks is not None
                      and self.height - rec.height >= self.params.confirm_depth
                      and rec.height - x >= self.params.delete_lock)

    def prune(self) -> list[int]:
        """Drop every eligible interval body; return the heights dropped."""
        dropped = self.prune_eligible()
        for x in dropped:
            rec = self._intervals[x]
            for txid in rec.txids:
                self._write(self._dup_index, txid, self._dup_index[txid] - {x} or None)
            self._write(self._intervals, x, replace(rec, blocks=None))
        return dropped

    # ------------------------------------------------------------------
    # queries

    def interval_record(self, x: int) -> IntervalRecord:
        rec = self._intervals.get(x)
        if rec is None:
            raise UnknownInterval(f"interval {x} is not closed yet")
        return rec

    def interval_status(self, x: int) -> IntervalStatus:
        return self.interval_record(x).status

    def interval_blocks(self, x: int) -> tuple[RemovableBlock, ...] | None:
        return self.interval_record(x).blocks

    def interval_txs(self, x: int) -> tuple[Transaction, ...]:
        blocks = self.interval_blocks(x)
        if blocks is None:
            return ()
        return tuple(tx for rb in blocks for tx in rb.txs)

    def reinclusion_candidates(self, prepare: Transaction) -> list[Transaction]:
        """Other signers' transactions of the prepared interval that still
        lack a live duplicate elsewhere, ready for re-broadcast."""
        return self._uncopied(prepare.payload.interval, prepare.signer)

    def registered(self, pubkey: bytes) -> bool:
        return pubkey in self._registrations

    def register_outpoint(self, pubkey: bytes) -> OutPoint | None:
        txid = self._registrations.get(pubkey)
        return OutPoint(txid, 0) if txid is not None else None

    def sign(self, kind: TxKind, key: KeyPair, *, data: bytes = b"", interval: int = 0,
             controller: bytes = b"", purposes: tuple[str, ...] = (),
             info: bytes = NULL_HASH, value: int = 0) -> Transaction:
        """A new ``kind`` transaction signed by ``key``, spending nothing if
        a register, a delete its unspent prepare for ``interval`` (none:
        fast path), a consent its live chain's output under ``info``, else
        the register output (``UnknownRegisterRef`` if there is none)."""
        if kind is TxKind.REGISTER:
            return build_register(key)
        if kind is TxKind.DELETE:
            preps = self.prepares_for(key.pubkey, interval)
            return build_delete(key, interval, OutPoint(preps[0].txid, 0) if preps else None)
        open_chain = self._consents.get((key.pubkey, info)) if kind is TxKind.CONSENT else None
        ref = open_chain.outpoint if open_chain is not None and open_chain.live \
            else self._register_outpoint(key.pubkey)
        if kind is TxKind.REMOVABLE:
            return build_removable(key, ref, data)
        if kind is TxKind.PREPARE:
            return build_prepare(key, ref, interval)
        if kind is TxKind.INFO:
            return build_info(key, ref, controller, purposes)
        return build_consent(key, ref, OutPoint(info, 0), value)

    def info_record(self, txid: bytes) -> consent.InfoRecord | None:
        return self._infos.get(txid)

    def consent_chain(self, subject: bytes, info: bytes) -> consent.ConsentChain | None:
        return self._consents.get((subject, info))

    def consent_grant(self, subject: bytes, info: bytes) -> int:
        chain = self._consents.get((subject, info))
        return chain.value if chain is not None else 0   # 0 once closed, too

    def prepare_record(self, txid: bytes) -> PrepareRecord | None:
        return self._prepares.get(txid)

    def prepares_for(self, signer: bytes, interval: int) -> list[PrepareRecord]:
        """The signer's prepares for ``interval``; none once it has a delete."""
        if interval in self._deletes:
            return []
        return [p for p in self._prepares.values()
                if p.signer == signer and p.interval == interval]

    def delete_record(self, x: int) -> DeleteRecord | None:
        return self._deletes.get(x)

    def delete_records(self) -> dict[int, DeleteRecord]:
        return dict(self._deletes)

    def tx_confirmed(self, txid: bytes) -> bool:
        """Confirmed and still live somewhere (permanent, or a live copy)."""
        if txid in self._permanent_txids:
            return True
        return any(j not in self._deletes for j in self._dup_index.get(txid, ()))

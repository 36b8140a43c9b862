"""Chain state: block admission, deletion authorization, pruning, consent chains.

``Chain`` holds the permanent spine plus one record per closed
interval.  Blocks arrive as segments: the removable blocks of interval
``I_k`` followed by the permanent block at height ``k`` that closes it.
A segment is applied inside ``stage()``, which journals every write
and undoes them all if the block raises, so a rejected block leaves no
partial state behind; mempool trials run in ``trial()``, which undoes
on any exit.  A chain keeps one journal: a stage opened inside another
joins it, so a sync can extend the chain by a whole run of segments all
or nothing.

Within a segment each interval transaction passes ``check_removable``,
the one read-only register-input rule, and then ``close_interval``
records the interval and indexes its txids as copies, all before the
permanent body is applied.  A prepare in ``B_k`` may therefore name
``I_k`` itself, and a delete may chase a prepare confirmed earlier in
the same body.  The duplicate index has one adder, ``close_interval``,
and one remover, ``prune``.

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
an interval's body once the delete is ``confirm_depth`` blocks deep and
the interval is at least ``delete_lock`` blocks old, both counted from
the tip, so every confirmed delete erases in time; the interval's
status flips to Deleted at that moment.  ``prune`` reads only a table
of the deleted intervals that still hold their bodies, which on a chain
pruned after each append holds the deletes of the last
``max(confirm_depth, delete_lock)`` blocks at most, so its cost does not
grow with height.  A transaction that a pruned interval held and no
unpruned one still holds is erased: the duplicate index keeps its txid
with no interval, so an input naming it fails as
``RemovableTxDependsOnDeletedState`` after one lookup.

Consent records sit on the spine, so they outlive any deletion.  An
info publishes a controller and an ordered list of purpose labels; bit
``k`` of a consent value (lowest bit first) grants the purpose at
position ``k``, so an info with purposes ``("analytics", "ads")``
accepts values 0 through 3 and value 1 grants analytics only.  Each
subject runs at most one live consent chain per info.  The chain starts
from the subject's reusable register output, every later consent spends
the previous consent output, and value 0 revokes: a revoking consent
produces no spendable output, closing the chain.  A new chain for the
same subject and info may start from the register output again only
after such a close.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

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
    ConsentInputSpent,
    ConsentValueOutOfRange,
    DuplicateConsentChain,
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
    UnknownInfo,
    UnknownInterval,
    UnknownParent,
    UnknownRegisterRef,
)
from .tx import (
    InfoPayload,
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
    delete_lock: int = 1     # blocks an interval must age before pruning

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
class DeleteRecord:
    txid: bytes
    signer: bytes
    interval: int
    height: int
    prepare: bytes | None          # txid of the prepare it spent; None on the fast path


@dataclass(frozen=True)
class ConsentEvent:
    txid: bytes
    value: int
    height: int


@dataclass(frozen=True)
class ConsentChain:
    """State of one subject's chain under one info.  ``outpoint`` is the
    spendable consent output, or None once value 0 closed the chain."""

    outpoint: OutPoint | None
    value: int
    history: tuple[ConsentEvent, ...]

    @property
    def live(self) -> bool:
        return self.outpoint is not None


def mask_for_labels(info: InfoPayload, labels) -> int:
    """Bitmask granting exactly the named purposes."""
    mask = 0
    for label in labels:
        mask |= 1 << info.purposes.index(label)
    return mask


def labels_for_mask(info: InfoPayload, value: int) -> tuple[str, ...]:
    """Purpose labels granted by ``value``, in schema order."""
    if value >> len(info.purposes):
        raise ConsentValueOutOfRange(
            f"value {value} exceeds {len(info.purposes)} purposes")
    return tuple(label for k, label in enumerate(info.purposes)
                 if value >> k & 1)


class _Stage:
    """The context manager ``Chain.stage`` and ``Chain.trial`` return."""

    __slots__ = ("chain", "trial", "opened")

    def __init__(self, chain: Chain, trial: bool):
        self.chain, self.trial = chain, trial

    def __enter__(self) -> None:
        chain = self.chain
        self.opened = chain._journal is None
        if self.opened:
            chain._journal = []
        elif self.trial:
            raise LedgerError("a trial cannot open inside a stage")

    def __exit__(self, failed, *exc) -> None:
        chain = self.chain
        if self.opened:
            journal, chain._journal = chain._journal, None
            if failed or self.trial:
                for entry in reversed(journal):
                    chain._write(*entry)


class Chain:
    """Validated view of one chain, from genesis to the current tip."""

    def __init__(self, params: ChainParams | None = None):
        self.params = params or ChainParams()
        self._blocks: dict[int, PermanentBlock] = {}
        self._intervals: dict[int, IntervalRecord] = {}
        self._registrations: dict[bytes, bytes] = {}     # pubkey -> register txid
        self._consents: dict[tuple[bytes, bytes], ConsentChain] = {}  # (subject, info txid) -> chain
        self._deletes: dict[int, DeleteRecord] = {}      # interval -> record, with its prepare
        self._unpruned: dict[int, int] = {}              # deleted interval, body held -> delete height
        self._dup_index: dict[bytes, frozenset[int]] = {}  # removable txid -> unpruned intervals; empty once erased
        # permanent-body txid -> its transaction; never an interval
        # transaction, whose payload must go when its interval is pruned
        self._confirmed: dict[bytes, Transaction] = {}
        # (signer, interval) -> that signer's confirmed prepares for it
        self._prepares: dict[tuple[bytes, int], tuple[Transaction, ...]] = {}
        self._journal: list | None = None                # undo entries of the open stage

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

    def stage(self) -> _Stage:
        """Apply changes to the live state, keeping them when the block
        completes and undoing them all when it raises.  A stage opened
        inside another joins it: only the outermost keeps or undoes, so
        an error caught inside a stage leaves the writes made before it."""
        return _Stage(self, False)

    def trial(self) -> _Stage:
        """A stage that undoes its writes on any exit; it cannot open
        inside another stage, whose writes it could not tell apart."""
        return _Stage(self, True)

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
        blocks = self._blocks
        return blocks[len(blocks) - 1].block_hash if blocks else NULL_HASH

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

    def append_gap_segment(self, block: PermanentBlock, *,
                           check_signatures: bool = True) -> None:
        """Commit a permanent block whose interval body is unavailable;
        ``verify.replay_segments`` settles whether a delete excuses it."""
        with self.stage():
            self._apply_segment(None, block, check_signatures)

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
                self.check_removable(tx)
        self.close_interval(height, h.interval_len, h.p_list, removable_blocks)

        for tx in block.txs:
            validate_stateless(tx, check_signatures=check_signatures)
        for tx in block.txs:
            self.apply_body_tx(tx, height)
        self._write(self._blocks, height, block)

    def close_interval(self, height: int, length: int, p_list: tuple[bytes, ...],
                       blocks: tuple[RemovableBlock, ...] | None) -> None:
        """Record interval ``height`` as closed and index its removable
        txids, so body rules can name it and find its copies; ``blocks``
        None records an absent interval."""
        txids = frozenset(tx.txid for rb in blocks or () for tx in rb.txs)
        for txid in txids:
            at = self._dup_index.get(txid)
            self._write(self._dup_index, txid, at | {height} if at else frozenset((height,)))
        self._write(self._intervals, height, IntervalRecord(
            length=length, p_list=p_list, blocks=blocks, txids=txids))

    # ------------------------------------------------------------------
    # transaction rules

    def check_removable(self, tx: Transaction) -> None:
        """Raise unless ``tx`` spends its signer's register output, writing
        nothing: the input rule of removables, prepares and infos."""
        reg_txid = self._registrations.get(tx.signer)
        if reg_txid is None:
            raise UnknownRegisterRef("signer is not registered")
        got = tx.inputs[0]
        if got.txid != reg_txid or got.index != 0:
            # erased: a pruned interval held it and no unpruned copy is left
            if self._dup_index.get(got.txid) == frozenset():
                raise RemovableTxDependsOnDeletedState(
                    f"input {got.txid.hex()[:12]} was erased with its interval")
            raise UnknownRegisterRef(
                f"input {got.txid.hex()[:12]}:{got.index} is not the signer's register output")

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
        elif tx.kind is TxKind.DELETE:
            x = tx.payload.interval
            self._write(self._deletes, x, DeleteRecord(
                txid=tx.txid, signer=tx.signer, interval=x,
                height=height, prepare=self._validate_delete(tx)))
            if self._intervals[x].blocks is not None:
                self._write(self._unpruned, x, height)
        elif tx.kind is TxKind.INFO:
            self.check_removable(tx)
        elif tx.kind is TxKind.CONSENT:
            self._validate_consent(tx, height)
        if tx.txid in self._confirmed:
            raise LedgerError(
                f"transaction {tx.txid.hex()[:12]} already confirmed")
        if tx.kind is TxKind.REGISTER:
            self._write(self._registrations, tx.signer, tx.txid)
        elif tx.kind is TxKind.PREPARE:
            key = (tx.signer, tx.payload.interval)
            self._write(self._prepares, key, self._prepares.get(key, ()) + (tx,))
        self._write(self._confirmed, tx.txid, tx)

    def _interval_for_removal(self, x: int) -> IntervalRecord:
        rec = self.interval_record(x)
        if rec.length == 0:
            raise UnknownInterval(f"interval {x} is empty")
        # judged by the delete evidence seen so far, not by the record's
        # status: a replayed gap interval is absent from the start, yet
        # prepares and the delete itself confirmed while it was live
        if x in self._deletes:
            raise IntervalAlreadyDeleted(f"interval {x} already has a delete")
        return rec

    def _validate_prepare(self, tx: Transaction) -> None:
        self.check_removable(tx)
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
        prep = self._confirmed.get(op.txid)
        if prep is None or prep.kind is not TxKind.PREPARE or op.index != 0:
            raise NotSoleOwnerAndNoPrepare(
                "input does not reference a confirmed prepare output")
        if prep.payload.interval != x:
            raise InvalidDelete(
                f"prepare names interval {prep.payload.interval}, delete names {x}")
        if prep.signer != tx.signer:
            raise PrepareSignerMismatch(
                "prepare and delete are signed by different keys")
        self._check_duplicates(x, exclude=tx.signer)
        return op.txid

    def _validate_consent(self, tx: Transaction, height: int) -> None:
        """Check a consent against its info and the signer's chain under
        it, then record the chain's new state."""
        register = self.register_outpoint(tx.signer)
        info_ref = tx.payload.info_ref
        info = self.info_record(info_ref.txid)
        if info is None or info_ref.index != 0:
            raise UnknownInfo(f"consent references unknown info {info_ref.txid.hex()[:12]}")
        if tx.value >> len(info.purposes):
            raise ConsentValueOutOfRange(
                f"value {tx.value} exceeds {len(info.purposes)}-purpose schema")
        key = (tx.signer, info_ref.txid)
        trail = self._consents.get(key)
        spent = tx.inputs[0]
        if trail is not None and trail.live:
            # continuation: must spend the chain's open output
            if spent == register:
                raise DuplicateConsentChain(
                    "chain already live for this subject and info")
            if spent != trail.outpoint:
                raise ConsentInputSpent(
                    f"input {spent.txid.hex()[:12]}:{spent.index} is not the open consent output")
        elif spent != register:
            # a fresh chain, or one reopened after a revocation
            raise ConsentInputSpent(
                "new consent chain must spend the subject's register output")
        history = (trail.history if trail is not None else ()) + (
            ConsentEvent(tx.txid, tx.value, height),)
        self._write(self._consents, key, ConsentChain(
            outpoint=OutPoint(tx.txid, 0) if tx.value != 0 else None,
            value=tx.value, history=history))

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
        """Intervals whose delete is ``confirm_depth`` blocks deep and
        which are themselves ``delete_lock`` blocks old, both from the tip."""
        # the whole table is read: a stage undo re-inserts a key at the
        # end, so its order is not the order of delete heights
        if not self._unpruned:
            return []
        tip, params = self.height, self.params
        return sorted(x for x, at in self._unpruned.items()
                      if tip - at >= params.confirm_depth
                      and tip - x >= params.delete_lock)

    def prune(self) -> list[int]:
        """Drop every eligible interval body; return the heights dropped."""
        dropped = self.prune_eligible()
        for x in dropped:
            rec = self._intervals[x]
            for txid in rec.txids:
                self._write(self._dup_index, txid, self._dup_index[txid] - {x})
            self._write(self._intervals, x, replace(rec, blocks=None))
            self._write(self._unpruned, x)
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
        lack a live duplicate elsewhere, ready for re-broadcast; none once
        the interval has a delete, as no second delete can follow."""
        x = prepare.payload.interval
        return [] if x in self._deletes else self._uncopied(x, prepare.signer)

    def registered(self, pubkey: bytes) -> bool:
        return pubkey in self._registrations

    def register_outpoint(self, pubkey: bytes) -> OutPoint:
        """The key's register output; ``UnknownRegisterRef`` if it has none."""
        txid = self._registrations.get(pubkey)
        if txid is None:
            raise UnknownRegisterRef("signer is not registered")
        return OutPoint(txid, 0)

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
            else self.register_outpoint(key.pubkey)
        if kind is TxKind.REMOVABLE:
            return build_removable(key, ref, data)
        if kind is TxKind.PREPARE:
            return build_prepare(key, ref, interval)
        if kind is TxKind.INFO:
            return build_info(key, ref, controller, purposes)
        return build_consent(key, ref, OutPoint(info, 0), value)

    def info_record(self, txid: bytes) -> InfoPayload | None:
        """The payload of the confirmed info ``txid``, else None."""
        tx = self._confirmed.get(txid)
        return tx.payload if tx is not None and tx.kind is TxKind.INFO else None

    def consent_chain(self, subject: bytes, info: bytes) -> ConsentChain | None:
        return self._consents.get((subject, info))

    def consent_grant(self, subject: bytes, info: bytes) -> int:
        chain = self._consents.get((subject, info))
        return chain.value if chain is not None else 0   # 0 once closed, too

    def prepares_for(self, signer: bytes, interval: int) -> list[Transaction]:
        """The signer's confirmed prepare transactions for ``interval``;
        none once it has a delete, which spent or outdated them all."""
        if interval in self._deletes:
            return []
        return list(self._prepares.get((signer, interval), ()))

    def delete_record(self, x: int) -> DeleteRecord | None:
        return self._deletes.get(x)

    def tx_confirmed(self, txid: bytes) -> bool:
        """Confirmed and still live somewhere (permanent, or a live copy)."""
        if txid in self._confirmed:
            return True
        at = self._dup_index.get(txid)
        if not at:      # never an interval transaction, or erased
            return False
        return any(j not in self._deletes for j in at)

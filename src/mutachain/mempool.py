"""Pending transactions, re-inclusion, and block candidate assembly.

Admission trial-applies a body transaction in ``Chain.trial``, which
undoes every write, and judges a removable by ``Chain.check_removable``,
the one rule a replayed interval's transactions pass, which writes
nothing.  Candidate assembly picks removables the same way.  Either
way the mempool enforces exactly the rules a block would and leaves
the chain as it found it.  Two queues feed candidates: the re-inclusion
queue and the ordinary pending queue.  The re-inclusion queue holds
byte-identical copies of a prepared interval's transactions signed by
anyone but the preparer and held by no other live interval.
A prepare queues them when the pool admits it or sees it confirmed,
and a copy leaves once its interval has a delete; candidates run no
prepare trial of their own.  The queue drains first so a deletion can
never outrun the duplicates that make it safe.
"""

from __future__ import annotations

from collections import OrderedDict

from .blocks import (
    MAX_P_LIST,
    PermanentBlock,
    RemovableBlock,
    build_permanent_block,
    build_removable_block,
    compute_p_list,
)
from .codec import U8_MAX
from .crypto import NULL_HASH
from .errors import (
    AdmissionFailed,
    AlreadyKnown,
    IneligiblePrepare,
    LedgerError,
    MissingDuplicates,
    NotSoleOwnerAndNoPrepare,
    PrematureDelete,
    StatelessInvalid,
    TxValidationError,
    UnknownSigner,
)
from .ledger import Chain
from .tx import Transaction, TxKind, validate_stateless

MAX_BLOCK_TXS = 8


class Mempool:
    def __init__(self):
        self._pending: OrderedDict[bytes, Transaction] = OrderedDict()
        self._reinclude: OrderedDict[bytes, Transaction] = OrderedDict()

    def __len__(self) -> int:
        return len(self._pending) + len(self._reinclude)

    def __contains__(self, txid: bytes) -> bool:
        return txid in self._pending or txid in self._reinclude

    def pending(self) -> list[Transaction]:
        return list(self._reinclude.values()) + list(self._pending.values())

    # ------------------------------------------------------------------
    # admission

    def submit(self, tx: Transaction, chain: Chain) -> None:
        """Admit a transaction or raise a ``MempoolRejection``."""
        try:
            validate_stateless(tx)
        except TxValidationError as exc:
            raise StatelessInvalid(exc)
        txid = tx.txid
        if txid in self._pending or txid in self._reinclude:
            raise AlreadyKnown(f"{txid.hex()[:12]} is already queued")
        if chain.tx_confirmed(txid):
            raise AlreadyKnown(f"{txid.hex()[:12]} is already confirmed")
        if tx.kind is not TxKind.REGISTER and not chain.registered(tx.signer):
            raise UnknownSigner(f"key {tx.signer.hex()[:12]} is not registered")
        self._check_stateful(tx, chain)
        self._pending[txid] = tx
        self._queue_copies(tx, chain)

    def _check_stateful(self, tx: Transaction, chain: Chain) -> None:
        try:
            if tx.kind is TxKind.REMOVABLE:
                chain.check_removable(tx)
            else:
                with chain.trial():
                    chain.apply_body_tx(tx, chain.height + 1)
        except (MissingDuplicates, NotSoleOwnerAndNoPrepare) as exc:
            raise self._delete_timing(tx, chain, exc)
        except LedgerError as exc:
            if tx.kind is TxKind.PREPARE:
                raise IneligiblePrepare(str(exc))
            raise AdmissionFailed(exc)

    def _delete_timing(self, tx: Transaction, chain: Chain, cause: LedgerError):
        """A delete can be early rather than wrong: its prepare or the
        duplicates it needs may still be in flight."""
        if isinstance(cause, MissingDuplicates):
            return PrematureDelete(f"duplicates not yet confirmed: {cause}")
        for queued in self.pending():
            if queued.kind is TxKind.PREPARE and queued.signer == tx.signer \
                    and queued.payload.interval == tx.payload.interval:
                return PrematureDelete("the matching prepare is not confirmed yet")
        return AdmissionFailed(cause)

    # ------------------------------------------------------------------
    # reacting to confirmed blocks

    def observe_segment(self, removable_blocks, block: PermanentBlock,
                        chain: Chain) -> None:
        """Sync queues with a freshly appended segment.

        Confirmed transactions and copies whose interval has a delete
        leave the queues; every confirmed prepare queues the copies it owes.
        """
        for rb in (*(removable_blocks or ()), block):
            for tx in rb.txs:
                self._pending.pop(tx.txid, None)
                self._reinclude.pop(tx.txid, None)
        for txid in [t for t in self._reinclude if not chain.tx_confirmed(t)]:
            del self._reinclude[txid]
        for tx in block.txs:
            self._queue_copies(tx, chain)

    def _queue_copies(self, tx: Transaction, chain: Chain) -> None:
        """Queue the copies a prepare owes, each txid in one queue only."""
        if tx.kind is TxKind.PREPARE:
            for dup in chain.reinclusion_candidates(tx):
                if dup.txid not in self:
                    self._reinclude[dup.txid] = dup

    # ------------------------------------------------------------------
    # candidate assembly

    def build_candidate(self, chain: Chain, max_interval_blocks: int,
                        ) -> tuple[tuple[RemovableBlock, ...], PermanentBlock]:
        """Assemble the next segment from queued transactions.

        Fills up to ``max_interval_blocks`` removable blocks (re-imports
        first), each pick judged by the read-only ``check_removable``,
        then closes the interval and trial-applies every body pick, so
        the result is valid by construction.  Transactions that do not
        fit or do not apply stay queued.  The close and the body trials
        run in one ``Chain.trial``.  An interval holds at most ``U8_MAX``
        blocks, as many as its header can count.
        """
        height = chain.height + 1
        chosen: list[Transaction] = []
        signers: set[bytes] = set()
        capacity = min(max_interval_blocks, U8_MAX) * MAX_BLOCK_TXS
        for tx in self.pending():
            if len(chosen) >= capacity:
                break
            if tx.kind is not TxKind.REMOVABLE:
                continue
            if tx.signer not in signers and len(signers) >= MAX_P_LIST:
                continue
            try:
                chain.check_removable(tx)
            except LedgerError:
                continue
            chosen.append(tx)
            signers.add(tx.signer)

        interval: list[RemovableBlock] = []
        anchor = chain.tip_hash
        for start in range(0, len(chosen), MAX_BLOCK_TXS):
            rb = build_removable_block(
                interval=height, seq=len(interval) + 1, prev=anchor,
                txs=chosen[start:start + MAX_BLOCK_TXS])
            interval.append(rb)
            anchor = rb.block_hash

        p_list = compute_p_list(chosen)
        with chain.trial():
            # the interval must be closed before body rules run, exactly
            # as segment admission does
            chain.close_interval(height, len(interval), p_list, tuple(interval))

            body: list[Transaction] = []
            for tx in list(self._pending.values()):
                if tx.kind is TxKind.REMOVABLE:
                    continue
                try:
                    chain.apply_body_tx(tx, height)
                except LedgerError:
                    continue
                body.append(tx)

        block = build_permanent_block(
            height=height, prev_permanent=chain.tip_hash,
            prev_removable=anchor if interval else NULL_HASH,
            interval_len=len(interval), p_list=p_list, txs=body)
        return tuple(interval), block

"""Pending transactions, re-inclusion, and block candidate assembly.

Admission trial-applies the transaction in a chain stage that is never
committed, so the mempool enforces exactly the rules a block would and
leaves the chain as it found it.  Two queues feed candidates: the
re-inclusion queue and the ordinary pending queue.  The re-inclusion
queue fills when a confirmed prepare is observed; it holds
byte-identical copies of the prepared interval's transactions signed
by anyone but the preparer, and it drains first so a deletion can
never outrun the duplicates that make it safe.

Deletes additionally pass the judgment hook, a callable deciding
whether this miner is willing to carry an (otherwise valid) deletion.
The default accepts everything; the hook is mining discretion, not a
chain rule, so blocks mined by less picky peers still validate.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable

from .blocks import (
    MAX_P_LIST,
    PermanentBlock,
    RemovableBlock,
    build_permanent_block,
    build_removable_block,
    compute_p_list,
)
from .crypto import NULL_HASH
from .errors import (
    AdmissionFailed,
    AlreadyKnown,
    IneligiblePrepare,
    LedgerError,
    MinerJudgmentRejected,
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

JudgmentHook = Callable[[Transaction, Chain], bool]


def accept_all(tx: Transaction, chain: Chain) -> bool:
    return True


class Mempool:
    def __init__(self, judgment: JudgmentHook | None = None):
        self.judgment = judgment or accept_all
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
        if tx.txid in self:
            raise AlreadyKnown(f"{tx.txid.hex()[:12]} is already queued")
        if chain.tx_confirmed(tx.txid):
            raise AlreadyKnown(f"{tx.txid.hex()[:12]} is already confirmed")
        if tx.kind is not TxKind.REGISTER and not chain.registered(tx.signer):
            raise UnknownSigner(f"key {tx.signer.hex()[:12]} is not registered")
        self._check_stateful(tx, chain)
        if tx.kind is TxKind.DELETE and not self.judgment(tx, chain):
            raise AdmissionFailed(
                MinerJudgmentRejected("this miner declines to carry the delete"))
        self._pending[tx.txid] = tx

    def _check_stateful(self, tx: Transaction, chain: Chain) -> None:
        try:
            with chain.stage():
                if tx.kind is TxKind.REMOVABLE:
                    chain.apply_removable(tx, chain.height + 1)
                else:
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

        Confirmed transactions leave the queues; every confirmed
        prepare feeds the re-inclusion queue with the other signers'
        transactions from the interval it targets.
        """
        self.drop_confirmed(removable_blocks, block)
        for tx in block.txs:
            if tx.kind is TxKind.PREPARE:
                for dup in chain.reinclusion_candidates(tx):
                    if dup.txid not in self:
                        self._reinclude[dup.txid] = dup

    def drop_confirmed(self, removable_blocks, block: PermanentBlock) -> None:
        """Drop the segment's transactions from both queues."""
        for rb in (*(removable_blocks or ()), block):
            for tx in rb.txs:
                self._pending.pop(tx.txid, None)
                self._reinclude.pop(tx.txid, None)

    # ------------------------------------------------------------------
    # candidate assembly

    def build_candidate(self, chain: Chain, max_interval_blocks: int,
                        ) -> tuple[tuple[RemovableBlock, ...], PermanentBlock]:
        """Assemble the next segment from queued transactions.

        Fills up to ``max_interval_blocks`` removable blocks (re-imports
        first), then the permanent body, trial-applying every pick so
        the result is valid by construction.  Transactions that do not
        fit or do not apply stay queued.  Both trials run in chain stages
        that are never committed.
        """
        height = chain.height + 1

        # a prepare that is about to confirm in this very block needs
        # the other signers' duplicates out no later than this interval,
        # so pull them in ahead of everything else
        urgent: list[Transaction] = []
        with chain.stage():
            for tx in self._pending.values():
                if tx.kind is not TxKind.PREPARE:
                    continue
                try:
                    chain.apply_body_tx(tx, height)
                except LedgerError:
                    continue
                urgent.extend(chain.reinclusion_candidates(tx))

        chosen: list[Transaction] = []
        picked: set[bytes] = set()
        signers: set[bytes] = set()
        capacity = max_interval_blocks * MAX_BLOCK_TXS
        with chain.stage():
            if max_interval_blocks > 0:
                for tx in urgent + self.pending():
                    if len(chosen) >= capacity:
                        break
                    if tx.kind is not TxKind.REMOVABLE or tx.txid in picked:
                        continue
                    if len(signers | {tx.signer}) > MAX_P_LIST:
                        continue
                    try:
                        chain.apply_removable(tx, height)
                    except LedgerError:
                        continue
                    chosen.append(tx)
                    picked.add(tx.txid)
                    signers.add(tx.signer)

            interval: list[RemovableBlock] = []
            anchor = chain.tip_hash
            for start in range(0, len(chosen), MAX_BLOCK_TXS):
                rb = build_removable_block(
                    interval=height, seq=len(interval) + 1, prev=anchor,
                    txs=chosen[start:start + MAX_BLOCK_TXS])
                interval.append(rb)
                anchor = rb.block_hash

            # the interval must be closed before body rules run, exactly
            # as segment admission does
            p_list = compute_p_list(chosen)
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

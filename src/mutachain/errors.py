"""Exception hierarchy shared by all modules.

Validation failures are raised, not returned; callers that need a
verdict catch ``MutachainError`` subclasses.  Each leaf class names one
rule so tests can assert on the exact failure.
"""

from __future__ import annotations


class MutachainError(Exception):
    """Base class for every error raised by this package."""


# --- codec ---------------------------------------------------------------

class CodecError(MutachainError):
    pass


class EncodingError(CodecError):
    """Value cannot be represented in the canonical layout (e.g. a
    collection exceeds its count field's range)."""


class DecodingError(CodecError):
    """Byte input is truncated or violates the canonical layout."""


# --- transactions ---------------------------------------------------------

class TxValidationError(MutachainError):
    pass


class BadSignature(TxValidationError):
    pass


class ShapeViolation(TxValidationError):
    """A kind-specific shape rule is broken; ``rule`` names it."""

    def __init__(self, rule: str, detail: str = ""):
        self.rule = rule
        super().__init__(f"{rule}{': ' + detail if detail else ''}")


# --- blocks ---------------------------------------------------------------

class BlockError(MutachainError):
    pass


class BlockShapeError(BlockError):
    pass


class PListOverflow(BlockError):
    """More distinct removable-transaction signers in an interval than
    the header's key list can hold."""


class BrokenIntervalChain(BlockError):
    pass


# --- ledger ---------------------------------------------------------------

class LedgerError(MutachainError):
    pass


class UnknownParent(LedgerError):
    pass


class IntervalLenMismatch(LedgerError):
    pass


class PListMismatch(LedgerError):
    pass


class DuplicateRegistration(LedgerError):
    pass


class UnknownRegisterRef(LedgerError):
    pass


class InvalidParams(LedgerError, ValueError):
    """A chain parameter is not an int >= 0."""


class RemovableTxDependsOnDeletedState(LedgerError):
    """Input references an erased removable transaction instead of a
    register output."""


class ConsentInputSpent(LedgerError):
    """Consent input is not an unspent consent output usable by the
    signer for this info."""


class DuplicateConsentChain(LedgerError):
    """A (subject, info) pair already has a live consent chain."""


class ConsentValueOutOfRange(LedgerError):
    """Consent bitmask has bits beyond the info's purpose count."""


class UnknownInfo(LedgerError):
    pass


class InvalidPrepare(LedgerError):
    pass


class NotEligible(InvalidPrepare):
    """Prepare signer's key is not in the target interval's key list."""


class MissingDuplicates(InvalidPrepare):
    """Other signers' removable transactions lack confirmed copies;
    ``missing_txids`` is empty when the target is a gap."""

    def __init__(self, missing_txids, signers):
        self.missing_txids = tuple(missing_txids)
        self.signers = tuple(signers)
        names = ", ".join(s.hex()[:12] for s in self.signers)
        super().__init__(f"missing duplicates for {len(self.missing_txids)} tx(s) of {names}")


class InvalidDelete(LedgerError):
    pass


class NotSoleOwnerAndNoPrepare(InvalidDelete):
    pass


class PrepareSignerMismatch(InvalidDelete):
    pass


class MinerJudgmentRejected(InvalidDelete):
    """Unauthorized-policy delete refused by the judgment hook."""


class IntervalAlreadyDeleted(LedgerError):
    pass


class UnknownInterval(LedgerError):
    pass


# --- mempool ----------------------------------------------------------------

class MempoolRejection(MutachainError):
    pass


class StatelessInvalid(MempoolRejection):
    def __init__(self, cause: TxValidationError):
        self.cause = cause
        super().__init__(f"stateless validation failed: {cause}")


class UnknownSigner(MempoolRejection):
    pass


class IneligiblePrepare(MempoolRejection):
    pass


class PrematureDelete(MempoolRejection):
    """No fast path and no confirmed or co-pending prepare."""


class AlreadyKnown(MempoolRejection):
    pass


class AdmissionFailed(MempoolRejection):
    """Stateful admission check failed for a reason carried in ``cause``."""

    def __init__(self, cause: LedgerError):
        self.cause = cause
        super().__init__(f"admission failed: {cause}")


# --- store / scenario / sync ------------------------------------------------

class StoreError(MutachainError):
    pass


class CorruptStore(StoreError):
    pass


class MissingDeleteEvidence(StoreError):
    """An interval is absent although no confirmed delete authorizes the gap."""

    def __init__(self, intervals, detail: str = ""):
        self.intervals = tuple(intervals)
        super().__init__(f"no delete evidence for interval(s) {list(self.intervals)}"
                         + (f": {detail}" if detail else ""))


class StoreLocked(StoreError):
    pass


class ScenarioError(MutachainError):
    def __init__(self, message: str, line_no: int | None = None):
        self.line_no = line_no
        prefix = f"line {line_no}: " if line_no is not None else ""
        super().__init__(prefix + message)

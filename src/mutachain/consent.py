"""Consent bookkeeping: info schemas, purpose bitmasks, consent chains.

An info transaction publishes a data-collection description: a
controller identifier plus an ordered list of purpose labels.  Bit ``k``
of a consent value (lowest bit first) grants the purpose at position
``k``, so an info with purposes ``("analytics", "ads")`` accepts values
0 through 3 and value 1 grants analytics only.

Each subject runs at most one live consent chain per info.  The chain
starts from the subject's reusable register output, every later consent
spends the previous consent output, and value 0 revokes: a revoking
consent produces no spendable output, closing the chain.  A new chain
for the same (subject, info) pair may start from the register output
again only after such a close.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    ConsentInputSpent,
    ConsentValueOutOfRange,
    DuplicateConsentChain,
    UnknownInfo,
)
from .tx import OutPoint, Transaction


@dataclass(frozen=True)
class InfoRecord:
    txid: bytes
    signer: bytes
    controller: bytes
    purposes: tuple[str, ...]


@dataclass(frozen=True)
class ConsentEvent:
    txid: bytes
    value: int
    height: int


@dataclass(frozen=True)
class ConsentChain:
    """State of one (subject, info) chain.

    ``outpoint`` is the currently spendable consent output, or None
    once a revocation (``value`` 0) closed the chain.
    """

    subject: bytes
    info: bytes
    outpoint: OutPoint | None
    value: int
    history: tuple[ConsentEvent, ...]

    @property
    def live(self) -> bool:
        return self.outpoint is not None


def make_info_record(tx: Transaction) -> InfoRecord:
    return InfoRecord(txid=tx.txid, signer=tx.signer,
                      controller=tx.payload.controller,
                      purposes=tx.payload.purposes)


def mask_for_labels(info: InfoRecord, labels) -> int:
    """Bitmask granting exactly the named purposes."""
    mask = 0
    for label in labels:
        mask |= 1 << info.purposes.index(label)
    return mask


def labels_for_mask(info: InfoRecord, value: int) -> tuple[str, ...]:
    """Purpose labels granted by ``value``, in schema order."""
    if value >> len(info.purposes):
        raise ConsentValueOutOfRange(
            f"value {value} exceeds {len(info.purposes)} purposes")
    return tuple(label for k, label in enumerate(info.purposes)
                 if value >> k & 1)


def apply_consent(tx: Transaction, height: int, *,
                  infos: dict[bytes, InfoRecord],
                  chains: dict[tuple[bytes, bytes], ConsentChain],
                  register_outpoint: OutPoint) -> ConsentChain:
    """Validate a consent against the current chain state.

    The caller has already checked shape, signature, and that the
    signer is registered; ``register_outpoint`` is the signer's own
    register output.  Returns the new chain state for the (signer,
    info) pair and leaves ``chains`` untouched: storing it is the
    caller's write.
    """
    info_ref = tx.payload.info_ref
    info = infos.get(info_ref.txid)
    if info is None or info_ref.index != 0:
        raise UnknownInfo(f"consent references unknown info {info_ref.txid.hex()[:12]}")
    if tx.value >> len(info.purposes):
        raise ConsentValueOutOfRange(
            f"value {tx.value} exceeds {len(info.purposes)}-purpose schema")
    key = (tx.signer, info.txid)
    chain = chains.get(key)
    spent = tx.inputs[0]
    if chain is not None and chain.live:
        # continuation: must spend the chain's open output
        if spent == register_outpoint:
            raise DuplicateConsentChain(
                "chain already live for this subject and info")
        if spent != chain.outpoint:
            raise ConsentInputSpent(
                f"input {spent.txid.hex()[:12]}:{spent.index} is not the open consent output")
    else:
        # fresh chain (or reopened after revocation): starts at the
        # subject's register output, nothing else
        if spent != register_outpoint:
            raise ConsentInputSpent(
                "new consent chain must spend the subject's register output")
    out = OutPoint(tx.txid, 0) if tx.value != 0 else None
    history = (chain.history if chain is not None else ()) + (
        ConsentEvent(tx.txid, tx.value, height),)
    return ConsentChain(subject=tx.signer, info=info.txid,
                        outpoint=out, value=tx.value, history=history)

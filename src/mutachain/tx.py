"""The six transaction kinds and their stateless validation.

Kinds, wire tags, and the block type each kind may appear in:

=========  ===  ================  ============================================
kind       tag  block type        semantics
=========  ===  ================  ============================================
Register    1   permanent         register the signer's key; one reusable
                                  output, no inputs
Removable   2   removable         erasable payload; references the signer's
                                  register output, no outputs
Prepare     3   permanent         announce an interval deletion; references
                                  the signer's register output, one implicit
                                  output spendable by the matching delete
Delete      4   permanent         authorize removal of an interval; no inputs
                                  (sole-owner fast path) or the prepare's
                                  output (restricted path)
Info        5   permanent         data-collection description plus ordered
                                  purpose labels; one reusable info output
Consent     6   permanent         grant/update/revoke a purpose bitmask;
                                  consumes the previous consent output (or
                                  references the register output to start a
                                  chain), one open output
=========  ===  ================  ============================================

Transaction wire layout (canonical encoding, field order as listed):

==============  =====================================================
field           width
==============  =====================================================
kind            u8 tag
signer          32 (public key)
inputs          u16 count + 34 per input (txid 32 + output index u16)
output_count    u8
payload         kind-specific, see ``_encode_payload``
value           u64 (consent bitmask; 0 for every other kind)
signature       64
==============  =====================================================

The signing payload is the same encoding with the signature omitted,
a prefix of the full encoding as the signature is its last field;
the transaction id is the SHA-256 digest of the full encoding with the
signature included, so byte-identical re-broadcasts share one id.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import IntEnum
from functools import cached_property

from . import codec
from .crypto import (
    HASH_SIZE,
    PUBKEY_SIZE,
    SIGNATURE_SIZE,
    KeyPair,
    digest,
    sign_payload,
    verify_signature,
)
from .errors import BadSignature, DecodingError, EncodingError, ShapeViolation

MAX_PURPOSES = 64  # consent bitmask width


class TxKind(IntEnum):
    REGISTER = 1
    REMOVABLE = 2
    PREPARE = 3
    DELETE = 4
    INFO = 5
    CONSENT = 6


_KIND_OF_TAG = {int(kind): kind for kind in TxKind}

# Outputs are implicit per kind; the count is still a declared field so
# a malformed transaction is representable and rejected, not unbuildable.
EXPECTED_OUTPUTS = {
    TxKind.REGISTER: 1,
    TxKind.REMOVABLE: 0,
    TxKind.PREPARE: 1,
    TxKind.DELETE: 0,
    TxKind.INFO: 1,
    TxKind.CONSENT: 1,
}

PERMANENT_KINDS = frozenset(
    (TxKind.REGISTER, TxKind.PREPARE, TxKind.DELETE, TxKind.INFO, TxKind.CONSENT))


@dataclass(frozen=True)
class OutPoint:
    """Reference to output ``index`` of transaction ``txid``."""

    txid: bytes
    index: int = 0

    def __post_init__(self):
        assert len(self.txid) == HASH_SIZE

    def encode_into(self, w: codec.Writer) -> None:
        w.fixed(self.txid, HASH_SIZE)
        w.u16(self.index)

    @classmethod
    def decode_from(cls, r: codec.Reader) -> "OutPoint":
        return cls(txid=r.fixed(HASH_SIZE), index=r.u16())


@dataclass(frozen=True)
class RemovablePayload:
    data: bytes


@dataclass(frozen=True)
class PreparePayload:
    interval: int


@dataclass(frozen=True)
class DeletePayload:
    interval: int


@dataclass(frozen=True)
class InfoPayload:
    controller: bytes
    purposes: tuple[str, ...]


@dataclass(frozen=True)
class ConsentPayload:
    info_ref: OutPoint


Payload = RemovablePayload | PreparePayload | DeletePayload | InfoPayload | ConsentPayload | None


@dataclass(frozen=True)
class Transaction:
    kind: TxKind
    signer: bytes
    inputs: tuple[OutPoint, ...]
    output_count: int
    payload: Payload
    value: int
    signature: bytes

    @cached_property
    def encoded(self) -> bytes:
        """The canonical encoding, signature last.  Computed at most once:
        a decoded transaction holds the bytes it was read from, and a
        built one the bytes it was signed over plus its signature."""
        w = codec.Writer()
        self._encode_unsigned(w)
        w.fixed(self.signature, SIGNATURE_SIZE)
        return w.getvalue()

    @cached_property
    def txid(self) -> bytes:
        return digest(self.encoded)

    @property
    def signing_payload(self) -> bytes:
        """The bytes the signature covers: the encoding without its last
        field, the signature, so a slice of ``encoded``."""
        return self.encoded[:-SIGNATURE_SIZE]

    def _encode_unsigned(self, w: codec.Writer) -> None:
        w.u8(int(self.kind))
        w.fixed(self.signer, PUBKEY_SIZE)
        w.count(len(self.inputs))
        for op in self.inputs:
            op.encode_into(w)
        w.u8(self.output_count)
        _encode_payload(self.kind, self.payload, w)
        w.u64(self.value)

    @classmethod
    def decode_from(cls, r: codec.Reader) -> "Transaction":
        start = r.pos
        tag = r.u8()
        kind = _KIND_OF_TAG.get(tag)
        if kind is None:
            raise DecodingError(f"unknown transaction kind tag {tag}")
        signer = r.fixed(PUBKEY_SIZE)
        inputs = tuple(OutPoint.decode_from(r) for _ in range(r.count()))
        output_count = r.u8()
        payload = _decode_payload(kind, r)
        value = r.u64()
        signature = r.fixed(SIGNATURE_SIZE)
        return codec.keep_encoded(
            cls(kind=kind, signer=signer, inputs=inputs,
                output_count=output_count, payload=payload,
                value=value, signature=signature), r.since(start))

    @classmethod
    def decode(cls, data: bytes) -> "Transaction":
        r = codec.Reader(data)
        tx = cls.decode_from(r)
        r.expect_end()
        return tx


def _encode_payload(kind: TxKind, payload: Payload, w: codec.Writer) -> None:
    if kind is TxKind.REGISTER:
        if payload is not None:
            raise EncodingError("register payload must be empty")
    elif kind is TxKind.REMOVABLE:
        w.byte_string(payload.data)
    elif kind is TxKind.PREPARE or kind is TxKind.DELETE:
        w.u32(payload.interval)
    elif kind is TxKind.INFO:
        w.byte_string(payload.controller)
        w.count(len(payload.purposes))
        for label in payload.purposes:
            w.byte_string(label.encode("utf-8"))
    elif kind is TxKind.CONSENT:
        payload.info_ref.encode_into(w)
    else:  # pragma: no cover - enum is exhaustive
        raise EncodingError(f"unhandled kind {kind}")


def _decode_payload(kind: TxKind, r: codec.Reader) -> Payload:
    if kind is TxKind.REGISTER:
        return None
    if kind is TxKind.REMOVABLE:
        return RemovablePayload(data=r.byte_string())
    if kind is TxKind.PREPARE:
        return PreparePayload(interval=r.u32())
    if kind is TxKind.DELETE:
        return DeletePayload(interval=r.u32())
    if kind is TxKind.INFO:
        controller = r.byte_string()
        try:
            purposes = tuple(r.byte_string().decode("utf-8") for _ in range(r.count()))
        except UnicodeDecodeError as exc:
            raise DecodingError(f"purpose label is not UTF-8: {exc}") from None
        return InfoPayload(controller=controller, purposes=purposes)
    if kind is TxKind.CONSENT:
        return ConsentPayload(info_ref=OutPoint.decode_from(r))
    raise DecodingError(f"unhandled kind {kind}")  # pragma: no cover


def _signed(kind: TxKind, signer: KeyPair, inputs: tuple[OutPoint, ...],
            payload: Payload, value: int = 0) -> Transaction:
    unsigned = Transaction(kind=kind, signer=signer.pubkey, inputs=inputs,
                           output_count=EXPECTED_OUTPUTS[kind], payload=payload,
                           value=value, signature=b"")
    w = codec.Writer()
    unsigned._encode_unsigned(w)
    body = w.getvalue()
    sig = sign_payload(signer, body)
    return codec.keep_encoded(replace(unsigned, signature=sig), body + sig)


def build_register(signer: KeyPair) -> Transaction:
    return _signed(TxKind.REGISTER, signer, (), None)


def build_removable(signer: KeyPair, register_ref: OutPoint, data: bytes) -> Transaction:
    return _signed(TxKind.REMOVABLE, signer, (register_ref,), RemovablePayload(bytes(data)))


def build_prepare(signer: KeyPair, register_ref: OutPoint, interval: int) -> Transaction:
    return _signed(TxKind.PREPARE, signer, (register_ref,), PreparePayload(interval))


def build_delete(signer: KeyPair, interval: int,
                 prepare_ref: OutPoint | None = None) -> Transaction:
    inputs = (prepare_ref,) if prepare_ref is not None else ()
    return _signed(TxKind.DELETE, signer, inputs, DeletePayload(interval))


def build_info(signer: KeyPair, register_ref: OutPoint, controller: bytes,
               purposes: tuple[str, ...] | list[str]) -> Transaction:
    return _signed(TxKind.INFO, signer, (register_ref,),
                   InfoPayload(bytes(controller), tuple(purposes)))


def build_consent(signer: KeyPair, input_ref: OutPoint, info_ref: OutPoint,
                  value: int) -> Transaction:
    return _signed(TxKind.CONSENT, signer, (input_ref,),
                   ConsentPayload(info_ref), value=value)


def validate_stateless(tx: Transaction, *, check_signatures: bool = True) -> None:
    """Shape rules plus signature check; no ledger lookups.

    Raises ``ShapeViolation`` naming the broken rule, or ``BadSignature``.
    ``check_signatures=False`` skips only the Ed25519 check, for bytes
    whose signature this node already checked (see ``BlockStore``).
    """
    kind = tx.kind
    if tx.value != 0 and kind is not TxKind.CONSENT:
        raise ShapeViolation("value-only-on-consent")
    if kind is TxKind.REGISTER:
        if tx.inputs:
            raise ShapeViolation("register-has-no-input")
        if tx.output_count != 1:
            raise ShapeViolation("register-has-one-reusable-output")
        if tx.payload is not None:
            raise ShapeViolation("register-payload-empty")
    elif kind is TxKind.REMOVABLE:
        if len(tx.inputs) != 1:
            raise ShapeViolation("removable-references-one-register-output")
        if tx.output_count != 0:
            raise ShapeViolation("removable-has-no-output")
        if not isinstance(tx.payload, RemovablePayload):
            raise ShapeViolation("removable-carries-data")
    elif kind is TxKind.PREPARE:
        if len(tx.inputs) != 1:
            raise ShapeViolation("prepare-references-one-register-output")
        if tx.output_count != 1:
            raise ShapeViolation("prepare-has-one-output")
        if not isinstance(tx.payload, PreparePayload):
            raise ShapeViolation("prepare-names-an-interval")
    elif kind is TxKind.DELETE:
        if len(tx.inputs) > 1:
            raise ShapeViolation("delete-has-at-most-one-input")
        if tx.output_count != 0:
            raise ShapeViolation("delete-has-no-output")
        if not isinstance(tx.payload, DeletePayload):
            raise ShapeViolation("delete-names-an-interval")
    elif kind is TxKind.INFO:
        if len(tx.inputs) != 1:
            raise ShapeViolation("info-references-one-register-output")
        if tx.output_count != 1:
            raise ShapeViolation("info-has-one-output")
        if not isinstance(tx.payload, InfoPayload):
            raise ShapeViolation("info-carries-schema")
        n = len(tx.payload.purposes)
        if not 1 <= n <= MAX_PURPOSES:
            raise ShapeViolation("info-purposes-range",
                                 f"{n} labels, need 1..{MAX_PURPOSES}")
        if len(set(tx.payload.purposes)) != n:
            raise ShapeViolation("info-purposes-unique")
    elif kind is TxKind.CONSENT:
        if len(tx.inputs) != 1:
            raise ShapeViolation("consent-has-one-consuming-input")
        if tx.output_count != 1:
            raise ShapeViolation("consent-has-one-open-output")
        if not isinstance(tx.payload, ConsentPayload):
            raise ShapeViolation("consent-references-an-info-output")
    if check_signatures and not verify_signature(
            tx.signer, tx.signing_payload, tx.signature):
        raise BadSignature(f"signature invalid for tx kind {kind.name}")

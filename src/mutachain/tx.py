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

``SHAPES`` holds one row per kind: the block type above, the input and
output counts, the payload type and the rule each shape check reports.

Transaction wire layout (canonical encoding, field order as listed):

==============  =====================================================
field           width
==============  =====================================================
kind            u8 tag
signer          32 (public key)
inputs          u16 count + 34 per input (txid 32 + output index u16)
output_count    u8
payload         the kind's payload type, see its ``encode_into``
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
from types import NoneType

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

    def encode_into(self, w: codec.Writer) -> None:
        w.byte_string(self.data)

    @classmethod
    def decode_from(cls, r: codec.Reader) -> "RemovablePayload":
        return cls(data=r.byte_string())


@dataclass(frozen=True)
class IntervalPayload:
    """The interval a prepare announces or a delete removes."""

    interval: int

    def encode_into(self, w: codec.Writer) -> None:
        w.u32(self.interval)

    @classmethod
    def decode_from(cls, r: codec.Reader) -> "IntervalPayload":
        return cls(interval=r.u32())


@dataclass(frozen=True)
class InfoPayload:
    controller: bytes
    purposes: tuple[str, ...]

    def encode_into(self, w: codec.Writer) -> None:
        w.byte_string(self.controller)
        w.count(len(self.purposes))
        for label in self.purposes:
            w.byte_string(label.encode("utf-8"))

    @classmethod
    def decode_from(cls, r: codec.Reader) -> "InfoPayload":
        controller = r.byte_string()
        try:
            purposes = tuple(r.byte_string().decode("utf-8") for _ in range(r.count()))
        except UnicodeDecodeError as exc:
            raise DecodingError(f"purpose label is not UTF-8: {exc}") from None
        return cls(controller=controller, purposes=purposes)


@dataclass(frozen=True)
class ConsentPayload:
    info_ref: OutPoint

    def encode_into(self, w: codec.Writer) -> None:
        self.info_ref.encode_into(w)

    @classmethod
    def decode_from(cls, r: codec.Reader) -> "ConsentPayload":
        return cls(info_ref=OutPoint.decode_from(r))


Payload = RemovablePayload | IntervalPayload | InfoPayload | ConsentPayload | None


@dataclass(frozen=True)
class Shape:
    """One kind's shape and the rule each mismatch reports.  Outputs are
    implicit, but their count is a field, so a malformed transaction is
    representable and rejected, not unbuildable."""

    inputs: range
    outputs: int
    payload: type        # NoneType: the kind has none
    permanent: bool      # the block type it may sit in
    input_rule: str
    output_rule: str
    payload_rule: str


SHAPES = {
    TxKind.REGISTER: Shape(
        range(0, 1), 1, NoneType, True, "register-has-no-input",
        "register-has-one-reusable-output", "register-payload-empty"),
    TxKind.REMOVABLE: Shape(
        range(1, 2), 0, RemovablePayload, False,
        "removable-references-one-register-output", "removable-has-no-output",
        "removable-carries-data"),
    TxKind.PREPARE: Shape(
        range(1, 2), 1, IntervalPayload, True,
        "prepare-references-one-register-output", "prepare-has-one-output",
        "prepare-names-an-interval"),
    TxKind.DELETE: Shape(
        range(0, 2), 0, IntervalPayload, True, "delete-has-at-most-one-input",
        "delete-has-no-output", "delete-names-an-interval"),
    TxKind.INFO: Shape(
        range(1, 2), 1, InfoPayload, True, "info-references-one-register-output",
        "info-has-one-output", "info-carries-schema"),
    TxKind.CONSENT: Shape(
        range(1, 2), 1, ConsentPayload, True, "consent-has-one-consuming-input",
        "consent-has-one-open-output", "consent-references-an-info-output"),
}


@dataclass(frozen=True)
class Transaction(codec.Encoded):
    kind: TxKind
    signer: bytes
    inputs: tuple[OutPoint, ...]
    output_count: int
    payload: Payload
    value: int
    signature: bytes

    @cached_property
    def txid(self) -> bytes:
        return digest(self.encoded)

    @property
    def signing_payload(self) -> bytes:
        """The bytes the signature covers: the encoding without its last
        field, the signature, so a slice of ``encoded``."""
        return self.encoded[:-SIGNATURE_SIZE]

    def encode_into(self, w: codec.Writer) -> None:
        self._encode_unsigned(w)
        w.fixed(self.signature, SIGNATURE_SIZE)

    def _encode_unsigned(self, w: codec.Writer) -> None:
        w.u8(int(self.kind))
        w.fixed(self.signer, PUBKEY_SIZE)
        w.count(len(self.inputs))
        for op in self.inputs:
            op.encode_into(w)
        w.u8(self.output_count)
        expected = SHAPES[self.kind].payload
        if not isinstance(self.payload, expected):
            # another type's bytes would decode as something else
            raise EncodingError(f"{self.kind.name} payload must be "
                                f"{expected.__name__}, not {type(self.payload).__name__}")
        if self.payload is not None:
            self.payload.encode_into(w)
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
        payload_type = SHAPES[kind].payload
        payload = None if payload_type is NoneType else payload_type.decode_from(r)
        value = r.u64()
        signature = r.fixed(SIGNATURE_SIZE)
        return codec.keep_encoded(
            cls(kind=kind, signer=signer, inputs=inputs,
                output_count=output_count, payload=payload,
                value=value, signature=signature), r.since(start))

    decode = classmethod(codec.decode_whole)


def _signed(kind: TxKind, signer: KeyPair, inputs: tuple[OutPoint, ...],
            payload: Payload, value: int = 0) -> Transaction:
    unsigned = Transaction(kind=kind, signer=signer.pubkey, inputs=inputs,
                           output_count=SHAPES[kind].outputs, payload=payload,
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
    return _signed(TxKind.PREPARE, signer, (register_ref,), IntervalPayload(interval))


def build_delete(signer: KeyPair, interval: int,
                 prepare_ref: OutPoint | None = None) -> Transaction:
    inputs = (prepare_ref,) if prepare_ref is not None else ()
    return _signed(TxKind.DELETE, signer, inputs, IntervalPayload(interval))


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
    shape = SHAPES[kind]
    if len(tx.inputs) not in shape.inputs:
        raise ShapeViolation(shape.input_rule)
    if tx.output_count != shape.outputs:
        raise ShapeViolation(shape.output_rule)
    if not isinstance(tx.payload, shape.payload):
        raise ShapeViolation(shape.payload_rule)
    if kind is TxKind.INFO:
        n = len(tx.payload.purposes)
        if not 1 <= n <= MAX_PURPOSES:
            raise ShapeViolation("info-purposes-range",
                                 f"{n} labels, need 1..{MAX_PURPOSES}")
        if len(set(tx.payload.purposes)) != n:
            raise ShapeViolation("info-purposes-unique")
    if check_signatures and not verify_signature(
            tx.signer, tx.signing_payload, tx.signature):
        raise BadSignature(f"signature invalid for tx kind {kind.name}")

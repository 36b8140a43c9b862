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
payload         the kind's payload type, see its ``encoded``
value           u64 (consent bitmask; 0 for every other kind)
signature       64
==============  =====================================================

Payload layouts: removable, the data as a byte-string; prepare and
delete, the interval as a u32; info, the controller as a byte-string,
then a u16 count and each purpose label as a byte-string of strict
UTF-8; consent, the info outpoint (34 bytes).  Register has none.

The signing payload is the same encoding with the signature omitted,
a prefix of the full encoding as the signature is its last field;
the transaction id is the SHA-256 digest of the full encoding with the
signature included, so byte-identical re-broadcasts share one id.
"""

from __future__ import annotations

import os
import struct
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property
from types import NoneType

from . import codec
from .crypto import (
    ED25519_BACKEND,
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
# the fixed runs an encoder packs and a decoder reads in one step each
_OUTPOINT = struct.Struct(f"<{HASH_SIZE}sH")           # txid, index
_TX_HEAD = struct.Struct(f"<B{PUBKEY_SIZE}sH")         # kind, signer, input count
_TX_TAIL = struct.Struct(f"<Q{SIGNATURE_SIZE}s")       # value, signature


@dataclass(frozen=True)
class OutPoint:
    """Reference to output ``index`` of transaction ``txid``."""

    txid: bytes
    index: int = 0

    def __post_init__(self):
        if len(self.txid) != HASH_SIZE:
            raise EncodingError(f"txid must be {HASH_SIZE} bytes, got {len(self.txid)}")

    @property
    def encoded(self) -> bytes:
        return codec.pack(_OUTPOINT, self.txid, self.index)

    @classmethod
    def decode_from(cls, r: codec.Reader) -> "OutPoint":
        return cls(*r.unpack(_OUTPOINT))


@dataclass(frozen=True)
class RemovablePayload:
    data: bytes

    @property
    def encoded(self) -> bytes:
        return codec.encode_byte_string(self.data)

    @classmethod
    def decode_from(cls, r: codec.Reader) -> "RemovablePayload":
        return cls(data=r.byte_string())


@dataclass(frozen=True)
class IntervalPayload:
    """The interval a prepare announces or a delete removes."""

    interval: int

    @property
    def encoded(self) -> bytes:
        return codec.pack(codec.U32, self.interval)

    @classmethod
    def decode_from(cls, r: codec.Reader) -> "IntervalPayload":
        return cls(interval=r.u32())


@dataclass(frozen=True)
class InfoPayload:
    controller: bytes
    purposes: tuple[str, ...]

    @property
    def encoded(self) -> bytes:
        try:
            labels = [label.encode("utf-8") for label in self.purposes]
        except UnicodeEncodeError as exc:
            raise EncodingError(f"purpose label is not UTF-8: {exc}") from None
        return b"".join((codec.encode_byte_string(self.controller),
                         codec.pack(codec.U16, len(labels)),
                         *map(codec.encode_byte_string, labels)))

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

    @property
    def encoded(self) -> bytes:
        return self.info_ref.encoded

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
        """Written only for a transaction made field by field; a signed or
        decoded one keeps the bytes it was signed or read as."""
        return _encode_fields(self.kind, self.signer, self.inputs, self.output_count,
                              self.payload) + codec.pack(_TX_TAIL, self.value, self.signature)

    @cached_property
    def txid(self) -> bytes:
        return digest(self.encoded)

    @property
    def signing_payload(self) -> bytes:
        """The bytes the signature covers: the encoding without its last
        field, the signature, so a slice of ``encoded``."""
        return self.encoded[:-SIGNATURE_SIZE]

    @classmethod
    def decode_from(cls, r: codec.Reader) -> "Transaction":
        start = r.pos
        tag, signer, n_inputs = r.unpack(_TX_HEAD)
        kind = _KIND_OF_TAG.get(tag)
        if kind is None:
            raise DecodingError(f"unknown transaction kind tag {tag}")
        inputs = tuple(OutPoint.decode_from(r) for _ in range(n_inputs))
        output_count = r.u8()
        payload_type = SHAPES[kind].payload
        payload = None if payload_type is NoneType else payload_type.decode_from(r)
        value, signature = r.unpack(_TX_TAIL)
        return codec.decoded(
            cls, r.since(start), kind=kind, signer=signer, inputs=inputs,
            output_count=output_count, payload=payload, value=value,
            signature=signature)

    decode = classmethod(codec.decode_whole)


def _encode_fields(kind: TxKind, signer: bytes, inputs: tuple[OutPoint, ...],
                   output_count: int, payload: Payload) -> bytes:
    """A transaction's encoding up to its value: the signing payload is
    these bytes and the value, the encoding these, the value and the
    signature."""
    expected = SHAPES[kind].payload
    if not isinstance(payload, expected):
        # another type's bytes would decode as something else
        raise EncodingError(f"{kind.name} payload must be "
                            f"{expected.__name__}, not {type(payload).__name__}")
    return b"".join((codec.pack(_TX_HEAD, kind, signer, len(inputs)),
                     *[op.encoded for op in inputs],
                     codec.pack(codec.U8, output_count),
                     b"" if payload is None else payload.encoded))


def _signed(kind: TxKind, signer: KeyPair, inputs: tuple[OutPoint, ...],
            payload: Payload, value: int = 0) -> Transaction:
    """Encoded once, from the fields, and signed."""
    outputs = SHAPES[kind].outputs
    body = _encode_fields(kind, signer.pubkey, inputs, outputs, payload) \
        + codec.pack(codec.U64, value)
    sig = sign_payload(signer, body)
    return codec.decoded(Transaction, body + sig, kind=kind, signer=signer.pubkey,
                         inputs=inputs, output_count=outputs, payload=payload,
                         value=value, signature=sig)


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


# One signature verdict per txid for the process, first in, first out:
# a txid digests the signing payload, which names the signer, and the
# signature, so it covers everything Ed25519 judges.
_VERDICTS: OrderedDict[bytes, bool] = OrderedDict()
_VERDICTS_MAX = 1 << 16

# usable cores, counted once; macOS has no sched_getaffinity
_CORES = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
    else os.cpu_count() or 1
_pool: ThreadPoolExecutor | None = None
_pool_pid = 0


def validate_stateless(tx: Transaction, *, check_signatures: bool = True) -> None:
    """Shape rules plus signature check; no ledger lookups.

    A txid with a verdict answers at once: only bytes that passed the
    shape rules get one, and the txid digests every field those rules
    read.  Otherwise the shape rules run, and the signature reaches
    Ed25519 on the calling thread; its verdict is kept, a false one too.
    A transaction whose fields do not encode has no txid and goes
    straight to the shape rules.
    Raises ``ShapeViolation`` naming the broken rule, or ``BadSignature``.
    ``check_signatures=False`` runs the shape rules and skips the
    signature and the verdict table, for bytes whose signature this node
    already checked (see ``BlockStore``).  ``validate_all`` runs this
    over a segment's transactions with their cold signatures checked on
    every core.
    """
    if check_signatures:
        try:
            ok = _VERDICTS.get(tx.txid)
        except EncodingError:
            ok = None
        if ok:
            return
        if ok is not None:
            raise BadSignature(f"signature invalid for tx kind {tx.kind.name}")
    _check_shape(tx)
    if not check_signatures:
        return
    ok = verify_signature(tx.signer, tx.signing_payload, tx.signature)
    _keep(tx.txid, ok)
    if not ok:
        raise BadSignature(f"signature invalid for tx kind {tx.kind.name}")


def validate_all(txs, check_signatures: bool = True) -> None:
    """``validate_stateless`` over ``txs`` in order, raising what the
    first failing one raises, once the signatures that loop may send to
    Ed25519 have all been checked at once.  A batch whose every
    transaction has a true verdict, as an appended segment's have after
    ``Mempool.submit``, costs one scan: ``validate_stateless`` would
    pass each of them at once.

    Where libsodium answers first, those checks are split over the
    usable cores: the calling thread takes one share and a pool of
    ``_CORES - 1`` threads the rest.  libsodium's ``ctypes`` calls
    release the GIL, so the shares run side by side; OpenSSL's calls
    through ``cryptography`` hold it, so a host without libsodium, or
    with one core, checks them all on the calling thread.  The
    verdicts are ``verify_signature``'s either way, and only the
    calling thread keeps them, each as the loop reaches its
    transaction, so the verdict table fills as the serial loop fills it.
    """
    fresh = None
    if check_signatures:
        cold = _unjudged(txs)
        if cold is None:
            return
        fresh = _judge(cold)
    for tx in txs:
        # every unjudged transaction comes before one without a txid
        if fresh and tx.txid in fresh:
            _keep(tx.txid, fresh.pop(tx.txid))
        validate_stateless(tx, check_signatures=check_signatures)


def _check_shape(tx: Transaction) -> None:
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


def _keep(txid: bytes, ok: bool) -> None:
    if len(_VERDICTS) >= _VERDICTS_MAX:
        _VERDICTS.popitem(last=False)
    _VERDICTS[txid] = ok


def _unjudged(txs) -> list[Transaction] | None:
    """The transactions of ``txs`` that have no verdict, in order, each
    txid once, up to the first that a shape rule or a kept false
    verdict fails, or that has no txid; None when every one has a true
    verdict."""
    cold = {}
    for tx in txs:
        try:
            ok = _VERDICTS.get(tx.txid)
        except EncodingError:
            break
        if ok:
            continue
        if ok is False:
            break
        try:
            _check_shape(tx)
        except ShapeViolation:
            break
        cold.setdefault(tx.txid, tx)
    else:
        if not cold:
            return None
    return list(cold.values())


def _judge(txs: list[Transaction]) -> dict[bytes, bool]:
    """Each transaction's txid and signature verdict, checked in
    ``shares`` runs at once, the calling thread's first."""
    shares = min(_CORES, len(txs)) if ED25519_BACKEND != "openssl" else 1
    if shares < 2:
        return {tx.txid: ok for tx, ok in zip(txs, _signatures_ok(txs))}
    global _pool, _pool_pid
    if _pool is None or _pool_pid != os.getpid():
        # a forked child has the pool object but none of its threads
        _pool, _pool_pid = ThreadPoolExecutor(_CORES - 1), os.getpid()
    size = -(-len(txs) // shares)
    runs = [_pool.submit(_signatures_ok, txs[at:at + size])
            for at in range(size, len(txs), size)]
    oks = _signatures_ok(txs[:size])
    for run in runs:
        oks += run.result()
    return {tx.txid: ok for tx, ok in zip(txs, oks)}


def _signatures_ok(txs: list[Transaction]) -> list[bool]:
    # through this module's name, so a wrapper put there sees every check
    return [verify_signature(tx.signer, tx.signing_payload, tx.signature) for tx in txs]

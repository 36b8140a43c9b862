"""Transaction construction, canonical bytes, and shape rules."""

import dataclasses

import pytest
from hypothesis import given, strategies as st

from mutachain import (
    HASH_SIZE,
    SIGNATURE_SIZE,
    OutPoint,
    Transaction,
    TxKind,
    build_consent,
    build_delete,
    build_info,
    build_prepare,
    build_register,
    build_removable,
    digest,
    validate_stateless,
)
from mutachain import crypto
from mutachain.errors import BadSignature, DecodingError, EncodingError, ShapeViolation
from support import ALICE, BOB, kp

REF = OutPoint(digest(b"some-register"), 0)
INFO_REF = OutPoint(digest(b"some-info"), 0)


def sample(kind: TxKind) -> Transaction:
    if kind is TxKind.REGISTER:
        return build_register(ALICE)
    if kind is TxKind.REMOVABLE:
        return build_removable(ALICE, REF, b"payload bytes")
    if kind is TxKind.PREPARE:
        return build_prepare(ALICE, REF, 7)
    if kind is TxKind.DELETE:
        return build_delete(ALICE, 7)
    if kind is TxKind.INFO:
        return build_info(ALICE, REF, BOB.pubkey, ("analytics", "ads"))
    return build_consent(ALICE, REF, INFO_REF, 3)


@pytest.mark.parametrize("kind", list(TxKind))
def test_every_kind_round_trips(kind):
    tx = sample(kind)
    validate_stateless(tx)
    back = Transaction.decode(tx.encoded)
    assert back == tx
    assert back.txid == tx.txid
    assert back.encoded == tx.encoded


def test_kind_byte_values_are_stable():
    assert [k.value for k in TxKind] == [1, 2, 3, 4, 5, 6]
    for kind in TxKind:
        # kind is the leading byte of the canonical encoding
        assert sample(kind).encoded[0] == kind.value


def test_txid_covers_the_signature():
    a = build_removable(ALICE, REF, b"same data")
    b = build_removable(ALICE, REF, b"same data")
    # deterministic signing: byte-identical rebuilds share a txid
    assert a.txid == b.txid == digest(a.encoded)
    forged = dataclasses.replace(a, signature=b"\x00" * 64)
    assert forged.txid != a.txid


def test_outpoint_encoding_is_34_bytes():
    import mutachain.codec as codec
    w = codec.Writer()
    OutPoint(digest(b"x"), 5).encode_into(w)
    data = w.getvalue()
    assert len(data) == HASH_SIZE + 2
    assert data[-2:] == b"\x05\x00"
    back = OutPoint.decode_from(codec.Reader(data))
    assert back == OutPoint(digest(b"x"), 5)


@given(st.binary(max_size=200))
def test_removable_data_round_trips(data):
    tx = build_removable(ALICE, REF, data)
    assert Transaction.decode(tx.encoded).payload.data == data


@given(st.integers(min_value=0, max_value=0xFFFFFFFF))
def test_interval_number_round_trips(x):
    for tx in (build_prepare(ALICE, REF, x), build_delete(ALICE, x)):
        assert Transaction.decode(tx.encoded).payload.interval == x


@given(st.integers(min_value=0, max_value=2 ** 64 - 1))
def test_consent_value_is_u64(value):
    tx = build_consent(ALICE, REF, INFO_REF, value)
    assert Transaction.decode(tx.encoded).value == value


def test_info_purposes_round_trip_in_order():
    tx = build_info(ALICE, REF, BOB.pubkey, ("z", "a", "m"))
    back = Transaction.decode(tx.encoded)
    assert back.payload.purposes == ("z", "a", "m")
    assert back.payload.controller == BOB.pubkey


def test_trailing_garbage_rejected():
    tx = sample(TxKind.REMOVABLE)
    with pytest.raises(DecodingError):
        Transaction.decode(tx.encoded + b"\x00")
    with pytest.raises(DecodingError):
        Transaction.decode(tx.encoded[:-1])
    with pytest.raises(DecodingError):
        Transaction.decode(b"\x09" + tx.encoded[1:])   # unknown kind byte
    info = sample(TxKind.INFO).encoded
    at = info.index(b"analytics")
    with pytest.raises(DecodingError):                 # label not UTF-8
        Transaction.decode(info[:at] + b"\xff" + info[at + 1:])


def violating(tx: Transaction, **changes) -> Transaction:
    return dataclasses.replace(tx, **changes)


# donors of a payload of the wrong type for the kinds below
DATA = build_removable(ALICE, REF, b"d")
INTERVAL = build_prepare(ALICE, REF, 1)


RULE_CASES = [
    ("register-has-no-input",
     lambda: violating(build_register(ALICE), inputs=(REF,))),
    ("register-has-one-reusable-output",
     lambda: violating(build_register(ALICE), output_count=0)),
    ("removable-references-one-register-output",
     lambda: violating(build_removable(ALICE, REF, b"d"), inputs=())),
    ("removable-has-no-output",
     lambda: violating(build_removable(ALICE, REF, b"d"), output_count=1)),
    ("prepare-has-one-output",
     lambda: violating(build_prepare(ALICE, REF, 1), output_count=0)),
    ("delete-has-at-most-one-input",
     lambda: violating(build_delete(ALICE, 1), inputs=(REF, INFO_REF))),
    ("delete-has-no-output",
     lambda: violating(build_delete(ALICE, 1), output_count=1)),
    ("info-references-one-register-output",
     lambda: violating(build_info(ALICE, REF, BOB.pubkey, ("a",)), inputs=())),
    ("info-purposes-range",
     lambda: build_info(ALICE, REF, BOB.pubkey, tuple(f"p{i}" for i in range(65)))),
    ("info-purposes-unique",
     lambda: build_info(ALICE, REF, BOB.pubkey, ("dup", "dup"))),
    ("consent-has-one-consuming-input",
     lambda: violating(build_consent(ALICE, REF, INFO_REF, 1), inputs=())),
    ("value-only-on-consent",
     lambda: violating(build_removable(ALICE, REF, b"d"), value=9)),
    ("register-payload-empty",
     lambda: violating(build_register(ALICE), payload=DATA.payload)),
    ("removable-carries-data",
     lambda: violating(build_removable(ALICE, REF, b"d"), payload=INTERVAL.payload)),
    ("prepare-references-one-register-output",
     lambda: violating(build_prepare(ALICE, REF, 1), inputs=())),
    ("prepare-names-an-interval",
     lambda: violating(build_prepare(ALICE, REF, 1), payload=DATA.payload)),
    ("delete-names-an-interval",
     lambda: violating(build_delete(ALICE, 1), payload=DATA.payload)),
    ("info-has-one-output",
     lambda: violating(build_info(ALICE, REF, BOB.pubkey, ("a",)), output_count=0)),
    ("info-carries-schema",
     lambda: violating(build_info(ALICE, REF, BOB.pubkey, ("a",)), payload=DATA.payload)),
    ("consent-has-one-open-output",
     lambda: violating(build_consent(ALICE, REF, INFO_REF, 1), output_count=0)),
    ("consent-references-an-info-output",
     lambda: violating(build_consent(ALICE, REF, INFO_REF, 1), payload=INTERVAL.payload)),
]


@pytest.mark.parametrize("kind", list(TxKind), ids=lambda k: k.name)
def test_a_payload_of_another_type_cannot_be_encoded(kind):
    # its bytes would decode as some other payload, or not at all
    built = sample(kind)
    others = {type(p): p for p in (sample(k).payload for k in TxKind)
              if type(p) is not type(built.payload)}
    assert len(others) == 4   # prepare and delete share a payload type
    for payload in others.values():
        with pytest.raises(EncodingError):
            violating(built, payload=payload).encoded


@pytest.mark.parametrize("rule,make", RULE_CASES, ids=[r for r, _ in RULE_CASES])
def test_shape_violations_name_their_rule(rule, make):
    with pytest.raises(ShapeViolation) as err:
        validate_stateless(make())
    assert err.value.rule == rule


def test_signature_must_match_payload():
    honest = build_removable(ALICE, REF, b"original")
    tampered = dataclasses.replace(honest, payload=type(honest.payload)(b"altered"))
    with pytest.raises(BadSignature):
        validate_stateless(tampered)
    stolen = dataclasses.replace(honest, signer=BOB.pubkey)
    with pytest.raises(BadSignature):
        validate_stateless(stolen)


def test_distinct_signers_distinct_txids():
    seen = {build_removable(kp(f"s{i}"), REF, b"same").txid for i in range(8)}
    assert len(seen) == 8


@pytest.fixture()
def cold_cache():
    crypto._VERIFY_CACHE.clear()
    yield
    crypto._VERIFY_CACHE.clear()


def flipped(data: bytes, at: int) -> bytes:
    return data[:at] + bytes([data[at] ^ 0x01]) + data[at + 1:]


@pytest.mark.parametrize("kind", [TxKind.REMOVABLE, TxKind.CONSENT], ids=lambda k: k.name)
def test_one_flipped_byte_of_a_decoded_transaction_is_a_bad_signature(kind, cold_cache):
    # the signing payload is a slice of the bytes read: every byte but the
    # signature is under it, and a flip anywhere reaches Ed25519 afresh
    raw = sample(kind).encoded
    validate_stateless(Transaction.decode(raw))
    crypto._VERIFY_CACHE.clear()
    checked = []
    for at in range(len(raw)):
        try:
            tx = Transaction.decode(flipped(raw, at))
            validate_stateless(tx, check_signatures=False)
        except (DecodingError, ShapeViolation):
            continue        # the flip broke the shape before the signature
        with pytest.raises(BadSignature):
            validate_stateless(tx)
        checked.append(at)
    sig_at = len(raw) - SIGNATURE_SIZE
    assert set(range(sig_at, len(raw))) <= set(checked)
    # the signer, the input and the payload bytes are signed
    assert len([at for at in checked if at < sig_at]) >= 32 + 34 + 4

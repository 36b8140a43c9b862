"""Transaction construction, canonical bytes, and shape rules."""

import dataclasses
import os
import threading
import time
import warnings

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
from mutachain import ledger
from mutachain import tx as txmod
from mutachain.errors import BadSignature, DecodingError, EncodingError, ShapeViolation
from support import (
    ALICE, BOB, CAROL, cold_cache, count_signature_checks, fresh_chain, kp, make_segment, reg,
)

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
    data = OutPoint(digest(b"x"), 5).encoded
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


def test_a_purpose_label_that_is_not_utf8_is_an_encoding_error():
    # a lone surrogate, as a command line's undecodable byte arrives
    with pytest.raises(EncodingError, match="not UTF-8"):
        build_info(ALICE, REF, b"controller", ("ads", "\udcff"))
    built = sample(TxKind.INFO)
    bad = txmod.InfoPayload(built.payload.controller, ("\ud800",))
    with pytest.raises(EncodingError, match="not UTF-8"):
        violating(built, payload=bad).encoded


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


def flipped(data: bytes, at: int) -> bytes:
    return data[:at] + bytes([data[at] ^ 0x01]) + data[at + 1:]


@pytest.mark.parametrize("kind", [TxKind.REMOVABLE, TxKind.CONSENT], ids=lambda k: k.name)
def test_one_flipped_byte_of_a_decoded_transaction_is_a_bad_signature(kind, cold_cache):
    # the signing payload is a slice of the bytes read: every byte but the
    # signature is under it, and a flip anywhere reaches Ed25519 afresh
    raw = sample(kind).encoded
    validate_stateless(Transaction.decode(raw))
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


# ----------------------------------------------------------------------
# the verdict table: one Ed25519 check per txid and process


def test_verdicts_are_kept_per_txid_and_stay_bounded(cold_cache, monkeypatch):
    tx = sample(TxKind.REMOVABLE)
    validate_stateless(tx)
    assert dict(txmod._VERDICTS) == {tx.txid: True}
    validate_stateless(tx)
    assert len(txmod._VERDICTS) == 1
    # a poisoned verdict being believed proves the lookup short-circuits
    txmod._VERDICTS[tx.txid] = False
    with pytest.raises(BadSignature):
        validate_stateless(tx)

    txmod._VERDICTS.clear()
    monkeypatch.setattr(txmod, "_VERDICTS_MAX", 4)
    txs = [build_removable(ALICE, REF, b"p%d" % i) for i in range(10)]
    for t in txs:
        validate_stateless(t)
    assert list(txmod._VERDICTS) == [t.txid for t in txs[-4:]]   # first in, first out


def test_a_bad_signature_fails_every_call_and_reaches_ed25519_once(cold_cache, monkeypatch):
    forged = dataclasses.replace(sample(TxKind.CONSENT), signature=bytes(SIGNATURE_SIZE))
    calls = count_signature_checks(monkeypatch)
    for again in (forged, forged, Transaction.decode(forged.encoded)):
        with pytest.raises(BadSignature):
            validate_stateless(again)
    assert len(calls) == 1


def test_unchecked_validation_neither_reads_nor_fills_the_table(cold_cache, monkeypatch):
    tx = sample(TxKind.PREPARE)
    calls = count_signature_checks(monkeypatch)
    validate_stateless(tx, check_signatures=False)
    assert calls == [] and not txmod._VERDICTS
    validate_stateless(tx)
    assert len(calls) == 1
    txmod._VERDICTS[tx.txid] = False
    validate_stateless(tx, check_signatures=False)    # the false verdict is not read
    with pytest.raises(BadSignature):
        validate_stateless(tx)


def rejection(tx: Transaction, **kw):
    """(class, rule, message) of what ``validate_stateless`` raises, else None."""
    try:
        validate_stateless(tx, **kw)
    except (ShapeViolation, BadSignature) as exc:
        return type(exc), getattr(exc, "rule", None), str(exc)
    return None


VERDICT_CASES = {
    # no txid: the fields do not encode
    "wrong-payload-type": lambda: violating(
        build_removable(ALICE, REF, b"d"), payload=INTERVAL.payload),
    "bad-signature": lambda: violating(
        build_removable(ALICE, REF, b"d"), signature=bytes(SIGNATURE_SIZE)),
    "value-on-non-consent": lambda: violating(build_prepare(ALICE, REF, 1), value=1),
    "flipped-signature-byte": lambda: Transaction.decode(
        flipped(sample(TxKind.CONSENT).encoded, len(sample(TxKind.CONSENT).encoded) - 1)),
}


@pytest.mark.parametrize("make", VERDICT_CASES.values(), ids=VERDICT_CASES.keys())
def test_a_rejection_is_the_same_with_a_cold_and_a_warm_verdict_table(make, cold_cache):
    tx = make()
    cold = rejection(tx)
    assert cold is not None
    if cold[0] is ShapeViolation:
        # a verdict is kept only for bytes that passed the shape rules
        assert not txmod._VERDICTS
    for kind in TxKind:
        validate_stateless(sample(kind))
    assert rejection(tx) == cold
    assert rejection(make()) == cold       # another object with the same fields

    # unchecked: the shape rules alone, and the table is neither read nor filled
    table = dict(txmod._VERDICTS)
    expected = cold if cold[0] is ShapeViolation else None
    assert rejection(tx, check_signatures=False) == expected
    assert dict(txmod._VERDICTS) == table
    cold_cache()
    assert rejection(make(), check_signatures=False) == expected
    assert not txmod._VERDICTS


# ----------------------------------------------------------------------
# validate_all: a segment's cold signatures checked on every core


def split_segment(interval_defect=None, body_defect=None):
    """A segment of five removables in three blocks and three infos on a
    chain of Alice, Bob and Carol; a defect is (position, fields)."""
    chain = fresh_chain(ALICE, BOB, CAROL)
    keys = (ALICE, BOB, CAROL, ALICE, BOB)
    removables = [build_removable(k, reg(chain, k), b"split %d" % i)
                  for i, k in enumerate(keys)]
    infos = [build_info(k, reg(chain, k), b"ctl", ("a",)) for k in (ALICE, BOB, CAROL)]
    for txs, defect in ((removables, interval_defect), (infos, body_defect)):
        if defect is not None:
            at, fields = defect
            txs[at] = violating(txs[at], **fields)
    return make_segment(chain, removables, infos, per_block=2)


def judged(segment, mode, monkeypatch):
    """What appending ``segment`` to a fresh chain raises (class, message),
    the txids whose verdicts it kept, in table order, and the signatures
    it checked, with
    ``mode`` "serial" (one ``validate_stateless`` after another), "off"
    (one core), "on" (two) or "warm" (two, keeping the verdicts of the
    run before)."""
    chain = fresh_chain(ALICE, BOB, CAROL)
    if mode != "warm":
        txmod._VERDICTS.clear()
    known = set(txmod._VERDICTS)
    with monkeypatch.context() as m:
        if mode == "serial":
            def serial(txs, check_signatures=True):
                for tx in txs:
                    validate_stateless(tx, check_signatures=check_signatures)
            m.setattr(ledger, "validate_all", serial)
        m.setattr(txmod, "_CORES", 1 if mode == "off" else 2)
        calls = count_signature_checks(m)
        try:
            chain.append_segment(*segment)
            error = None
        except Exception as exc:
            error = (type(exc), str(exc))
    return error, [k for k in txmod._VERDICTS if k not in known], [args[2] for args in calls]


DEFECTS = {"forged": {"signature": bytes(SIGNATURE_SIZE)}, "shape": {"value": 1}}
SPLIT_CASES = [None] + [
    (where, at, name) for where, n in (("interval", 5), ("body", 3))
    for at in range(n) for name in DEFECTS]


@pytest.mark.parametrize("case", SPLIT_CASES, ids=lambda c: "clean" if c is None
                         else f"{c[0]}-{c[1]}-{c[2]}")
def test_the_split_judges_a_segment_as_the_serial_loop_does(case, cold_cache, monkeypatch):
    if case is None:
        segment = split_segment()
    else:
        where, at, name = case
        defect = (at, DEFECTS[name])
        segment = split_segment(*((defect, None) if where == "interval" else (None, defect)))
    serial = judged(segment, "serial", monkeypatch)
    off = judged(segment, "off", monkeypatch)
    on = judged(segment, "on", monkeypatch)
    warm = judged(segment, "warm", monkeypatch)
    assert off[:2] == serial[:2] and on[:2] == serial[:2]
    assert warm == (serial[0], [], [])      # the kept verdicts answer for every check
    if case is None:
        assert serial[0] is None and len(serial[1]) == 8
    else:
        assert serial[0][0] is (BadSignature if name == "forged" else ShapeViolation)
    for *_, checked in (off, on):
        # each cold signature reaches Ed25519 once, the serial loop's among them
        assert len(checked) == len(set(checked))
        assert set(serial[2]) <= set(checked)
        if case is None:
            assert sorted(checked) == sorted(serial[2])


def checking_threads(setattr_) -> set:
    """The ids of the threads that run each Ed25519 check from here on."""
    threads, real = set(), txmod.verify_signature

    def spy(*args):
        threads.add(threading.get_ident())
        return real(*args)
    setattr_(txmod, "verify_signature", spy)
    return threads


@pytest.mark.skipif(txmod.ED25519_BACKEND == "openssl" or txmod._CORES < 2,
                    reason="the checks split only where libsodium answers on 2+ cores")
def test_a_cold_segment_is_checked_on_more_than_one_thread(cold_cache, monkeypatch):
    segment = split_segment()
    chain = fresh_chain(ALICE, BOB, CAROL)
    cold_cache()
    threads = checking_threads(monkeypatch.setattr)
    chain.append_segment(*segment)
    assert len(threads) > 1


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
def test_a_forked_child_checks_a_cold_segment_with_a_pool_of_its_own(cold_cache, monkeypatch):
    monkeypatch.setattr(txmod, "_CORES", 2)
    fresh_chain(ALICE, BOB, CAROL).append_segment(*split_segment())
    split = txmod.ED25519_BACKEND != "openssl"
    assert (txmod._pool is not None) is split       # the pool has run where it can
    segment, chain = split_segment(), fresh_chain(ALICE, BOB, CAROL)
    cold_cache()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)   # forking with threads alive
        pid = os.fork()
    if pid == 0:
        code = 1
        try:
            threads = checking_threads(setattr)
            chain.append_segment(*segment)
            code = 0 if len(threads) == (2 if split else 1) else 3
        finally:
            os._exit(code)
    deadline = time.monotonic() + 30
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() > deadline:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
            pytest.fail("the child hung checking a cold segment")
        time.sleep(0.01)
    assert os.waitstatus_to_exitcode(status) == 0

"""Digests, key pairs and signatures."""

import dataclasses

import pytest
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey
from hypothesis import given, strategies as st

from mutachain import (
    HASH_SIZE,
    crypto,
    NULL_HASH,
    PUBKEY_SIZE,
    SIGNATURE_SIZE,
    digest,
    keypair_from_seed,
    sign_payload,
    verify_signature,
)
from mutachain.crypto import _GROUP_ORDER
from mutachain.errors import EncodingError

# SHA-256 of the empty string, a fixed point every implementation agrees on
SHA256_EMPTY = bytes.fromhex(
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")


def test_digest_is_sha256():
    assert digest(b"") == SHA256_EMPTY
    assert digest(b"abc") == bytes.fromhex(
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad")
    assert len(digest(b"anything")) == HASH_SIZE
    assert NULL_HASH == b"\x00" * HASH_SIZE


@given(st.binary(max_size=128), st.binary(max_size=128))
def test_digest_collision_free_on_distinct_inputs(a, b):
    if a != b:
        assert digest(a) != digest(b)
    else:
        assert digest(a) == digest(b)


def test_keypair_deterministic_from_seed():
    k1 = keypair_from_seed(b"\x07" * 32)
    k2 = keypair_from_seed(b"\x07" * 32)
    k3 = keypair_from_seed(b"\x08" * 32)
    assert k1.pubkey == k2.pubkey
    assert k1.pubkey != k3.pubkey
    assert len(k1.pubkey) == PUBKEY_SIZE
    with pytest.raises(EncodingError):
        keypair_from_seed(b"short")


@given(st.binary(min_size=32, max_size=32), st.binary(max_size=96))
def test_sign_verify_round_trip(seed, payload):
    kp = keypair_from_seed(seed)
    sig = sign_payload(kp, payload)
    assert len(sig) == SIGNATURE_SIZE
    assert verify_signature(kp.pubkey, payload, sig)
    assert not verify_signature(kp.pubkey, payload + b"x", sig)


def test_verify_rejects_wrong_key_and_garbage():
    kp = keypair_from_seed(b"\x01" * 32)
    other = keypair_from_seed(b"\x02" * 32)
    sig = sign_payload(kp, b"hello")
    assert verify_signature(kp.pubkey, b"hello", sig)
    assert not verify_signature(other.pubkey, b"hello", sig)
    # malformed inputs never raise
    assert not verify_signature(b"\x00" * 31, b"hello", sig)
    assert not verify_signature(kp.pubkey, b"hello", b"\x00" * 63)
    assert not verify_signature(b"\xff" * 32, b"hello", b"\xff" * 64)


# Each Ed25519 verdict runs through both the checker the chain uses and
# the OpenSSL reference that decides every rejection: they must agree.
CHECKS = pytest.mark.parametrize(
    "check", [verify_signature, crypto._verify_openssl], ids=["verify_signature", "openssl"])


def flip(value: bytes, at: int, mask: int = 1) -> bytes:
    return value[:at] + bytes([value[at] ^ mask]) + value[at + 1:]


PINNED_KEY = keypair_from_seed(b"\x05" * 32)
PINNED_PAYLOAD = b"pinned payload"
PINNED_SIG = sign_payload(PINNED_KEY, PINNED_PAYLOAD)
PINNED_S = int.from_bytes(PINNED_SIG[32:], "little")
# the identity point as key and as R, with S = 0: [0]B == R + [k]A for any payload
IDENTITY = b"\x01" + b"\x00" * 31
IDENTITY_SIG = IDENTITY + b"\x00" * 32

PINNED = {
    "honest": (PINNED_KEY.pubkey, PINNED_PAYLOAD, PINNED_SIG, True),
    "R-bit": (PINNED_KEY.pubkey, PINNED_PAYLOAD, flip(PINNED_SIG, 3), False),
    "S-bit": (PINNED_KEY.pubkey, PINNED_PAYLOAD, flip(PINNED_SIG, 40), False),
    "key-bit": (flip(PINNED_KEY.pubkey, 3), PINNED_PAYLOAD, PINNED_SIG, False),
    "payload-bit": (PINNED_KEY.pubkey, flip(PINNED_PAYLOAD, 3), PINNED_SIG, False),
    "S-plus-L": (PINNED_KEY.pubkey, PINNED_PAYLOAD,
                 PINNED_SIG[:32] + (PINNED_S + _GROUP_ORDER).to_bytes(32, "little"), False),
    # OpenSSL accepts the identity key's universal signature and libsodium
    # refuses it; the chain keeps OpenSSL's verdict
    "identity-key": (IDENTITY, b"any payload at all", IDENTITY_SIG, True),
}


@CHECKS
@pytest.mark.parametrize("case", PINNED)
def test_pinned_verdicts(check, case):
    pk, payload, sig, expected = PINNED[case]
    assert check(pk, payload, sig) is expected


@pytest.mark.skipif(crypto._sodium_verify is None, reason="libsodium did not load")
def test_libsodium_refuses_the_identity_key_that_openssl_accepts():
    # so the pinned identity-key verdict comes from the OpenSSL fallback
    assert crypto._sodium_verify(IDENTITY_SIG, b"x", 1, IDENTITY) != 0


@given(st.binary(min_size=32, max_size=32), st.binary(max_size=96),
       st.sampled_from(("none", "key", "signature", "payload")),
       st.integers(min_value=0, max_value=63), st.integers(min_value=1, max_value=255))
def test_verdict_equals_the_openssl_reference(seed, payload, part, at, mask):
    kp = keypair_from_seed(seed)
    pk, sig = kp.pubkey, sign_payload(kp, payload)
    if part == "key":
        pk = flip(pk, at % PUBKEY_SIZE, mask)
    elif part == "signature":
        sig = flip(sig, at, mask)
    elif part == "payload" and payload:
        payload = flip(payload, at % len(payload), mask)
    assert verify_signature(pk, payload, sig) is crypto._verify_openssl(pk, payload, sig)


def count_reference_checks(monkeypatch):
    calls = []
    real = crypto._verify_openssl

    def counted(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(crypto, "_verify_openssl", counted)
    return calls


def test_an_honest_signature_is_answered_by_the_loaded_backend(monkeypatch):
    assert crypto.ED25519_BACKEND in (
        "libsodium.so.23", "libsodium.so.26", "libsodium.dylib", "openssl")
    assert (crypto._sodium_verify is None) is (crypto.ED25519_BACKEND == "openssl")
    calls = count_reference_checks(monkeypatch)
    assert verify_signature(PINNED_KEY.pubkey, PINNED_PAYLOAD, PINNED_SIG)
    # where libsodium loaded, a silent fall back to OpenSSL shows as a call
    assert len(calls) == (crypto.ED25519_BACKEND == "openssl")


def test_without_libsodium_openssl_decides_every_verdict(monkeypatch):
    monkeypatch.setattr(crypto, "_sodium_verify", None)
    calls = count_reference_checks(monkeypatch)
    for pk, payload, sig, expected in PINNED.values():
        assert verify_signature(pk, payload, sig) is expected
    assert len(calls) == len(PINNED)


def test_a_libsodium_yes_for_s_at_or_above_the_order_is_not_taken(monkeypatch):
    # stands for an old libsodium that checked only the top bits of S
    monkeypatch.setattr(crypto, "_sodium_verify", lambda sig, payload, n, pk: 0)
    pk, payload, sig, _ = PINNED["S-plus-L"]
    assert not verify_signature(pk, payload, sig)


# Ed25519 signing is deterministic (RFC 8032), so whichever library derives
# and signs, the bytes are OpenSSL's.
SEEDS = st.binary(min_size=32, max_size=32)
PAYLOADS = st.binary(max_size=1024)
LIBSODIUM = pytest.mark.skipif(crypto._sodium_keypair is None, reason="libsodium did not load")


def openssl_reference(seed: bytes, payload: bytes) -> tuple[bytes, bytes]:
    private = Ed25519PrivateKey.from_private_bytes(seed)
    return private.public_key().public_bytes_raw(), private.sign(payload)


def hide_libsodium(monkeypatch):
    for name in ("_sodium_keypair", "_sodium_sign", "_sodium_verify"):
        monkeypatch.setattr(crypto, name, None)


def count_openssl_signing(monkeypatch):
    calls = []
    real = crypto.Ed25519PrivateKey

    class Counted:
        def __init__(self, key):
            self.key = key

        @classmethod
        def from_private_bytes(cls, seed):
            calls.append("derive")
            return cls(real.from_private_bytes(seed))

        def public_key(self):
            return self.key.public_key()

        def sign(self, payload):
            calls.append("sign")
            return self.key.sign(payload)
    monkeypatch.setattr(crypto, "Ed25519PrivateKey", Counted)
    return calls


@LIBSODIUM
@given(SEEDS, PAYLOADS)
def test_libsodium_keys_and_signatures_equal_openssl(seed, payload):
    kp = keypair_from_seed(seed)
    assert isinstance(kp._secret, bytes)
    assert (kp.pubkey, sign_payload(kp, payload)) == openssl_reference(seed, payload)


@given(SEEDS, PAYLOADS)
def test_without_libsodium_keys_and_signatures_are_openssl(seed, payload):
    loaded = keypair_from_seed(seed)
    with pytest.MonkeyPatch.context() as monkeypatch:
        hide_libsodium(monkeypatch)
        calls = count_openssl_signing(monkeypatch)
        kp = keypair_from_seed(seed)
        sig = sign_payload(kp, payload)
    assert calls == ["derive", "sign"]
    assert (kp.pubkey, sig) == openssl_reference(seed, payload)
    assert (loaded.pubkey, sign_payload(loaded, payload)) == (kp.pubkey, sig)


@pytest.mark.parametrize("hidden", [False, True], ids=["loaded", "libsodium-hidden"])
def test_the_secret_never_comes_from_the_pubkey_field(monkeypatch, hidden):
    if hidden:
        hide_libsodium(monkeypatch)
    kp = keypair_from_seed(b"\x03" * 32)
    other = keypair_from_seed(b"\x04" * 32)
    # a key pair whose pubkey field lies still signs under its seed's key:
    # joining the seed to another public key would leak the private key
    forged = dataclasses.replace(kp, pubkey=other.pubkey)
    assert sign_payload(forged, b"hello") == sign_payload(kp, b"hello")


def test_keys_and_signatures_come_from_the_loaded_backend(monkeypatch):
    calls = count_openssl_signing(monkeypatch)
    kp = keypair_from_seed(b"\x09" * 32)
    sig = sign_payload(kp, PINNED_PAYLOAD)
    assert verify_signature(kp.pubkey, PINNED_PAYLOAD, sig)
    # where libsodium loaded, a silent fall back to OpenSSL shows as a call
    assert calls == (["derive", "sign"] if crypto.ED25519_BACKEND == "openssl" else [])

"""Digests, key pairs, signatures, and the verification memo cache."""

import pytest
from hypothesis import given, strategies as st

import mutachain.crypto as crypto
from mutachain import (
    HASH_SIZE,
    NULL_HASH,
    PUBKEY_SIZE,
    SIGNATURE_SIZE,
    digest,
    keypair_from_seed,
    sign_payload,
    verify_signature,
)
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


def test_verify_cache_memoizes_and_stays_bounded():
    kp = keypair_from_seed(b"\x03" * 32)
    payload = b"cached payload"
    sig = sign_payload(kp, payload)
    crypto._VERIFY_CACHE.clear()
    assert verify_signature(kp.pubkey, payload, sig)
    assert len(crypto._VERIFY_CACHE) == 1
    key, verdict = next(iter(crypto._VERIFY_CACHE.items()))
    assert verdict is True
    # hit: the verdict comes out of the memo, entry count is unchanged
    assert verify_signature(kp.pubkey, payload, sig)
    assert len(crypto._VERIFY_CACHE) == 1
    # a poisoned memo being believed proves the lookup short-circuits
    crypto._VERIFY_CACHE[key] = False
    assert not verify_signature(kp.pubkey, payload, sig)
    crypto._VERIFY_CACHE[key] = True

    crypto._VERIFY_CACHE.clear()
    keep = crypto._VERIFY_CACHE_MAX
    try:
        crypto._VERIFY_CACHE_MAX = 4
        for i in range(10):
            verify_signature(kp.pubkey, b"p%d" % i, sig)
        assert len(crypto._VERIFY_CACHE) <= 4
    finally:
        crypto._VERIFY_CACHE_MAX = keep
        crypto._VERIFY_CACHE.clear()

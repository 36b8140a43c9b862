"""Content hashing and signing primitives.

SHA-256 digests identify every protocol value; Ed25519 provides 32-byte
public keys and 64-byte signatures.  All operations are pure and all
values immutable, so they are safe to share between threads; nothing
here caches (``tx.validate_stateless`` keeps one verdict per txid).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

from .errors import EncodingError

HASH_SIZE = 32
PUBKEY_SIZE = 32
SIGNATURE_SIZE = 64
SEED_SIZE = 32

# Reserved sentinel: "no removable predecessor".  Never the digest of
# protocol content (a SHA-256 preimage of all zeros is unknown).
NULL_HASH = b"\x00" * HASH_SIZE


def digest(data: bytes) -> bytes:
    """32-byte SHA-256 digest of ``data``."""
    return hashlib.sha256(data).digest()


@dataclass(frozen=True)
class KeyPair:
    """Signing key with its 32-byte public half.

    ``seed`` is the private key material; two key pairs from the same
    seed are interchangeable.
    """

    seed: bytes
    pubkey: bytes
    _private: Ed25519PrivateKey = field(repr=False, compare=False)

    def __post_init__(self):
        assert len(self.seed) == SEED_SIZE
        assert len(self.pubkey) == PUBKEY_SIZE


def keypair_from_seed(seed: bytes) -> KeyPair:
    """Deterministic key pair; the same seed always yields the same keys."""
    if len(seed) != SEED_SIZE:
        raise EncodingError(f"seed must be {SEED_SIZE} bytes, got {len(seed)}")
    private = Ed25519PrivateKey.from_private_bytes(seed)
    return KeyPair(seed=bytes(seed), pubkey=private.public_key().public_bytes_raw(),
                   _private=private)


def sign_payload(kp: KeyPair, payload: bytes) -> bytes:
    """64-byte Ed25519 signature over ``payload`` (deterministic)."""
    return kp._private.sign(payload)


def verify_signature(pk: bytes, payload: bytes, sig: bytes) -> bool:
    """True iff ``sig`` signs ``payload`` under ``pk``.

    Total function: malformed keys or signatures yield False, never an
    exception.
    """
    if len(pk) != PUBKEY_SIZE or len(sig) != SIGNATURE_SIZE:
        return False
    try:
        Ed25519PublicKey.from_public_bytes(pk).verify(sig, payload)
    except (InvalidSignature, ValueError):
        return False
    return True

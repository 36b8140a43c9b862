"""Content hashing and signing primitives.

SHA-256 digests identify every protocol value; Ed25519 provides 32-byte
public keys and 64-byte signatures.  All operations are pure and all
values immutable, so they are safe to share between threads; nothing
here caches (``tx.validate_stateless`` keeps one verdict per txid).

libsodium, loaded once at import by soname where it is installed,
derives every key pair and makes every signature; elsewhere OpenSSL,
through ``cryptography``, does both.  Ed25519 signing is deterministic
(RFC 8032), so the two emit the same bytes for the same seed and
payload, and every txid and golden file is the same on either host.
The 64-byte secret libsodium signs with is its own derivation from the
seed, never the seed joined to ``KeyPair.pubkey``: signing under a
public key that does not match the seed leaks the private key.

Signatures are checked by both backends.  OpenSSL is the reference and
decides every rejection.  libsodium may only say yes:
``verify_signature`` returns True at once when libsodium accepts a
signature whose S is below the group order L, and asks OpenSSL in every
other case.  libsodium accepts a subset of what OpenSSL accepts (it
also refuses small-order and non-canonical keys and R), and the S < L
guard fences off old releases that checked only the top bits of S, so
the verdicts are OpenSSL's while an honest signature costs one
libsodium call, about half of OpenSSL's.  ``ED25519_BACKEND`` names
the library that answers first.
"""

from __future__ import annotations

import ctypes
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
# libsodium's secret key: the seed, then the public key it derived from it
_SODIUM_SECRET_SIZE = SEED_SIZE + PUBKEY_SIZE

# Reserved sentinel: "no removable predecessor".  Never the digest of
# protocol content (a SHA-256 preimage of all zeros is unknown).
NULL_HASH = b"\x00" * HASH_SIZE


def digest(data: bytes) -> bytes:
    """32-byte SHA-256 digest of ``data``."""
    return hashlib.sha256(data).digest()


@dataclass(frozen=True)
class KeyPair:
    """Signing key with its 32-byte public half, made from a seed by
    ``keypair_from_seed``; two key pairs from the same seed are
    interchangeable.  ``_secret`` is the one private field, what the
    backend that derived the pair signs with: libsodium's 64-byte secret
    key, or an OpenSSL private key where libsodium did not load.
    """

    pubkey: bytes
    _secret: bytes | Ed25519PrivateKey = field(repr=False, compare=False)

    def __post_init__(self):
        if len(self.pubkey) != PUBKEY_SIZE:
            raise EncodingError(f"public key must be {PUBKEY_SIZE} bytes, "
                                f"got {len(self.pubkey)}")
        # libsodium reads 64 bytes through this pointer
        if isinstance(self._secret, bytes) and len(self._secret) != _SODIUM_SECRET_SIZE:
            raise ValueError("libsodium secret key must be 64 bytes")


def keypair_from_seed(seed: bytes) -> KeyPair:
    """Deterministic key pair; the same seed always yields the same keys."""
    if len(seed) != SEED_SIZE:
        raise EncodingError(f"seed must be {SEED_SIZE} bytes, got {len(seed)}")
    seed = bytes(seed)
    if _sodium_keypair is None:
        private = Ed25519PrivateKey.from_private_bytes(seed)
        return KeyPair(pubkey=private.public_key().public_bytes_raw(),
                       _secret=private)
    pk = ctypes.create_string_buffer(PUBKEY_SIZE)
    sk = ctypes.create_string_buffer(_SODIUM_SECRET_SIZE)
    if _sodium_keypair(pk, sk, seed) != 0:
        raise RuntimeError("libsodium failed to derive an Ed25519 key pair")
    return KeyPair(pubkey=pk.raw, _secret=sk.raw)


def sign_payload(kp: KeyPair, payload: bytes) -> bytes:
    """64-byte Ed25519 signature over ``payload`` (deterministic)."""
    if not isinstance(kp._secret, bytes):
        return kp._secret.sign(payload)
    sig = ctypes.create_string_buffer(SIGNATURE_SIZE)
    if _sodium_sign(sig, None, payload, len(payload), kp._secret) != 0:
        raise RuntimeError("libsodium failed to make an Ed25519 signature")
    return sig.raw


# order of the Ed25519 base point
_GROUP_ORDER = 2**252 + 27742317777372353535851937790883648493


def _load_sodium():
    """libsodium's Ed25519 key derivation, detached signing and detached
    check, and the soname they came from, or (None, None, None,
    "openssl").  Sonames only: ``ctypes.util.find_library`` would spawn
    ``ldconfig`` in every process that imports this."""
    for name in ("libsodium.so.23", "libsodium.so.26", "libsodium.dylib"):
        try:
            lib = ctypes.CDLL(name)
        except OSError:
            continue
        lib.sodium_init.argtypes = ()
        lib.sodium_init.restype = ctypes.c_int
        if lib.sodium_init() < 0:
            break
        keypair = lib.crypto_sign_ed25519_seed_keypair
        keypair.argtypes = (ctypes.c_char_p, ctypes.c_char_p, ctypes.c_char_p)
        sign = lib.crypto_sign_ed25519_detached
        sign.argtypes = (ctypes.c_char_p, ctypes.c_void_p, ctypes.c_char_p,
                         ctypes.c_ulonglong, ctypes.c_char_p)
        check = lib.crypto_sign_ed25519_verify_detached
        check.argtypes = (ctypes.c_char_p, ctypes.c_char_p, ctypes.c_ulonglong,
                          ctypes.c_char_p)
        for fn in (keypair, sign, check):
            fn.restype = ctypes.c_int
        return keypair, sign, check, name
    return None, None, None, "openssl"


_sodium_keypair, _sodium_sign, _sodium_verify, ED25519_BACKEND = _load_sodium()


def _verify_openssl(pk: bytes, payload: bytes, sig: bytes) -> bool:
    """The reference check: OpenSSL's verdict on a 32-byte key and a
    64-byte signature."""
    try:
        Ed25519PublicKey.from_public_bytes(pk).verify(sig, payload)
    except (InvalidSignature, ValueError):
        return False
    return True


def verify_signature(pk: bytes, payload: bytes, sig: bytes) -> bool:
    """True iff ``sig`` signs ``payload`` under ``pk``, as OpenSSL judges.

    Total function: malformed keys or signatures yield False, never an
    exception.
    """
    if len(pk) != PUBKEY_SIZE or len(sig) != SIGNATURE_SIZE:
        return False
    # libsodium's yes is final; its no, and any S >= L, go to OpenSSL
    if _sodium_verify is not None \
            and int.from_bytes(sig[32:], "little") < _GROUP_ORDER \
            and _sodium_verify(sig, payload, len(payload), pk) == 0:
        return True
    return _verify_openssl(pk, payload, sig)

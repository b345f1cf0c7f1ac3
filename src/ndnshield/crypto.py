"""Cryptographic primitives: RSA-1024/e=3 signatures, SHA-256, HMAC.

Signatures use the smallest RSA public exponent (3) so verification costs
only two modular multiplications; the signer protocol is small enough that
a cheaper scheme can be dropped in for very large scenarios.

Key generation is deterministic from a seeded generator. Nothing here
calls an OS entropy source, which is what makes whole simulation traces
replayable from a scenario seed.

Every named data packet is made by one seal, `_seal`: it serialises the
packet's image once, takes a signature over it, and appends the digest of
the image plus that signature as the last name component. `sign_packet`
seals with an RSA signature, `forge_packet` with given garbage bytes, so a
forged packet names its own bytes exactly as an honest one does. Both
leave that content hash on the packet they return.

In-run verification (`verify_signature`) does no work twice for the same
inputs: it keeps parsed public keys (the last 256 distinct DER encodings)
and, on each packet like its wire size and content hash, the packet's
signing-image digest and its verdict under every key it was checked
against. The RSA check therefore runs once per (packet, key), and the
verdicts go when their packet does. `verify_bytes` keeps nothing.
"""

from __future__ import annotations

import functools
import hashlib
import hmac as _hmac
import math
import struct
from dataclasses import dataclass, field, replace
from typing import Callable

from cryptography.exceptions import InvalidSignature, UnsupportedAlgorithm
from cryptography.hazmat.primitives import hashes, serialization
from cryptography.hazmat.primitives.asymmetric import padding, rsa
from cryptography.hazmat.primitives.asymmetric.utils import Prehashed

from .packets import (
    DataPacket,
    EmbeddedKey,
    KeyLocator,
    Name,
    canonical_serialize,
    compute_content_hash,
    digest_component,
)
from .rand import Rng

RSA_BITS = 1024
RSA_EXPONENT = 3

_PKCS1 = padding.PKCS1v15()
_SHA256 = hashes.SHA256()
_PREHASHED_SHA256 = Prehashed(_SHA256)


def _primes_below(limit: int) -> list[int]:
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(limit - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, limit, p)))
    return [p for p, prime in enumerate(sieve) if prime]


# Key generation divides each candidate by the primes below 150, then
# takes its gcd with the product of the rest of the primes below 4096
# (see `_is_probable_prime`).
_SMALL_PRIMES = tuple(_primes_below(150))
_SIEVE_PRODUCT = math.prod(_primes_below(4096)[len(_SMALL_PRIMES) :])


def sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def hmac_sha256(key: bytes, data: bytes) -> bytes:
    return _hmac.digest(key, data, "sha256")


def constant_time_equal(a: bytes, b: bytes) -> bool:
    return _hmac.compare_digest(a, b)


def link_mac(key: bytes, body: Name) -> bytes:
    """The MAC a control interest carries as its last component: HMAC-SHA256
    under the link's key over the textual form of the name before it."""
    return hmac_sha256(key, str(body).encode())


def with_link_mac(key: bytes, body: Name) -> Name:
    """The name of a control interest: `body` with its link MAC appended."""
    return body.child(link_mac(key, body))


def link_mac_ok(key: bytes, name: Name) -> bool:
    """Whether a control interest's last component is the link MAC of the
    name before it, compared in constant time."""
    comps = name.components
    return constant_time_equal(comps[-1], link_mac(key, Name(comps[:-1])))


def ls32(digest: bytes) -> int:
    """Least-significant 32 bits of a digest, as an unsigned integer."""
    return int.from_bytes(digest[-4:], "big")


def _is_probable_prime(n: int, rng: Rng, rounds: int = 40) -> bool:
    """Miller-Rabin with `rounds` bases drawn from `rng`. A base that
    passes a round has a^(n-1) = 1 (mod n), so also modulo g, the product
    of n's prime factors from 151 to 4096. Where that fails, the round is
    refused by a `pow` modulo g instead of one modulo n: the same verdict,
    at the same round, after the same draws."""
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    g = math.gcd(n, _SIEVE_PRODUCT)
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(rounds):
        a = 2 + rng.randrange(n - 3)
        if g > 1 and pow(a, n - 1, g) != 1:
            return False
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


def _generate_prime(bits: int, rng: Rng, exponent: int) -> int:
    while True:
        cand = int.from_bytes(rng.bytes(bits // 8), "big")
        cand |= (1 << (bits - 1)) | (1 << (bits - 2)) | 1
        if cand % exponent == 1:
            continue  # gcd(e, p-1) must be 1
        if _is_probable_prime(cand, rng):
            return cand


@dataclass(frozen=True)
class KeyPair:
    """An RSA signing identity; digest identifies the producer on the wire."""

    public_der: bytes
    digest: bytes
    _private: rsa.RSAPrivateKey = field(repr=False, compare=False)

    @classmethod
    def generate(cls, rng: Rng, bits: int = RSA_BITS, exponent: int = RSA_EXPONENT) -> "KeyPair":
        """A key drawn from `rng`. A key is a pure function of the stream it
        is drawn from, so one drawn from a fresh stream (nothing drawn yet)
        is built once per process; a later call gets the same key and
        leaves the stream where building it did."""
        stream_key, counter, buffered, _ = rng.state()
        if counter or buffered:
            return cls._build(rng, bits, exponent)
        memo = (stream_key, bits, exponent)
        hit = _FRESH_KEYS.get(memo)
        if hit is None:
            key = cls._build(rng, bits, exponent)
            if len(_FRESH_KEYS) >= _FRESH_KEYS_MAX:
                del _FRESH_KEYS[next(iter(_FRESH_KEYS))]
            hit = _FRESH_KEYS[memo] = (key, rng.state())
        rng.set_state(hit[1])
        return hit[0]

    @classmethod
    def _build(cls, rng: Rng, bits: int, exponent: int) -> "KeyPair":
        p = _generate_prime(bits // 2, rng, exponent)
        q = _generate_prime(bits // 2, rng, exponent)
        while q == p:
            q = _generate_prime(bits // 2, rng, exponent)
        if p < q:
            p, q = q, p
        n = p * q
        phi = (p - 1) * (q - 1)
        d = pow(exponent, -1, phi)
        private = rsa.RSAPrivateNumbers(
            p=p,
            q=q,
            d=d,
            dmp1=d % (p - 1),
            dmq1=d % (q - 1),
            iqmp=pow(q, -1, p),
            public_numbers=rsa.RSAPublicNumbers(e=exponent, n=n),
        ).private_key()
        public_der = private.public_key().public_bytes(
            serialization.Encoding.DER, serialization.PublicFormat.SubjectPublicKeyInfo
        )
        return cls(public_der=public_der, digest=sha256(public_der), _private=private)

    def sign(self, message: bytes) -> bytes:
        return self._private.sign(message, _PKCS1, _SHA256)


# Keys drawn from fresh streams, by (stream key, bits, exponent): the key
# and the stream state after drawing it. Oldest first; bounded so a long
# sweep over seeds does not keep every key it ever made.
_FRESH_KEYS: dict[tuple[bytes, int, int], tuple[KeyPair, tuple]] = {}
_FRESH_KEYS_MAX = 256


def verify_bytes(public_der: bytes, signature: bytes, message: bytes) -> bool:
    """True iff the signature is valid; malformed keys count as failures."""
    try:
        key = serialization.load_der_public_key(public_der)
        key.verify(signature, message, _PKCS1, _SHA256)
        return True
    except (InvalidSignature, ValueError, TypeError, AttributeError):
        return False


def signing_image(pkt: DataPacket) -> bytes:
    """The byte image a signature covers: everything but the signature and
    the trailing hash component (which cannot exist before signing)."""
    return canonical_serialize(pkt, include_hash_component=False, include_signature=False)


def _seal(draft: DataPacket, sign: Callable[[bytes], bytes]) -> DataPacket:
    """`draft` (no signature, no hash component) signed by `sign` over its
    image, its name ending in the digest of that image plus the signature,
    kept on the packet as `compute_content_hash` keeps it. The image holds
    the whole unsealed name; verifiers strip the appended component."""
    image = canonical_serialize(draft, include_signature=False)
    signature = sign(image)
    content_hash = sha256(image + struct.pack(">I", len(signature)) + signature)
    name = draft.name.child(digest_component(content_hash))
    pkt = replace(draft, name=name, signature=signature)
    object.__setattr__(pkt, "_content_hash", content_hash)
    return pkt


def sign_packet(
    name: Name,
    payload: bytes,
    key: KeyPair,
    key_locator: KeyLocator | None = None,
    *,
    poisoned: bool = False,
) -> DataPacket:
    """Sign a packet and append its digest-typed name component.

    Every data packet on the wire carries its content hash as the final
    name component, so the full name self-certifies the bytes it names.
    """
    locator = key_locator if key_locator is not None else EmbeddedKey(key.public_der)
    draft = DataPacket(name, payload, b"", locator, key.digest, poisoned=poisoned)
    return _seal(draft, key.sign)


def forge_packet(
    name: Name, payload: bytes, signature: bytes, key_der: bytes, key_digest: bytes
) -> DataPacket:
    """A poisoned packet that claims the producer key `key_der` (whose
    digest is `key_digest`) but carries `signature` bytes no key made. Like
    an honest packet, its name ends in the digest of its own bytes."""
    draft = DataPacket(name, payload, b"", EmbeddedKey(key_der), key_digest, poisoned=True)
    return _seal(draft, lambda image: signature)


@functools.lru_cache(maxsize=256)
def _public_key(der: bytes) -> rsa.RSAPublicKey | None:
    """The RSA public key `der` encodes; None when it is malformed or not
    an RSA key, so a bad key fails every verification, not only the first."""
    try:
        key = serialization.load_der_public_key(der)
    except (ValueError, UnsupportedAlgorithm):
        return None
    return key if isinstance(key, rsa.RSAPublicKey) else None


@functools.lru_cache(maxsize=256)
def public_key_digest(der: bytes) -> bytes:
    """SHA-256 of a public key's DER, the digest packets name their
    publisher by; kept per DER, as `_public_key` keeps parsed keys, since
    a consumer checks it on every verify."""
    return sha256(der)


def _signing_digest(pkt: DataPacket) -> bytes:
    """SHA-256 of `signing_image(pkt)`, computed once and kept on the packet."""
    digest = pkt.__dict__.get("_signing_digest")
    if digest is None:
        digest = sha256(signing_image(pkt))
        object.__setattr__(pkt, "_signing_digest", digest)
    return digest


def verify_signature(pkt: DataPacket, public_der: bytes) -> bool:
    """Check the packet signature over its to-be-signed image. Accepts
    exactly what `verify_bytes(public_der, pkt.signature, signing_image(pkt))`
    accepts. The verdict is kept on the packet by key, so the RSA check
    runs only the first time a packet is asked about a key."""
    verdicts = pkt.__dict__.get("_verdicts")
    if verdicts is None:
        verdicts = {}
        object.__setattr__(pkt, "_verdicts", verdicts)
    verdict = verdicts.get(public_der)
    if verdict is None:
        verdict = verdicts[public_der] = _rsa_verify(pkt, public_der)
    return verdict


def _rsa_verify(pkt: DataPacket, public_der: bytes) -> bool:
    key = _public_key(public_der)
    if key is None:
        return False
    try:
        key.verify(pkt.signature, _signing_digest(pkt), _PKCS1, _PREHASHED_SHA256)
    except InvalidSignature:
        return False
    return True


def packet_is_self_consistent(pkt: DataPacket) -> bool:
    """For an embedded key: the advertised producer digest must be the
    digest of the embedded key. Honest producers always satisfy this."""
    if isinstance(pkt.key_locator, EmbeddedKey):
        return public_key_digest(pkt.key_locator.key_der) == pkt.publisher_key_digest
    return True


__all__ = [
    "KeyPair",
    "compute_content_hash",
    "constant_time_equal",
    "forge_packet",
    "hmac_sha256",
    "link_mac",
    "link_mac_ok",
    "ls32",
    "packet_is_self_consistent",
    "public_key_digest",
    "sha256",
    "sign_packet",
    "signing_image",
    "verify_bytes",
    "verify_signature",
    "with_link_mac",
]

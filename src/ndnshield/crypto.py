"""Cryptographic primitives: RSA-1024/e=3 signatures, SHA-256, HMAC.

Signatures are RSASSA-PKCS1-v1_5 with SHA-256 (RFC 8017 §8.2) under the
smallest RSA public exponent, 3, so verification costs two modular
multiplications; the signer protocol is small enough that a cheaper scheme
can be dropped in for very large scenarios.

Key generation is deterministic from a seeded generator. Nothing here
calls an OS entropy source, which is what makes whole simulation traces
replayable from a scenario seed.

No third-party library is used. Where the libcrypto that CPython's
`_hashlib` links is present, reached through ctypes, each Miller-Rabin
round of key generation takes its one 512-bit exponentiation from its
`BN_mod_exp`, and a key signs through `EVP_DigestSign`. Where it is
missing, both run on builtin `pow`, signing by the Chinese remainder
theorem. Verification is plain Python on every platform. It reads only
the key form `KeyPair` builds, since a publisher is named by the digest
of a DER the model made: a DER is a key only if `_spki_der` re-encodes
the modulus it holds to those very bytes. Then `pow(s, e, n)` is
compared byte for byte with the expected encoding. No byte depends on
the path: `pow` and `BN_mod_exp` give the same integer, and a PKCS#1
v1.5 signature is deterministic, the one integer EM^d mod n, so any
correct signer gives the same bytes (RFC 8017 §8.2.1, §9.2). The
platform changes only how long a key or a signature takes.

A key is checked once, when it is built, the same way on both paths: its
CRT values must satisfy the identities RSA needs of them, and a signature
it makes over a fixed message must verify under its published (n, e).
Primality is not tested again: `_is_probable_prime` has already run 40
Miller-Rabin rounds on each prime, where OpenSSL's key check would run
its own on both for some 9 ms per key.

Every named data packet is made by one seal, `_seal`: it serialises the
packet's image once, takes a signature over it, and appends the digest of
the image plus that signature as the last name component. `sign_packet`
seals with an RSA signature, `forge_packet` with garbage bytes, so a
forged packet names its own bytes exactly as an honest one does. Both
leave that content hash on the packet they return.

In-run verification has one entry, `verify_signature(pkt, der)`: the
packet names the key (its publisher digest is the SHA-256 of `der`) and
its signature verifies under it. It keeps the keys read from the last 256
distinct DER encodings and, on each packet like its wire size and content
hash, its verdict under every key it was asked about. The digest and the
RSA check therefore run once per (packet, key), and the verdicts go when
their packet does. `verify_bytes` keeps nothing.
"""

from __future__ import annotations

import functools
import hashlib
import hmac as _hmac
import math
import struct
import weakref
from typing import Callable

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
from .schema import Record

RSA_BITS = 1024
RSA_EXPONENT = 3
_MODULUS_BYTES = RSA_BITS // 8

# DER tags, and the fixed pieces of the encodings: the rsaEncryption OID
# and the NULL parameters of its AlgorithmIdentifier (RFC 8017 §A.1), and
# the DigestInfo prefix of a SHA-256 EMSA-PKCS1-v1_5 encoding (§9.2).
_INTEGER, _BIT_STRING, _SEQUENCE = 0x02, 0x03, 0x30
_RSA_OID = bytes.fromhex("06092a864886f70d010101")
_DER_NULL = b"\x05\x00"
_SHA256_DIGEST_INFO = bytes.fromhex("3031300d060960864801650304020105000420")
_EVP_PKEY_RSA = 6  # NID_rsaEncryption


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


class _LibCrypto:
    """The libcrypto that CPython's `_hashlib` links, reached through
    ctypes (a `CDLL` of `_hashlib` also finds its dependencies' symbols).
    It binds only calls that OpenSSL 1.1.1 and 3.x both export.

    Calls share nothing they write: each allocates its own BIGNUMs and
    contexts and frees them before it returns, since ctypes releases the
    GIL during a foreign call and shared scratch would race between
    threads. A key's signing context is set up once and only read.

    So are the ctypes types of the two output buffers in use, a signature
    and a key-generation exponentiation modulo a half-size prime. ctypes
    keeps such a type only through a weak proxy, and each type it makes
    afresh is a reference cycle that only the cyclic collector frees."""

    def __init__(self, path: str):
        import ctypes

        self._lib = lib = ctypes.CDLL(path)
        self._arrays = {n: ctypes.c_char * n for n in (_MODULUS_BYTES, _MODULUS_BYTES // 2)}
        ptr, c_int, c_char_p = ctypes.c_void_p, ctypes.c_int, ctypes.c_char_p
        for name, restype, argtypes in (
            ("BN_new", ptr, []),
            ("BN_free", None, [ptr]),
            ("BN_bin2bn", ptr, [c_char_p, c_int, ptr]),
            ("BN_bn2binpad", c_int, [ptr, c_char_p, c_int]),
            ("BN_CTX_new", ptr, []),
            ("BN_CTX_free", None, [ptr]),
            ("BN_mod_exp", c_int, [ptr, ptr, ptr, ptr, ptr]),
            ("d2i_PrivateKey", ptr, [c_int, ptr, ctypes.POINTER(c_char_p), ctypes.c_long]),
            ("EVP_PKEY_free", None, [ptr]),
            ("EVP_sha256", ptr, []),
            ("EVP_MD_CTX_new", ptr, []),
            ("EVP_MD_CTX_free", None, [ptr]),
            ("EVP_MD_CTX_copy_ex", c_int, [ptr, ptr]),
            ("EVP_DigestSignInit", c_int, [ptr, ptr, ptr, ptr, ptr]),
            ("EVP_DigestSign", c_int,
             [ptr, c_char_p, ctypes.POINTER(ctypes.c_size_t), c_char_p, ctypes.c_size_t]),
        ):
            fn = getattr(lib, name)
            fn.restype, fn.argtypes = restype, argtypes

    def modexp(self, base: int, exp: int, mod: int) -> int:
        """`pow(base, exp, mod)` for odd `mod` of at least 3, by `BN_mod_exp`."""
        import ctypes

        lib = self._lib
        size = (mod.bit_length() + 7) // 8
        bns = []
        ctx = lib.BN_CTX_new()
        try:
            for value in (base, exp, mod):
                raw = value.to_bytes((value.bit_length() + 7) // 8, "big")
                bns.append(lib.BN_bin2bn(raw, len(raw), None))
            bns.append(lib.BN_new())
            b, e, m, r = bns
            if not (ctx and all(bns) and lib.BN_mod_exp(r, b, e, m, ctx)):
                raise RuntimeError("an OpenSSL BN call failed")
            out = (self._arrays.get(size) or ctypes.c_char * size)()
            if lib.BN_bn2binpad(r, out, size) != size:
                raise RuntimeError("OpenSSL BN_bn2binpad failed")
            return int.from_bytes(out.raw, "big")
        finally:
            for bn in bns:
                lib.BN_free(bn)
            lib.BN_CTX_free(ctx)

    def signer(self, private_der: bytes) -> Callable[[bytes], bytes]:
        """Signing with SHA-256 and PKCS#1 v1.5 padding (RSA's default in
        `EVP_DigestSign`) under the RSAPrivateKey DER `private_der`, which
        `KeyPair._build` checks. Each signature copies a context set up
        once for the key, which spares a signature the algorithm fetches
        of `EVP_DigestSignInit`.
        Key and context are freed when the returned function goes."""
        import ctypes

        lib = self._lib
        cursor = ctypes.c_char_p(private_der)
        pkey = lib.d2i_PrivateKey(_EVP_PKEY_RSA, None, ctypes.byref(cursor), len(private_der))
        if not pkey:
            raise ValueError("OpenSSL could not load the RSA private key")
        template = lib.EVP_MD_CTX_new()
        if not (template and lib.EVP_DigestSignInit(template, None, lib.EVP_sha256(), None, pkey) == 1):
            self._free_key(template, pkey)
            raise RuntimeError("OpenSSL could not set up RSA signing")
        md_new, md_free, md_copy, digest_sign = (
            lib.EVP_MD_CTX_new, lib.EVP_MD_CTX_free, lib.EVP_MD_CTX_copy_ex, lib.EVP_DigestSign)
        signature_buffer = self._arrays[_MODULUS_BYTES]

        def sign(message: bytes) -> bytes:
            out = signature_buffer()
            size = ctypes.c_size_t(_MODULUS_BYTES)
            ctx = md_new()
            try:
                if not (ctx and md_copy(ctx, template) == 1
                        and digest_sign(ctx, out, ctypes.byref(size), message, len(message)) == 1
                        and size.value == _MODULUS_BYTES):
                    raise RuntimeError("OpenSSL RSA signing failed")
            finally:
                md_free(ctx)
            return out.raw

        weakref.finalize(sign, self._free_key, template, pkey)
        return sign

    def _free_key(self, template: int, pkey: int) -> None:
        self._lib.EVP_MD_CTX_free(template)
        self._lib.EVP_PKEY_free(pkey)


@functools.cache
def _libcrypto() -> _LibCrypto | None:
    """This process's libcrypto, bound on first use so that importing the
    package loads no ctypes; None where `_hashlib` is missing or does not
    export every call `_LibCrypto` binds. Key generation and signing both
    take their path from it."""
    try:
        import _hashlib

        return _LibCrypto(_hashlib.__file__)
    except (ImportError, OSError, AttributeError):
        return None


def _is_probable_prime(n: int, rng: Rng, rounds: int = 40) -> bool:
    """Miller-Rabin with `rounds` bases drawn from `rng`. A base that
    passes a round has a^(n-1) = 1 (mod n), so also modulo g, the product
    of n's prime factors from 151 to 4096. Where that fails, the round is
    refused by a `pow` modulo g instead of one modulo n: the same verdict,
    at the same round, after the same draws.

    Each round's one full exponentiation, a^d mod n, runs in OpenSSL's
    `BN_mod_exp` where `_libcrypto` finds it, else in `pow`. Both return
    the same integer, so no verdict, draw or key depends on which ran."""
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    g = math.gcd(n, _SIEVE_PRODUCT)
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    lib = _libcrypto()
    modexp = pow if lib is None else lib.modexp
    for _ in range(rounds):
        a = 2 + rng.randrange(n - 3)
        if g > 1 and pow(a, n - 1, g) != 1:
            return False
        x = modexp(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


def _generate_prime(rng: Rng) -> int:
    bits = RSA_BITS // 2
    while True:
        cand = int.from_bytes(rng.bytes(bits // 8), "big")
        cand |= (1 << (bits - 1)) | (1 << (bits - 2)) | 1
        if cand % RSA_EXPONENT == 1:
            continue  # gcd(e, p-1) must be 1
        if _is_probable_prime(cand, rng):
            return cand


def _der(tag: int, *parts: bytes) -> bytes:
    """One DER element: `tag`, the definite length of the joined `parts`,
    then the parts."""
    body = b"".join(parts)
    size = len(body)
    if size < 0x80:
        return bytes((tag, size)) + body
    length = size.to_bytes((size.bit_length() + 7) // 8, "big")
    return bytes((tag, 0x80 | len(length))) + length + body


def _der_uint(value: int) -> bytes:
    """A non-negative INTEGER, in the fewest bytes that leave its sign bit clear."""
    return _der(_INTEGER, value.to_bytes(value.bit_length() // 8 + 1, "big"))


def _spki_der(n: int, e: int) -> bytes:
    """The SubjectPublicKeyInfo DER of the RSA public key (n, e)."""
    rsa_key = _der(_SEQUENCE, _der_uint(n), _der_uint(e))
    return _der(_SEQUENCE, _der(_SEQUENCE, _RSA_OID, _DER_NULL), _der(_BIT_STRING, b"\0", rsa_key))


# Where n's `RSA_BITS // 8` bytes sit in what `_spki_der` writes for a key
# the model builds, found once in the encoding of a probe modulus.
_PROBE_N = (1 << RSA_BITS) - 1
_N_AT = _spki_der(_PROBE_N, RSA_EXPONENT).index(_PROBE_N.to_bytes(_MODULUS_BYTES, "big"))


def _model_key(der: bytes) -> tuple[int, int] | None:
    """The RSA public key (n, e) of `der` if `der` is exactly what
    `_spki_der` writes for a key `KeyPair` builds: an odd n of `RSA_BITS`
    bits under `RSA_EXPONENT`. None for any other bytes, whatever key they
    may encode: every key the model names a publisher by is of this form."""
    n = int.from_bytes(der[_N_AT : _N_AT + _MODULUS_BYTES], "big")
    # n's length counts too: for a shorter DER the window runs on into the
    # trailer, and some such n re-encode to the very DER they are read from.
    if n % 2 and n.bit_length() == RSA_BITS and _spki_der(n, RSA_EXPONENT) == der:
        return n, RSA_EXPONENT
    return None


def _emsa_pkcs1_v15(digest: bytes, size: int) -> bytes:
    """The EMSA-PKCS1-v1_5 encoding, `size` bytes long, of a message whose
    SHA-256 is `digest` (RFC 8017 §9.2)."""
    padding = size - 3 - len(_SHA256_DIGEST_INFO) - len(digest)
    return b"\0\1" + b"\xff" * padding + b"\0" + _SHA256_DIGEST_INFO + digest


def _rsa_check(key: tuple[int, int], signature: bytes, digest: bytes) -> bool:
    """RSASSA-PKCS1-v1_5 verification (RFC 8017 §8.2.2) of `signature`
    over a message whose SHA-256 is `digest`, under the public key (n, e):
    the signature is as long as n and below it, and s^e mod n is the
    message's encoding, byte for byte."""
    n, e = key
    size = (n.bit_length() + 7) // 8
    if len(signature) != size:
        return False
    s = int.from_bytes(signature, "big")
    return s < n and pow(s, e, n).to_bytes(size, "big") == _emsa_pkcs1_v15(digest, size)


def _pow_signer(p: int, q: int, d_p: int, d_q: int, q_inv: int) -> Callable[[bytes], bytes]:
    """Signing with builtin `pow`, by the Chinese remainder theorem (RFC
    8017 §5.1.2): the signature OpenSSL's signer gives, in about 1.4 ms
    against its 0.1 ms."""

    def sign(message: bytes) -> bytes:
        m = int.from_bytes(_emsa_pkcs1_v15(sha256(message), _MODULUS_BYTES), "big")
        s_q = pow(m, d_q, q)
        s = s_q + q * (q_inv * (pow(m, d_p, p) - s_q) % p)
        return s.to_bytes(_MODULUS_BYTES, "big")

    return sign


class KeyPair(Record, frozen=True, not_compared=("sign",), not_shown=("sign",)):
    """An RSA signing identity; digest identifies the producer on the wire.
    `sign(message)` is the RSASSA-PKCS1-v1_5 SHA-256 signature of
    `message`, `RSA_BITS // 8` bytes long; `locator` embeds the public key."""

    public_der: bytes
    digest: bytes
    sign: Callable[[bytes], bytes]

    def __post_init__(self):
        object.__setattr__(self, "locator", EmbeddedKey(self.public_der))

    @classmethod
    def generate(cls, rng: Rng) -> "KeyPair":
        """A key drawn from `rng`. A key is a pure function of the stream it
        is drawn from, so one drawn from a fresh stream (nothing drawn yet)
        is built once per process; a later call gets the same key and
        leaves the stream where building it did."""
        stream_key, counter, buffered, _ = rng.state()
        if counter or buffered:
            return cls._build(rng)
        hit = _FRESH_KEYS.get(stream_key)
        if hit is None:
            key = cls._build(rng)
            if len(_FRESH_KEYS) >= _FRESH_KEYS_MAX:
                del _FRESH_KEYS[next(iter(_FRESH_KEYS))]
            hit = _FRESH_KEYS[stream_key] = (key, rng.state())
        rng.set_state(hit[1])
        return hit[0]

    @classmethod
    def _build(cls, rng: Rng) -> "KeyPair":
        p = _generate_prime(rng)
        q = _generate_prime(rng)
        while q == p:
            q = _generate_prime(rng)
        if p < q:
            p, q = q, p
        n, e = p * q, RSA_EXPONENT
        d = pow(e, -1, (p - 1) * (q - 1))
        d_p, d_q, q_inv = d % (p - 1), d % (q - 1), pow(q, -1, p)
        # The identities a key check tests, bar primality (see the module
        # docstring).
        if (e * d % math.lcm(p - 1, q - 1), e * d_p % (p - 1), e * d_q % (q - 1),
                q * q_inv % p) != (1, 1, 1, 1):
            raise ValueError("the RSA key's CRT values are inconsistent")
        lib = _libcrypto()
        if lib is not None:
            # RSAPrivateKey (RFC 8017 §A.1.2), version 0.
            private_der = _der(_SEQUENCE, *map(_der_uint, (0, n, e, d, p, q, d_p, d_q, q_inv)))
            sign = lib.signer(private_der)
        else:
            sign = _pow_signer(p, q, d_p, d_q, q_inv)
        # Pairwise self-test: the signer must sign for the published key.
        if not _rsa_check((n, e), sign(_SELF_TEST), sha256(_SELF_TEST)):
            raise ValueError("the RSA key failed its pairwise self-test")
        public_der = _spki_der(n, e)
        return cls(public_der=public_der, digest=sha256(public_der), sign=sign)


_SELF_TEST = b"ndnshield key self-test"


# Keys drawn from fresh streams, by stream key: the key and the stream
# state after drawing it. Oldest first; bounded so a long sweep over seeds
# does not keep every key it ever made.
_FRESH_KEYS: dict[bytes, tuple[KeyPair, tuple]] = {}
_FRESH_KEYS_MAX = 256


def verify_bytes(public_der: bytes, signature: bytes, message: bytes) -> bool:
    """True iff the signature is valid under `public_der`, a key of the
    form `_model_key` reads; any other DER counts as a failure."""
    key = _model_key(public_der)
    return key is not None and _rsa_check(key, signature, sha256(message))


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
    pkt = draft.replace(name=name, signature=signature)
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
    locator = key_locator if key_locator is not None else key.locator
    draft = DataPacket(name, payload, b"", locator, key.digest, poisoned=poisoned)
    return _seal(draft, key.sign)


def forge_packet(name: Name, payload: bytes, key_der: bytes, rng: Rng) -> DataPacket:
    """A poisoned packet that claims the producer key `key_der` but carries
    a signature of garbage bytes drawn from `rng`, as long as a real one.
    Like an honest packet, its name ends in the digest of its own bytes."""
    signature = rng.bytes(_MODULUS_BYTES)
    draft = DataPacket(name, payload, b"", EmbeddedKey(key_der), sha256(key_der), poisoned=True)
    return _seal(draft, lambda image: signature)


# `_model_key` kept for the last 256 distinct DER encodings, so a key is
# re-encoded once, not at every verification it takes part in.
_public_key = functools.lru_cache(maxsize=256)(_model_key)


def verify_signature(pkt: DataPacket, public_der: bytes) -> bool:
    """Whether `pkt` names the key `public_der` (its publisher digest is the
    key's SHA-256) and its signature over its to-be-signed image verifies
    under that key, as `verify_bytes` judges it. The verdict is kept on the
    packet by key, so both checks run only the first time a packet is
    asked about a key."""
    verdicts = pkt.__dict__.get("_verdicts")
    if verdicts is None:
        verdicts = {}
        object.__setattr__(pkt, "_verdicts", verdicts)
    verdict = verdicts.get(public_der)
    if verdict is None:
        verdict = verdicts[public_der] = (
            sha256(public_der) == pkt.publisher_key_digest and _rsa_verify(pkt, public_der)
        )
    return verdict


def _rsa_verify(pkt: DataPacket, public_der: bytes) -> bool:
    key = _public_key(public_der)
    return key is not None and _rsa_check(key, pkt.signature, sha256(signing_image(pkt)))


__all__ = [
    "KeyPair",
    "compute_content_hash",
    "constant_time_equal",
    "forge_packet",
    "hmac_sha256",
    "link_mac",
    "link_mac_ok",
    "ls32",
    "sha256",
    "sign_packet",
    "signing_image",
    "verify_bytes",
    "verify_signature",
    "with_link_mac",
]

"""Signatures, content hashes, and the deterministic key generator."""

from __future__ import annotations

import hashlib
import math
import sys

import pytest
from cryptography.hazmat.primitives import serialization
from cryptography.hazmat.primitives.asymmetric import ec
from hypothesis import given, settings
from hypothesis import strategies as st

from ndnshield import crypto
from ndnshield.crypto import (
    KeyPair,
    compute_content_hash,
    forge_packet,
    hmac_sha256,
    ls32,
    packet_is_self_consistent,
    sign_packet,
    signing_image,
    verify_bytes,
    verify_signature,
)
from ndnshield.packets import (
    DataPacket,
    EmbeddedKey,
    Name,
    component_digest,
    is_digest_component,
    parse_name,
)
from ndnshield.rand import Rng
from sha256_oracle import sha256_oracle

# FIPS-180-4 test vectors: trust nothing until both implementations pass them.
FIPS_VECTORS = [
    (b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
    (b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (
        b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
    ),
]


@pytest.fixture(scope="module")
def key():
    return KeyPair.generate(Rng(42, "test-key"))


@pytest.fixture(scope="module")
def other_key():
    return KeyPair.generate(Rng(43, "other-key"))


def test_sha256_fips_vectors():
    for message, hexdigest in FIPS_VECTORS:
        assert hashlib.sha256(message).hexdigest() == hexdigest
        assert sha256_oracle(message).hex() == hexdigest


def test_keypair_digest_deterministic(key):
    crypto._FRESH_KEYS.clear()  # build the key again, not from the memo
    regenerated = KeyPair.generate(Rng(42, "test-key"))
    assert regenerated is not key
    assert regenerated.public_der == key.public_der
    assert regenerated.digest == key.digest
    assert key.digest == hashlib.sha256(key.public_der).digest()


def test_keypair_memo_reuses_fresh_stream_keys():
    first_rng, second_rng = Rng(44, "memo-key"), Rng(44, "memo-key")
    first = KeyPair.generate(first_rng)
    assert KeyPair.generate(second_rng) is first
    assert second_rng.state() == first_rng.state()  # left where building left it
    used = Rng(44, "memo-key")
    used.u64()
    assert KeyPair.generate(used) is not first  # a used stream bypasses the memo


def _plain_miller_rabin(n: int, rng: Rng, rounds: int = 40) -> bool:
    """Miller-Rabin with no gcd pre-check: the oracle for which candidates
    key generation accepts and which draws it makes."""
    for p in crypto._SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for _ in range(rounds):
        x = pow(2 + rng.randrange(n - 3), d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


def test_keygen_equals_plain_miller_rabin(monkeypatch):
    for seed in range(20):
        rng = Rng(seed, "keygen-oracle")
        built = KeyPair._build(rng, crypto.RSA_BITS, crypto.RSA_EXPONENT)
        with monkeypatch.context() as patch:
            patch.setattr(crypto, "_is_probable_prime", _plain_miller_rabin)
            oracle_rng = Rng(seed, "keygen-oracle")
            oracle = KeyPair._build(oracle_rng, crypto.RSA_BITS, crypto.RSA_EXPONENT)
        assert built.public_der == oracle.public_der, seed
        assert rng.state() == oracle_rng.state(), seed


@pytest.fixture(scope="module")
def openssl_modexp():
    modexp = crypto._openssl_modexp()
    if modexp is None:
        pytest.skip("this Python's _hashlib has no OpenSSL BN calls")
    return modexp


@st.composite
def _modexp_args(draw):
    bits = draw(st.integers(2, 1024))
    m = draw(st.integers(1 << (bits - 1), (1 << bits) - 1)) | 1
    b = draw(st.sampled_from([0, 1, m - 1]) | st.integers(0, m - 1))
    return b, draw(st.integers(0, m)), m


@given(args=_modexp_args())
@settings(max_examples=200, deadline=None)
def test_openssl_modexp_equals_pow(openssl_modexp, args):
    b, e, m = args
    assert openssl_modexp(b, e, m) == pow(b, e, m)


def test_keygen_is_the_same_with_builtin_pow(monkeypatch):
    for seed in range(6):
        rng = Rng(seed, "keygen-modexp")
        built = KeyPair._build(rng, crypto.RSA_BITS, crypto.RSA_EXPONENT)
        with monkeypatch.context() as patch:
            patch.setattr(crypto, "_modexp", pow)
            pow_rng = Rng(seed, "keygen-modexp")
            with_pow = KeyPair._build(pow_rng, crypto.RSA_BITS, crypto.RSA_EXPONENT)
        assert built.public_der == with_pow.public_der, seed
        assert rng.state() == pow_rng.state(), seed


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="OpenSSL path checked on Linux")
def test_keygen_loads_the_openssl_modexp_on_linux(monkeypatch):
    """A silent fallback to builtin `pow` makes every key about 5x slower."""
    monkeypatch.setattr(crypto, "_modexp", None)
    KeyPair._build(Rng(0, "keygen-path"), crypto.RSA_BITS, crypto.RSA_EXPONENT)
    assert crypto._modexp is not None and crypto._modexp is not pow


def test_base_passing_the_gcd_check_falls_through_to_miller_rabin():
    """A composite whose first drawn base passes a^(n-1) = 1 (mod g), so
    the full round must refuse it. Seed 201 is the first, counting from 0,
    whose 512-bit draw is such a candidate: no factor below 150, the
    factor 281, and a base that passes modulo 281."""
    rng = Rng(201, "fall-through")
    n = int.from_bytes(rng.bytes(64), "big") | (3 << 510) | 1
    assert all(n % p for p in crypto._SMALL_PRIMES)
    g = math.gcd(n, crypto._SIEVE_PRODUCT)
    assert g == 281
    peek, oracle_rng = Rng(0), Rng(0)
    peek.set_state(rng.state())
    oracle_rng.set_state(rng.state())
    assert pow(2 + peek.randrange(n - 3), n - 1, g) == 1
    assert crypto._is_probable_prime(n, rng) is False
    assert _plain_miller_rabin(n, oracle_rng) is False
    assert rng.state() == oracle_rng.state()


def test_sign_then_verify(key):
    pkt = sign_packet(parse_name("/ndn/site/item"), b"payload", key)
    assert verify_signature(pkt, key.public_der)
    assert pkt.publisher_key_digest == key.digest


def test_verify_wrong_key_fails(key, other_key):
    pkt = sign_packet(parse_name("/ndn/site/item"), b"payload", key)
    assert not verify_signature(pkt, other_key.public_der)


def test_verify_tampered_payload_fails(key):
    pkt = sign_packet(parse_name("/ndn/site/item"), b"payload", key)
    tampered = DataPacket(
        pkt.name, b"Qayload", pkt.signature, pkt.key_locator, pkt.publisher_key_digest
    )
    assert not verify_signature(tampered, key.public_der)


def test_verify_tampered_name_fails(key):
    pkt = sign_packet(parse_name("/ndn/site/item"), b"payload", key)
    renamed = DataPacket(
        Name((b"ndn", b"site", b"other", pkt.name.components[-1])),
        pkt.payload,
        pkt.signature,
        pkt.key_locator,
        pkt.publisher_key_digest,
    )
    assert not verify_signature(renamed, key.public_der)


def test_verify_malformed_key_is_false(key):
    pkt = sign_packet(parse_name("/n"), b"p", key)
    assert not verify_signature(pkt, b"not a der key")


# A well-formed public key that is not RSA.
_EC_DER = ec.derive_private_key(7, ec.SECP256R1()).public_key().public_bytes(
    serialization.Encoding.DER, serialization.PublicFormat.SubjectPublicKeyInfo
)


def _flip(data: bytes, at: int) -> bytes:
    out = bytearray(data)
    out[at % len(out)] ^= 0x01
    return bytes(out)


@settings(max_examples=60, deadline=None)
@given(
    comps=st.lists(st.binary(min_size=1, max_size=12), min_size=1, max_size=4),
    payload=st.binary(min_size=1, max_size=64),
    tamper=st.sampled_from(["none", "signature", "payload", "name"]),
    verifier=st.sampled_from(["own", "other", "garbage", "truncated", "empty", "ec"]),
    at=st.integers(min_value=0, max_value=10_000),
)
def test_cached_verify_agrees_with_cold_verify(
    key, other_key, comps, payload, tamper, verifier, at
):
    """`verify_signature` (kept key, digest and verdicts) gives the verdict
    of `verify_bytes` (key decoded and image hashed on every call), also
    when asked twice about a malformed or non-RSA key, and when one packet
    is asked about several keys in turn."""
    pkt = sign_packet(Name(tuple(comps)), payload, key)
    name, signature = pkt.name, pkt.signature
    if tamper == "signature":
        signature = _flip(signature, at)
    elif tamper == "payload":
        payload = _flip(payload, at)
    elif tamper == "name":
        i = at % (len(name.components) - 1)  # the hash component is not signed
        comps = list(name.components)
        comps[i] = _flip(comps[i], at)
        name = Name(tuple(comps))
    pkt = DataPacket(name, payload, signature, pkt.key_locator, pkt.publisher_key_digest)
    der = {
        "own": key.public_der,
        "other": other_key.public_der,
        "garbage": b"not a der key",
        "truncated": key.public_der[: at % len(key.public_der)],
        "empty": b"",
        "ec": _EC_DER,
    }[verifier]
    cold = verify_bytes(der, pkt.signature, signing_image(pkt))
    assert cold == (tamper == "none" and verifier == "own")
    assert verify_signature(pkt, der) == cold
    assert verify_signature(pkt, der) == cold
    for asked in (key.public_der, other_key.public_der, b"not a der key", key.public_der, der):
        assert verify_signature(pkt, asked) == verify_bytes(
            asked, pkt.signature, signing_image(pkt)
        )


def test_rsa_check_runs_once_per_packet_and_key(key, other_key, monkeypatch):
    """Asking a packet again about a key it was checked against reuses the
    verdict; a new key or a new packet runs the check."""
    calls = []
    check = crypto._rsa_verify

    def counted(pkt, der):
        calls.append((id(pkt), der))
        return check(pkt, der)

    monkeypatch.setattr(crypto, "_rsa_verify", counted)
    first = sign_packet(parse_name("/v/1"), b"one", key)
    second = sign_packet(parse_name("/v/2"), b"two", key)
    asked = (key.public_der, other_key.public_der, b"not a der key")
    for _ in range(3):
        for pkt in (first, second):
            assert [verify_signature(pkt, der) for der in asked] == [True, False, False]
    assert sorted(calls) == sorted((id(pkt), der) for pkt in (first, second) for der in asked)


def test_signer_and_verifier_memos_leave_packet_value_alone(key, other_key):
    """The content hash `sign_packet` and `forge_packet` leave on their
    packets and the signing digest `verify_signature` keeps are the values
    an equal packet built from scratch yields, and neither they nor the
    verdicts kept for two keys change the packet's value."""
    signed = sign_packet(parse_name("/m/1"), b"payload", key)
    forged = forge_packet(parse_name("/m/2"), b"payload", b"\x5a" * 128, key.public_der, key.digest)

    def rebuilt(pkt):
        return DataPacket(
            pkt.name, pkt.payload, pkt.signature, pkt.key_locator, pkt.publisher_key_digest,
            poisoned=pkt.poisoned,
        )

    for pkt, valid in ((signed, True), (forged, False)):
        fresh, untouched = rebuilt(pkt), rebuilt(pkt)
        assert pkt.__dict__["_content_hash"] == compute_content_hash(fresh)
        assert compute_content_hash(fresh) == component_digest(fresh.name.last)
        assert verify_signature(pkt, key.public_der) is valid
        assert verify_signature(pkt, other_key.public_der) is False
        assert pkt.__dict__["_signing_digest"] == hashlib.sha256(signing_image(fresh)).digest()
        assert pkt == untouched and hash(pkt) == hash(untouched)
        assert repr(pkt) == repr(untouched)


def test_signed_packet_carries_hash_component(key):
    pkt = sign_packet(parse_name("/ndn/site/item"), b"payload", key)
    assert is_digest_component(pkt.name.components[-1])
    assert component_digest(pkt.name.components[-1]) == compute_content_hash(pkt)
    assert pkt.base_name() == parse_name("/ndn/site/item")


def test_content_hash_deterministic(key):
    pkt = sign_packet(parse_name("/n"), b"p", key)
    assert compute_content_hash(pkt) == compute_content_hash(pkt)


def test_content_hash_changes_with_signature_byte(key):
    pkt = sign_packet(parse_name("/n"), b"p", key)
    sig = bytearray(pkt.signature)
    sig[0] ^= 0x01
    flipped = DataPacket(
        pkt.name, pkt.payload, bytes(sig), pkt.key_locator, pkt.publisher_key_digest
    )
    assert compute_content_hash(flipped) != compute_content_hash(pkt)


def test_content_hash_matches_independent_sha256(key):
    from ndnshield.packets import canonical_serialize

    pkt = sign_packet(parse_name("/ndn/site/item"), b"payload bytes", key)
    image = canonical_serialize(pkt, include_hash_component=False, include_signature=True)
    assert compute_content_hash(pkt) == sha256_oracle(image)


def test_signing_image_excludes_hash_component_and_signature(key):
    pkt = sign_packet(parse_name("/a/b"), b"p", key)
    image = signing_image(pkt)
    assert pkt.signature not in image
    assert pkt.name.components[-1] not in image


def test_forged_packet_fails_verification(key):
    forged = forge_packet(parse_name("/a"), b"junk", b"\x00" * 128, key.public_der, key.digest)
    assert not verify_signature(forged, key.public_der)
    assert forged.poisoned
    assert packet_is_self_consistent(forged)  # it claims the key it names


def test_self_consistency_check(key, other_key):
    honest = sign_packet(parse_name("/n"), b"p", key)
    assert packet_is_self_consistent(honest)
    lying = DataPacket(
        honest.name, honest.payload, honest.signature, EmbeddedKey(key.public_der),
        other_key.digest,
    )
    assert not packet_is_self_consistent(lying)


def test_hmac_sha256_rfc4231_vector():
    # RFC 4231 test case 2.
    out = hmac_sha256(b"Jefe", b"what do ya want for nothing?")
    assert out.hex() == "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"


def test_ls32():
    assert ls32(bytes(31) + b"\x2a") == 42
    assert ls32(b"\xff" * 32) == 2 ** 32 - 1

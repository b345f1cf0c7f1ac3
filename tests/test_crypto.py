"""Signatures, content hashes, and the deterministic key generator."""

from __future__ import annotations

import hashlib
import hmac
import math
import struct
import sys

import pytest
from cryptography.hazmat.primitives import hashes, serialization
from cryptography.hazmat.primitives.asymmetric import ec, padding, rsa
from hypothesis import given, settings
from hypothesis import strategies as st

from ndnshield import crypto
from ndnshield.crypto import (
    KeyPair,
    compute_content_hash,
    forge_packet,
    hmac_sha256,
    link_mac,
    link_mac_ok,
    ls32,
    sha256,
    sign_packet,
    signing_image,
    verify_bytes,
    verify_signature,
    with_link_mac,
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
        built = KeyPair._build(rng)
        with monkeypatch.context() as patch:
            patch.setattr(crypto, "_is_probable_prime", _plain_miller_rabin)
            oracle_rng = Rng(seed, "keygen-oracle")
            oracle = KeyPair._build(oracle_rng)
        assert built.public_der == oracle.public_der, seed
        assert rng.state() == oracle_rng.state(), seed


@pytest.fixture(scope="module")
def openssl_modexp():
    lib = crypto._libcrypto()
    if lib is None:
        pytest.skip("this Python's _hashlib has no OpenSSL calls")
    return lib.modexp


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
        built = KeyPair._build(rng)
        with monkeypatch.context() as patch:
            patch.setattr(crypto, "_libcrypto", lambda: None)
            pow_rng = Rng(seed, "keygen-modexp")
            with_pow = KeyPair._build(pow_rng)
        assert built.public_der == with_pow.public_der, seed
        assert rng.state() == pow_rng.state(), seed


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="OpenSSL path checked on Linux")
def test_keygen_loads_the_openssl_modexp_on_linux(monkeypatch):
    """A silent fallback to builtin `pow` makes every key about 5x slower."""
    assert crypto._libcrypto() is not None
    calls = []
    monkeypatch.setattr(crypto._LibCrypto, "modexp", lambda _, *args: calls.append(args) or pow(*args))
    KeyPair._build(Rng(0, "keygen-path"))
    assert calls


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="OpenSSL path checked on Linux")
def test_keys_sign_through_libcrypto_on_linux():
    """A silent fallback to `pow` makes every signature about 13x slower."""
    key = KeyPair._build(Rng(0, "sign-path"))
    assert key.sign.__qualname__ == "_LibCrypto.signer.<locals>.sign"


def _paths():
    """The signer paths this platform has: libcrypto where `_hashlib` links
    it, and builtin `pow` everywhere."""
    return ["pow"] if crypto._libcrypto() is None else ["libcrypto", "pow"]


def _on_path(patch: pytest.MonkeyPatch, path: str) -> None:
    if path == "pow":
        patch.setattr(crypto, "_libcrypto", lambda: None)


def test_libcrypto_signer_checks_the_key():
    """`KeyPair._build` refuses a key whose CRT values disagree, on either
    signer path, before any signer is loaded: here q^-1 mod p is off by
    one."""
    real_pow = pow

    def skewed_pow(base, exp, mod=None):
        result = real_pow(base, exp, mod)
        return result + 1 if exp == -1 and mod % 2 else result  # only q^-1 mod p

    for path in _paths():
        with pytest.MonkeyPatch.context() as patch:
            _on_path(patch, path)
            assert KeyPair._build(Rng(3, "key-check")).sign(b"m")
            patch.setattr(crypto, "pow", skewed_pow, raising=False)
            with pytest.raises(ValueError, match="CRT values are inconsistent"):
                KeyPair._build(Rng(3, "key-check"))


def test_build_refuses_a_signer_for_another_key(other_key):
    """The pairwise self-test: a signer that signs for another key than
    the one `KeyPair._build` publishes is refused, on either path."""
    for path in _paths():
        with pytest.MonkeyPatch.context() as patch:
            _on_path(patch, path)
            if path == "pow":
                patch.setattr(crypto, "_pow_signer", lambda *values: other_key.sign)
            else:
                patch.setattr(crypto._LibCrypto, "signer", lambda self, der: other_key.sign)
            with pytest.raises(ValueError, match="pairwise self-test"):
                KeyPair._build(Rng(3, "key-check"))


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


def _build_with_primes(rng: Rng) -> tuple[KeyPair, int, int]:
    """A key built from `rng`, with its primes p > q."""
    primes = []
    draw = crypto._generate_prime
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(crypto, "_generate_prime", lambda rng: primes.append(draw(rng)) or primes[-1])
        key = KeyPair._build(rng)
    return key, max(primes[-2:]), min(primes[-2:])


def _oracle_private_key(p: int, q: int) -> rsa.RSAPrivateKey:
    """cryptography's RSA key with primes p and q and e = 3, its private
    values derived by cryptography's own helpers."""
    e = crypto.RSA_EXPONENT
    d = rsa.rsa_recover_private_exponent(e, p, q)
    return rsa.RSAPrivateNumbers(
        p, q, d, rsa.rsa_crt_dmp1(d, p), rsa.rsa_crt_dmq1(d, q), rsa.rsa_crt_iqmp(p, q),
        rsa.RSAPublicNumbers(e, p * q),
    ).private_key()


@pytest.mark.parametrize("path", ["libcrypto", "pow"])
def test_signatures_and_public_key_equal_cryptographys(monkeypatch, path):
    """Whichever signer the platform picks, a key's signatures and its
    SubjectPublicKeyInfo DER are cryptography's, byte for byte."""
    if path == "pow":
        monkeypatch.setattr(crypto, "_libcrypto", lambda: None)
    elif crypto._libcrypto() is None:
        pytest.skip("this Python's _hashlib has no OpenSSL calls")
    messages = Rng(0, "oracle-messages")
    for seed in range(6):
        key, p, q = _build_with_primes(Rng(seed, "sign-oracle"))
        oracle = _oracle_private_key(p, q)
        assert key.public_der == oracle.public_key().public_bytes(
            serialization.Encoding.DER, serialization.PublicFormat.SubjectPublicKeyInfo)
        for _ in range(4):
            message = messages.bytes(messages.randrange(600))
            expected = oracle.sign(message, padding.PKCS1v15(), hashes.SHA256())
            assert key.sign(message) == expected, seed


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
    of `verify_bytes` (key read and image hashed on every call), also
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


def _tlv(tag: int, body: bytes, long_form: bool = False) -> bytes:
    """A DER element, or with `long_form` one whose length takes a byte more
    than DER allows: long form where short is due, or a leading zero."""
    width = (len(body).bit_length() + 7) // 8
    if not long_form:
        if len(body) < 0x80:
            return bytes((tag, len(body))) + body
    elif len(body) < 0x80:
        width = 1
    else:
        width += 1
    return bytes((tag, 0x80 | width)) + len(body).to_bytes(width, "big") + body


def _spki(
    n: int, e: int, *, null: bool = True, unused: int = 0, long_form: str = "", zero: str = ""
) -> bytes:
    """An RSA SubjectPublicKeyInfo, its INTEGERs in two's complement and
    its BIT STRING claiming `unused` trailing bits, with the element named
    by `long_form` given a non-minimal length and the INTEGER named by
    `zero` a redundant leading zero byte."""

    def integer(name: str, value: int) -> bytes:
        body = value.to_bytes(value.bit_length() // 8 + 1, "big", signed=True)
        return _tlv(0x02, b"\0" * (zero == name) + body, long_form == name)

    algorithm = bytes.fromhex("06092a864886f70d010101") + b"\x05\x00" * null
    rsa_key = _tlv(0x30, integer("n", n) + integer("e", e), long_form == "key")
    bits = _tlv(0x03, bytes((unused,)) + rsa_key, long_form == "bits")
    return _tlv(0x30, _tlv(0x30, algorithm, long_form == "algorithm") + bits, long_form == "info")


def _encoding(message: bytes, size: int) -> bytes:
    """The EMSA-PKCS1-v1_5 SHA-256 encoding of `message`, `size` bytes long."""
    digest_info = bytes.fromhex("3031300d060960864801650304020105000420")
    padding = b"\xff" * (size - 3 - len(digest_info) - 32)
    return b"\0\1" + padding + b"\0" + digest_info + hashlib.sha256(message).digest()


def _oracle_verdict(der: bytes, signature: bytes, message: bytes) -> bool:
    """cryptography's verdict: any exception it raises counts as False."""
    try:
        serialization.load_der_public_key(der).verify(
            signature, message, padding.PKCS1v15(), hashes.SHA256())
    except Exception:
        return False
    return True


@pytest.fixture(scope="module")
def blum_key():
    """A key whose primes are both 3 mod 4, so square roots modulo n are
    one exponentiation per prime."""
    key, p, q = _build_with_primes(Rng(47, "verify-oracle"))
    assert p % 4 == q % 4 == 3
    return key, p, q


def _model_form(der: bytes) -> bool:
    """Whether `der` is the SubjectPublicKeyInfo cryptography writes for
    an RSA key of 1,024 bits, n odd, under e = 3: the one key form the
    model builds, told apart here by cryptography's reader and encoder."""
    try:
        public = serialization.load_der_public_key(der)
    except Exception:
        return False
    if not isinstance(public, rsa.RSAPublicKey):
        return False
    numbers = public.public_numbers()
    return (numbers.e == crypto.RSA_EXPONENT and numbers.n % 2 == 1
            and numbers.n.bit_length() == crypto.RSA_BITS
            and public.public_bytes(serialization.Encoding.DER,
                                    serialization.PublicFormat.SubjectPublicKeyInfo) == der)


@settings(max_examples=400, deadline=None)
@given(
    message=st.binary(max_size=64),
    key_case=st.sampled_from([
        "own", "flip", "flip-n", "truncate", "append", "long-form", "zero", "negative-n",
        "negative-e", "no-null", "e=1", "big-e", "even-e", "e=n", "e>n", "ec",
    ]),
    at=st.integers(min_value=0, max_value=10_000),
    extra=st.binary(min_size=1, max_size=4),
    part=st.sampled_from(["info", "algorithm", "bits", "key", "n", "e"]),
)
def test_verify_bytes_agrees_with_cryptography(blum_key, message, key_case, at, extra, part):
    """`verify_bytes` accepts exactly when the key is of the model's form
    and cryptography accepts the signature under it. Over malformed,
    mutated and non-RSA keys and bad signatures, a key of another form is
    refused, also where cryptography accepts; a mutation that keeps the
    form, such as a flipped bit inside n, gets cryptography's verdict.

    Some cases carry a signature that passes the arithmetic, so that only
    the key form can refuse it: the encoding itself under e = 1, its
    square root under e = 2 (DER lets the BIT STRING then claim one unused
    bit), and the RSA signature under 3 plus a multiple of lcm(p - 1,
    q - 1), below n, at or past it, or spelt as a negative INTEGER."""
    key, p, q = blum_key
    n, e = p * q, crypto.RSA_EXPONENT
    lam = math.lcm(p - 1, q - 1)
    assert _spki(n, e) == key.public_der
    der = {
        "own": lambda: key.public_der,
        "flip": lambda: _flip(key.public_der, at),
        # A bit of n's lower 1,023 flipped: the form is kept unless n turns even.
        "flip-n": lambda: _spki(n ^ (1 << at % 1023), e),
        "truncate": lambda: key.public_der[: at % len(key.public_der)],
        "append": lambda: key.public_der + extra,
        "long-form": lambda: _spki(n, e, long_form=part),
        "zero": lambda: _spki(n, e, zero="n" if part == "n" else "e"),
        "negative-n": lambda: _spki(-n, e),
        "negative-e": lambda: _spki(n, e + 2 * lam - (1 << 1024)),
        "no-null": lambda: _spki(n, e, null=False),
        "e=1": lambda: _spki(n, 1),
        "big-e": lambda: _spki(n, e + lam),
        "even-e": lambda: _spki(n, 2, unused=at % 2),
        "e=n": lambda: _spki(n, n),
        "e>n": lambda: _spki(n, e + lam * (n // lam + 1 + at % 3)),
        "ec": lambda: _EC_DER,
    }[key_case]()
    signature = key.sign(message)
    s = int.from_bytes(signature, "big")
    encoding = _encoding(message, 128)
    m = int.from_bytes(encoding, "big")
    root_p, root_q = pow(m, (p + 1) // 4, p), pow(m, (q + 1) // 4, q)
    root = root_q + q * (pow(q, -1, p) * (root_p - root_q) % p)
    signatures = [
        signature,
        _flip(signature, at),
        signature[1:],
        b"\0" + signature,
        n.to_bytes(128, "big"),
        ((s + n) % (1 << 1024)).to_bytes(128, "big"),  # s + n where it fits
        encoding,
        root.to_bytes(128, "big"),  # valid under e = 2 when m is a square
    ]
    form = _model_form(der)
    if key_case != "flip":  # a flipped byte may land inside n or outside it
        assert form == (key_case == "own" or key_case == "flip-n" and at % 1023 > 0)
    for sig in signatures:
        assert verify_bytes(der, sig, message) == (form and _oracle_verdict(der, sig, message))


@pytest.mark.parametrize("bits, e", [(1024, 65537), (2048, 3)])
def test_verify_bytes_refuses_keys_the_model_does_not_build(bits, e):
    """A signature cryptography makes and accepts under an RSA key of
    another size or exponent does not verify: the model names every
    publisher by a key it built, so no other key form is read."""
    message = b"another form"
    private = rsa.generate_private_key(e, bits)
    der = private.public_key().public_bytes(
        serialization.Encoding.DER, serialization.PublicFormat.SubjectPublicKeyInfo)
    sig = private.sign(message, padding.PKCS1v15(), hashes.SHA256())
    assert _oracle_verdict(der, sig, message)
    assert not verify_bytes(der, sig, message)


def _cube_root_key(message: bytes, parity: int) -> tuple[bytes, bytes]:
    """A DER in the model's form, n of 1,024 bits with n % 2 == parity, and
    a signature s that passes its arithmetic: n = s^3 - EM for the least
    such s, so s^3 mod n is the message's encoding EM."""
    m = int.from_bytes(_encoding(message, 128), "big")
    lo, hi = 0, 1 << 342
    while lo < hi:  # the least s with s^3 >= 2^1023 + m
        mid = (lo + hi) // 2
        lo, hi = (mid + 1, hi) if mid**3 < (1 << 1023) + m else (lo, mid)
    s = lo + ((lo**3 - m) % 2 != parity)
    return crypto._spki_der(s**3 - m, crypto.RSA_EXPONENT), s.to_bytes(128, "big")


def test_verify_bytes_refuses_an_even_modulus(key):
    """A DER that `_spki_der` wrote for an even n is refused, though the
    signature passes the arithmetic; the same construction with n odd
    verifies."""
    message = b"even"
    for parity in (1, 0):
        der, sig = _cube_root_key(message, parity)
        assert len(der) == len(key.public_der)
        assert verify_bytes(der, sig, message) is bool(parity)


def test_model_key_reads_only_a_full_length_modulus():
    """An n of 969 bits that repeats 02 01 03, the bytes `_spki_der` ends
    a key with, re-encodes to the very DER from which it is read at the
    model form's offset, the window running on into the trailer. It is
    refused for its length."""
    n = int.from_bytes(bytes.fromhex("0103" + "020103" * 40), "big")
    der = crypto._spki_der(n, crypto.RSA_EXPONENT)
    assert int.from_bytes(der[crypto._N_AT : crypto._N_AT + 128], "big") == n
    assert crypto._model_key(der) is None


def test_rsa_check_runs_once_per_packet_and_key(key, other_key, monkeypatch):
    """Asking a packet again about a key it was checked against reuses the
    verdict. Only a key the packet names reaches the RSA check, once per
    (packet, key); a key it does not name is refused on its digest."""
    calls = []
    check = crypto._rsa_verify

    def counted(pkt, der):
        calls.append((id(pkt), der))
        return check(pkt, der)

    monkeypatch.setattr(crypto, "_rsa_verify", counted)
    garbage = b"not a der key"
    packets = {
        sign_packet(parse_name("/v/1"), b"one", key): [True, False, False],
        sign_packet(parse_name("/v/2"), b"two", key): [True, False, False],
        forge_packet(parse_name("/v/3"), b"three", other_key.public_der, Rng(3, "forge")):
            [False] * 3,
        forge_packet(parse_name("/v/4"), b"four", garbage, Rng(4, "forge")): [False] * 3,
    }
    asked = (key.public_der, other_key.public_der, garbage)
    for _ in range(3):
        for pkt, verdicts in packets.items():
            assert [verify_signature(pkt, der) for der in asked] == verdicts
    named = [(id(pkt), der) for pkt in packets for der in asked
             if sha256(der) == pkt.publisher_key_digest]
    assert len(named) == len(packets)
    assert sorted(calls) == sorted(named)


def test_signer_and_verifier_memos_leave_packet_value_alone(key, other_key):
    """The content hash `sign_packet` and `forge_packet` leave on their
    packets are the values an equal packet built from scratch yields, and
    neither they nor the verdicts kept for two keys change the packet's
    value."""
    signed = sign_packet(parse_name("/m/1"), b"payload", key)
    forged = forge_packet(parse_name("/m/2"), b"payload", key.public_der, Rng(2, "forge"))

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
    forged = forge_packet(parse_name("/a"), b"junk", key.public_der, Rng(1, "forge"))
    assert not verify_signature(forged, key.public_der)
    assert forged.poisoned
    assert forged.publisher_key_digest == sha256(key.public_der)  # it names the key it claims


def test_self_consistency_check(key, other_key):
    """`verify_signature` refuses a packet whose publisher digest names
    another key, although its signature verifies under the key it is
    asked about."""
    honest = sign_packet(parse_name("/n"), b"p", key)
    assert verify_signature(honest, key.public_der)
    draft = DataPacket(parse_name("/n"), b"p", b"", EmbeddedKey(key.public_der), other_key.digest)
    lying = crypto._seal(draft, key.sign)
    assert verify_bytes(key.public_der, lying.signature, signing_image(lying))
    assert not verify_signature(lying, key.public_der)
    assert not verify_signature(lying, other_key.public_der)


def test_hmac_sha256_rfc4231_vector():
    # RFC 4231 test case 2.
    out = hmac_sha256(b"Jefe", b"what do ya want for nothing?")
    assert out.hex() == "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"


def _link_mac_oracle(key, components):
    """HMAC-SHA256 over a name's wire form, written out with `struct`."""
    wire = struct.pack(">I", len(components)) + b"".join(
        struct.pack(">I", len(comp)) + comp for comp in components
    )
    return hmac.new(key, wire, hashlib.sha256).digest()


def test_link_mac_golden_vector():
    key = bytes(range(32))
    comps = (b"ndn", b"warning", b"\xab" * 32)
    mac = "d9dd08a5adb9b8eb786aacbca496f5f03efdefce18a7ebea9712d694d94d01e1"
    assert link_mac(key, comps).hex() == mac
    assert _link_mac_oracle(key, comps).hex() == mac
    name = with_link_mac(key, Name(comps))
    assert name.components == comps + (bytes.fromhex(mac),)
    assert link_mac_ok(key, name)
    assert not link_mac_ok(bytes(32), name)


@settings(max_examples=100, deadline=None)
@given(key=st.binary(min_size=1, max_size=64),
       comps=st.lists(st.binary(min_size=1, max_size=40), max_size=6).map(tuple))
def test_link_mac_is_the_hmac_of_the_wire_name(key, comps):
    assert link_mac(key, comps) == _link_mac_oracle(key, comps)


def test_link_mac_tells_apart_names_of_one_concatenation():
    key = b"k" * 32
    macs = {link_mac(key, comps) for comps in ((b"ab", b"c"), (b"a", b"bc"), (b"abc",))}
    assert len(macs) == 3


def test_ls32():
    assert ls32(bytes(31) + b"\x2a") == 42
    assert ls32(b"\xff" * 32) == 2 ** 32 - 1

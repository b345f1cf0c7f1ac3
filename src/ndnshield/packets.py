"""Packet types, hierarchical names, the control namespace, wire encoding
and the matching predicate.

Interests and data packets are the only two packet kinds on the wire.
An interest varies by its name, nonce, publisher key digest and exclude
filter, the options the modelled attacks and defenses use. Its name alone
decides whether it is scoped: one in the control namespace
(`is_control_name`) is a one-hop interest, encoded with scope 2, and no
other interest carries a scope.

Everything here is an immutable value: safe to share across simulation
instances and cheap to use as dict keys. Values derived from a packet and
needed on every hop (`wire_size`, `compute_content_hash`, and the verdict
per key of `crypto.verify_signature`) are computed once and kept in the
packet's `__dict__`, outside its fields, so they take no part in
equality, hashing or repr.

Each type declares its fields as a `schema.Record`, one annotated line per
field. `Name`, `Interest` and `DataPacket`, made per packet, write their
constructors: each runs its checks and sets the fields at once (1.6 µs per
interest, against 2.7 µs generated by `dataclasses`; CPython 3.11, 2-core
host). `Name` keeps nothing else on the instance, so it has `__slots__`.

The wire encoding is deliberately simple (32-bit big-endian counts and
lengths throughout) so that signatures and content hashes are bit-exact
and can be checked against golden vectors. Packets are only ever encoded:
`canonical_serialize` gives the image signatures and content hashes cover,
and it and `encode_interest` are the references `wire_size` is tested
against. Nothing decodes wire bytes.
"""

from __future__ import annotations

import functools
import hashlib
import struct
from typing import Iterator, Optional, Union

from .schema import Record

MAX_COMPONENT_LEN = 255
MAX_COMPONENTS = 33  # 32 ordinary components plus an appended digest component

MS = 1000  # microseconds per millisecond: simulated time counts microseconds
INTEREST_LIFETIME_MS = 4000  # the default lifetime of every interest sent

# A digest-typed component is a 1-byte type tag followed by a 32-byte digest.
DIGEST_COMPONENT_TAG = 0x01
DIGEST_COMPONENT_LEN = 33

# The bytes a textual name percent-escapes (control bytes, '/', '%'), as a
# str.translate table from code point to escape.
_ESCAPE_TABLE = {b: "%%%02X" % b for b in (*range(0x20), 0x2F, 0x25)}


class NameParseError(ValueError):
    """Raised for malformed textual names or oversized components."""


def _escape_component(component: bytes) -> str:
    # latin-1 maps each byte to the character of the same code point.
    return component.decode("latin-1").translate(_ESCAPE_TABLE)


def _unescape_component(text: str) -> bytes:
    if "%" not in text:
        # No escapes: every character must be a byte, and latin-1 maps
        # exactly the characters 0..255 to those bytes.
        try:
            return text.encode("latin-1")
        except UnicodeEncodeError as exc:
            raise NameParseError(
                f"non-byte character {text[exc.start]!r} in component"
            ) from None
    return _unescape_escaped(text)


def _unescape_escaped(text: str) -> bytes:
    out = bytearray()
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "%":
            if i + 3 > len(text):
                raise NameParseError(f"truncated escape in component {text!r}")
            try:
                out.append(int(text[i + 1 : i + 3], 16))
            except ValueError:
                raise NameParseError(f"malformed escape in component {text!r}") from None
            i += 3
        else:
            code = ord(ch)
            if code > 0xFF:
                raise NameParseError(f"non-byte character {ch!r} in component")
            out.append(code)
            i += 1
    return bytes(out)


class Name(Record, frozen=True):
    """An ordered list of opaque byte-string components."""

    __slots__ = ("components",)
    components: tuple[bytes, ...]

    def __init__(self, components=()):
        if len(components) > MAX_COMPONENTS:
            raise NameParseError(f"too many components ({len(components)})")
        for comp in components:
            if not comp:
                raise NameParseError("empty name component")
            if len(comp) > MAX_COMPONENT_LEN:
                raise NameParseError(f"component longer than {MAX_COMPONENT_LEN} bytes")
        object.__setattr__(self, "components", components)

    def __reduce__(self):  # copies and pickles, past the refused assignment
        return Name, (self.components,)

    @classmethod
    def parse(cls, text: str) -> "Name":
        """Parse the textual form; '' and '/' both denote the empty name."""
        if text in ("", "/"):
            return cls(())
        if not text.startswith("/"):
            raise NameParseError(f"name must start with '/': {text!r}")
        parts = text[1:].split("/")
        comps = tuple(_unescape_component(p) for p in parts)
        return cls(comps)

    def __str__(self) -> str:
        if not self.components:
            return "/"
        return "/" + "/".join(_escape_component(c) for c in self.components)

    def __eq__(self, other) -> bool:
        return self.components == other.components if other.__class__ is Name else NotImplemented

    def __hash__(self) -> int:
        return hash(self.components)

    def __len__(self) -> int:
        return len(self.components)

    def __iter__(self) -> Iterator[bytes]:
        return iter(self.components)

    def is_prefix_of(self, other: "Name") -> bool:
        return self.components == other.components[: len(self.components)]

    def child(self, component: bytes | str) -> "Name":
        """This name plus one component. Only the new component is checked:
        the others were checked when this name was made."""
        comp = component.encode() if isinstance(component, str) else component
        comps = self.components + (comp,)
        if len(comps) > MAX_COMPONENTS:
            raise NameParseError(f"too many components ({len(comps)})")
        if not comp:
            raise NameParseError("empty name component")
        if len(comp) > MAX_COMPONENT_LEN:
            raise NameParseError(f"component longer than {MAX_COMPONENT_LEN} bytes")
        name = object.__new__(Name)
        object.__setattr__(name, "components", comps)
        return name

    def join(self, other: "Name") -> "Name":
        return Name(self.components + other.components)

    @property
    def last(self) -> bytes:
        return self.components[-1]

    def strip_digest(self) -> "Name":
        """The name without its trailing digest-typed component, if present."""
        if self.components and is_digest_component(self.components[-1]):
            return Name(self.components[:-1])
        return self


def parse_name(text: str) -> Name:
    return Name.parse(text)


def digest_component(digest: bytes) -> bytes:
    """Wrap a 32-byte digest as a digest-typed name component."""
    if len(digest) != 32:
        raise ValueError("digest component requires a 32-byte digest")
    return bytes([DIGEST_COMPONENT_TAG]) + digest


def is_digest_component(component: bytes) -> bool:
    return len(component) == DIGEST_COMPONENT_LEN and component[0] == DIGEST_COMPONENT_TAG


def component_digest(component: bytes) -> bytes:
    if not is_digest_component(component):
        raise ValueError("not a digest-typed component")
    return component[1:]


# ---------------------------------------------------------------------------
# Exclude filters
# ---------------------------------------------------------------------------

BLOOM_BITS = 256
BLOOM_HASHES = 4


@functools.lru_cache(maxsize=4096)
def bloom_probe_indices(component: bytes) -> tuple[int, ...]:
    """The k bit positions probed for a component (first 8 digest bytes).
    They depend on its bytes alone, so each recent component is hashed
    once, however many lookups test it against a filter."""
    h = hashlib.sha256(component).digest()
    return tuple(
        int.from_bytes(h[2 * i : 2 * i + 2], "big") % BLOOM_BITS for i in range(BLOOM_HASHES)
    )


class ExplicitExclude(Record, frozen=True):
    """Excludes exactly the listed components."""

    components: frozenset[bytes]

    # Written out, as the generic ones cost 2-3 times more and an exclude
    # is part of every PIT key; equal only to an exclude of this class.
    def __eq__(self, other):
        return (self.components == other.components if other.__class__ is ExplicitExclude
                else NotImplemented)

    def __hash__(self):
        return hash(self.components)

    def excludes(self, component: bytes) -> bool:
        return component in self.components


class BloomExclude(Record, frozen=True):
    """Fixed-geometry Bloom filter over components (m=256 bits, k=4)."""

    bits: bytes  # 32 bytes, bit i = byte i//8, mask 1 << (i % 8)

    def __post_init__(self):
        if len(self.bits) != BLOOM_BITS // 8:
            raise ValueError("bloom filter must be exactly 256 bits")

    def __eq__(self, other):  # as ExplicitExclude's
        return self.bits == other.bits if other.__class__ is BloomExclude else NotImplemented

    def __hash__(self):
        return hash(self.bits)

    @classmethod
    def from_components(cls, components) -> "BloomExclude":
        bits = bytearray(BLOOM_BITS // 8)
        for comp in components:
            for idx in bloom_probe_indices(comp):
                bits[idx // 8] |= 1 << (idx % 8)
        return cls(bytes(bits))

    @classmethod
    def all_ones(cls) -> "BloomExclude":
        return cls(b"\xff" * (BLOOM_BITS // 8))

    def excludes(self, component: bytes) -> bool:
        return all(self.bits[i // 8] & (1 << (i % 8)) for i in bloom_probe_indices(component))


Exclude = Union[ExplicitExclude, BloomExclude]


# ---------------------------------------------------------------------------
# Key locators and packets
# ---------------------------------------------------------------------------


class EmbeddedKey(Record, frozen=True):
    key_der: bytes


class KeyName(Record, frozen=True):
    name: Name


KeyLocator = Union[EmbeddedKey, KeyName]


_NONCE_LIMIT = 1 << 64


class Interest(Record, frozen=True, not_compared=("attack",)):
    """An interest; its constructor takes the fields, in order, with their defaults."""

    name: Name
    nonce: int
    publisher_key_digest: Optional[bytes] = None
    exclude: Optional[Exclude] = None
    lifetime_ms: int = INTEREST_LIFETIME_MS
    # Ground-truth provenance for metrics; never serialized to the wire.
    attack: bool = False

    def __init__(self, name, nonce, publisher_key_digest=None, exclude=None,
                 lifetime_ms=INTEREST_LIFETIME_MS, attack=False):
        if not 0 <= nonce < _NONCE_LIMIT:
            raise ValueError("nonce must fit in 64 bits")
        if publisher_key_digest is not None and len(publisher_key_digest) != 32:
            raise ValueError("publisher key digest must be 32 bytes")
        self.__dict__.update(name=name, nonce=nonce, publisher_key_digest=publisher_key_digest,
                             exclude=exclude, lifetime_ms=lifetime_ms, attack=attack)

    def requested_hash(self) -> Optional[bytes]:
        """The content digest demanded by a trailing digest-typed component."""
        if self.name.components and is_digest_component(self.name.components[-1]):
            return component_digest(self.name.components[-1])
        return None


class DataPacket(Record, frozen=True, not_compared=("poisoned",)):
    name: Name
    payload: bytes
    signature: bytes
    key_locator: KeyLocator
    publisher_key_digest: bytes
    # Ground-truth provenance for metrics; never serialized to the wire.
    poisoned: bool = False

    def __init__(self, name, payload, signature, key_locator, publisher_key_digest,
                 poisoned=False):
        if len(publisher_key_digest) != 32:
            raise ValueError("publisher key digest must be 32 bytes")
        self.__dict__.update(name=name, payload=payload, signature=signature,
                             key_locator=key_locator, publisher_key_digest=publisher_key_digest,
                             poisoned=poisoned)

    def base_name(self) -> Name:
        """The name without the trailing digest-typed component, if present."""
        return self.name.strip_digest()


# ---------------------------------------------------------------------------
# Control namespace
# ---------------------------------------------------------------------------

# One-hop interests under /ndn/<kind> that routers handle themselves and
# never route: neighbour warnings, consumer feedback and push-back advice.
WARNING_PREFIX = Name((b"ndn", b"warning"))
FEEDBACK_PREFIX = Name((b"ndn", b"feedback"))
PUSHBACK_PREFIX = Name((b"ndn", b"pushback"))
_CONTROL_KINDS = frozenset(p.last for p in (WARNING_PREFIX, FEEDBACK_PREFIX, PUSHBACK_PREFIX))


def is_control_name(name: Name) -> bool:
    """True for a name in (or equal to) one of the control prefixes; looks
    at the first two components only."""
    comps = name.components
    return len(comps) >= 2 and comps[0] == b"ndn" and comps[1] in _CONTROL_KINDS


def control_interest(name: Name, nonce: int) -> Interest:
    """A control interest (`name` is a control name): a one-second
    lifetime, and scope 2 on the wire (one link, never forwarded), which
    its name alone implies."""
    return Interest(name=name, nonce=nonce, lifetime_ms=1000)


# ---------------------------------------------------------------------------
# Canonical serialization
# ---------------------------------------------------------------------------


def _pack_bytes(out: bytearray, data: bytes) -> None:
    out += struct.pack(">I", len(data))
    out += data


def _pack_name(out: bytearray, components) -> None:
    out += struct.pack(">I", len(components))
    for comp in components:
        _pack_bytes(out, comp)


def canonical_serialize(
    pkt: DataPacket, *, include_hash_component: bool = True, include_signature: bool = True
) -> bytes:
    """Deterministic byte image of a data packet.

    With ``include_hash_component=False`` the final name component is
    omitted: that image is "name up to the hash itself" and is what the
    content hash and the signature are computed over.
    """
    out = bytearray()
    comps = pkt.name.components
    if not include_hash_component and comps:
        comps = comps[:-1]
    _pack_name(out, comps)
    _pack_bytes(out, pkt.payload)
    if isinstance(pkt.key_locator, EmbeddedKey):
        out.append(0)
        _pack_bytes(out, pkt.key_locator.key_der)
    else:
        out.append(1)
        _pack_name(out, pkt.key_locator.name.components)
    _pack_bytes(out, pkt.publisher_key_digest)
    if include_signature:
        _pack_bytes(out, pkt.signature)
    return bytes(out)


_FLAG_KEY_DIGEST = 0x01
_FLAG_EXCLUDE = 0x02
_FLAG_SCOPE = 0x04
_CONTROL_SCOPE = 2  # the scope a control interest carries on the wire


def encode_interest(interest: Interest) -> bytes:
    out = bytearray()
    _pack_name(out, interest.name.components)
    out += struct.pack(">Q", interest.nonce)
    flags = 0
    if interest.publisher_key_digest is not None:
        flags |= _FLAG_KEY_DIGEST
    if interest.exclude is not None:
        flags |= _FLAG_EXCLUDE
    scoped = is_control_name(interest.name)
    if scoped:
        flags |= _FLAG_SCOPE
    out.append(flags)
    if interest.publisher_key_digest is not None:
        _pack_bytes(out, interest.publisher_key_digest)
    if interest.exclude is not None:
        if isinstance(interest.exclude, ExplicitExclude):
            out.append(0)
            _pack_name(out, sorted(interest.exclude.components))
        else:
            out.append(1)
            out += interest.exclude.bits
    out.append(0)  # answer origin: any
    if scoped:
        out.append(_CONTROL_SCOPE)
    out += struct.pack(">I", interest.lifetime_ms)
    return bytes(out)


def _name_size(components) -> int:
    return 4 + 4 * len(components) + sum(map(len, components))


def wire_size(pkt: Union[Interest, DataPacket]) -> int:
    """Byte size charged against link bandwidth: the length of
    `encode_interest(pkt)` or `canonical_serialize(pkt)`, summed from the field
    lengths without encoding. Packets are immutable, so the size is
    computed once and kept on the packet."""
    size = pkt.__dict__.get("_wire_size")
    if size is None:
        if isinstance(pkt, Interest):
            # name, nonce 8, flags 1, answer origin 1, lifetime 4
            size = _name_size(pkt.name.components) + 14
            if pkt.publisher_key_digest is not None:
                size += 4 + len(pkt.publisher_key_digest)
            exclude = pkt.exclude
            if exclude is not None:
                if isinstance(exclude, ExplicitExclude):
                    size += 1 + _name_size(exclude.components)
                else:
                    size += 1 + len(exclude.bits)
            if is_control_name(pkt.name):
                size += 1  # scope
        else:
            # name, payload, locator tag 1, locator, key digest, signature
            locator = pkt.key_locator
            size = (
                _name_size(pkt.name.components)
                + 13
                + len(pkt.payload)
                + len(pkt.publisher_key_digest)
                + len(pkt.signature)
            )
            if isinstance(locator, EmbeddedKey):
                size += 4 + len(locator.key_der)
            else:
                size += _name_size(locator.name.components)
        object.__setattr__(pkt, "_wire_size", size)
    return size


# ---------------------------------------------------------------------------
# Matching
# ---------------------------------------------------------------------------


def compute_content_hash(pkt: DataPacket) -> bytes:
    """SHA-256 over payload, name up to the hash itself, and the signature."""
    digest = pkt.__dict__.get("_content_hash")
    if digest is None:
        if not pkt.signature:
            raise ValueError("content hash requires a signed packet")
        digest = hashlib.sha256(
            canonical_serialize(pkt, include_hash_component=False, include_signature=True)
        ).digest()
        object.__setattr__(pkt, "_content_hash", digest)
    return digest


def matches_base(data: DataPacket, interest: Interest) -> bool:
    """Prefix and exclude clauses only; what a lazy forwarder checks. The
    exclude filter tests the data name's component right after the prefix,
    if it has one."""
    prefix = interest.name.components
    comps = data.name.components
    k = len(prefix)
    if comps[:k] != prefix:
        return False
    exclude = interest.exclude
    return exclude is None or len(comps) == k or not exclude.excludes(comps[k])


def content_hash_matches(data: DataPacket, interest: Interest) -> bool:
    """The static self-certifying clause: a trailing digest component of
    the interest's name must be the data's content hash."""
    comps = interest.name.components
    if comps:
        last = comps[-1]
        if len(last) == DIGEST_COMPONENT_LEN and last[0] == DIGEST_COMPONENT_TAG:
            return last[1:] == compute_content_hash(data)
    return True


def interest_matches(data: DataPacket, interest: Interest) -> bool:
    """Full matching predicate: prefix and exclude, then the dynamic
    self-certifying clause (a requested publisher key digest must agree),
    then the static one."""
    if not matches_base(data, interest):
        return False
    wanted = interest.publisher_key_digest
    if wanted is not None and wanted != data.publisher_key_digest:
        return False
    return content_hash_matches(data, interest)

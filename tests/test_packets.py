"""Names, excludes, the control namespace, wire encoding, and the matching predicate."""

from __future__ import annotations

import copy
import inspect
import pickle
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ndnshield.packets import (
    FEEDBACK_PREFIX,
    MAX_COMPONENT_LEN,
    MAX_COMPONENTS,
    PUSHBACK_PREFIX,
    WARNING_PREFIX,
    BloomExclude,
    DataPacket,
    EmbeddedKey,
    ExplicitExclude,
    Interest,
    KeyName,
    Name,
    NameParseError,
    canonical_serialize,
    component_digest,
    compute_content_hash,
    content_hash_matches,
    digest_component,
    encode_interest,
    interest_matches,
    is_control_name,
    is_digest_component,
    matches_base,
    parse_name,
    wire_size,
)
from ndnshield.nodes import _Request
from ndnshield.poisoning import PoisoningConfig, PoisoningGuard
from ndnshield.router import CsEntry, PitEntry
from ndnshield.packets import _escape_component, _unescape_component, _unescape_escaped

components = st.binary(min_size=1, max_size=32)
names = st.lists(components, min_size=0, max_size=8).map(lambda cs: Name(tuple(cs)))


# ---------------------------------------------------------------------------
# Names
# ---------------------------------------------------------------------------


def test_parse_news_style_name():
    name = parse_name("/ndn/cnn/news/2012may20")
    assert name.components == (b"ndn", b"cnn", b"news", b"2012may20")


def test_parse_empty_forms():
    assert parse_name("").components == ()
    assert parse_name("/").components == ()
    assert str(Name(())) == "/"


def test_parse_fragment_name():
    name = parse_name("/ndn/youtube/alice/video-749.avi/137")
    assert len(name) == 5
    assert name.last == b"137"


def test_parse_rejects_malformed_escape():
    with pytest.raises(NameParseError):
        parse_name("/abc%Z1")
    with pytest.raises(NameParseError):
        parse_name("/abc%2")


def test_parse_rejects_oversized_component():
    with pytest.raises(NameParseError):
        Name((b"x" * 256,))


@given(names, components)
def test_child_equals_constructed_name(name, component):
    child = name.child(component)
    assert child == Name(name.components + (component,))
    assert hash(child) == hash(Name(name.components + (component,)))


@pytest.mark.parametrize(
    "base, component",
    [
        ((b"a",), b""),  # empty component
        ((b"a",), b"x" * (MAX_COMPONENT_LEN + 1)),
        ((b"c",) * MAX_COMPONENTS, b"d"),  # one component too many
        ((b"c",) * MAX_COMPONENTS, b""),  # both: the count is checked first
    ],
)
def test_child_rejects_as_the_constructor_does(base, component):
    with pytest.raises(NameParseError) as constructed:
        Name(base + (component,))
    with pytest.raises(NameParseError) as appended:
        Name(base).child(component)
    assert str(appended.value) == str(constructed.value)


def test_parse_rejects_missing_leading_slash():
    with pytest.raises(NameParseError):
        parse_name("ndn/cnn")


def test_escaping_round_trip():
    name = Name((b"a/b", b"%25", bytes(range(0, 32)), b"\xff\xfe"))
    assert parse_name(str(name)) == name


@given(names)
def test_name_text_round_trip(name):
    assert parse_name(str(name)) == name


def test_name_is_immutable_and_copies():
    """A slotted name refuses assignment, yet copies and pickles whole."""
    name = parse_name("/a/b")
    with pytest.raises(AttributeError):
        name.components = ()
    assert copy.deepcopy(name) == pickle.loads(pickle.dumps(name)) == name


def test_prefix_basics():
    assert parse_name("/ndn/cnn").is_prefix_of(parse_name("/ndn/cnn/news"))
    assert not parse_name("/ndn/cnn").is_prefix_of(parse_name("/ndn/cn"))
    n = parse_name("/a/b")
    assert n.is_prefix_of(n)
    assert Name(()).is_prefix_of(n)


@given(names, names, names)
def test_prefix_transitive(a, b, c):
    ab = a.join(b)
    abc = ab.join(c)
    assert a.is_prefix_of(ab)
    assert ab.is_prefix_of(abc)
    assert a.is_prefix_of(abc)


# Names that often share their first components with a control prefix.
near_control_names = st.lists(
    st.sampled_from([b"ndn", b"warning", b"feedback", b"pushback", b"pushbac", b"x"]),
    max_size=4,
).map(lambda cs: Name(tuple(cs)))


@given(st.one_of(near_control_names, names))
def test_control_name_is_a_control_prefix_test(name):
    """The two-component check routers run on every interest says what a
    prefix test against each control prefix says."""
    prefixes = (WARNING_PREFIX, FEEDBACK_PREFIX, PUSHBACK_PREFIX)
    assert is_control_name(name) == any(p.is_prefix_of(name) for p in prefixes)


# ---------------------------------------------------------------------------
# Exclude filters
# ---------------------------------------------------------------------------


def test_explicit_exclude():
    ex = ExplicitExclude(frozenset({b"bad"}))
    assert ex.excludes(b"bad")
    assert not ex.excludes(b"good")


def test_bloom_contains_inserted():
    ex = BloomExclude.from_components([b"one", b"two"])
    assert ex.excludes(b"one")
    assert ex.excludes(b"two")


def test_bloom_all_ones_excludes_everything():
    ex = BloomExclude.all_ones()
    for comp in (b"a", b"zz", bytes(31), b"\x01" + bytes(32)):
        assert ex.excludes(comp)


def test_bloom_mostly_rejects_absent():
    ex = BloomExclude.from_components([b"present"])
    hits = sum(ex.excludes(b"absent-%d" % i) for i in range(200))
    assert hits <= 2  # k=4 probes against 4 set bits: false positives are rare


# ---------------------------------------------------------------------------
# Wire encoding
# ---------------------------------------------------------------------------


def _packet(name=b"x", payload=b"hello", sig=b"s" * 128):
    return DataPacket(
        name=Name((name, digest_component(bytes(32)))),
        payload=payload,
        signature=sig,
        key_locator=EmbeddedKey(b"KEYDER"),
        publisher_key_digest=bytes(32),
    )


def test_serialize_deterministic():
    assert canonical_serialize(_packet()) == canonical_serialize(_packet())


def test_serialize_payload_injective():
    a = _packet(payload=b"hello")
    b = _packet(payload=b"hellp")
    assert canonical_serialize(a) != canonical_serialize(b)


# Fields spliced from framing-like chunks (a 4-byte length, a locator tag,
# a digest-component tag), so that two draws often agree on a field or
# differ only where one field's bytes could pass for another's framing.
short_bytes = st.lists(
    st.sampled_from([b"\x00\x00\x00\x01", b"\x00\x00\x00", b"\x00", b"\x01", b"a"]),
    max_size=4,
).map(b"".join)
short_names = st.lists(short_bytes.filter(bool), max_size=3).map(lambda cs: Name(tuple(cs)))
WIRE_FIELDS = ("name", "payload", "signature", "key_locator", "publisher_key_digest")
wire_fields = st.fixed_dictionaries({
    "name": short_names,
    "payload": short_bytes,
    "signature": short_bytes,
    "key_locator": st.one_of(short_bytes.map(EmbeddedKey), short_names.map(KeyName)),
    "publisher_key_digest": st.sampled_from([bytes(32), b"\x01" * 32, b"\x04" * 32]),
})


def _read_image(image: bytes, signed: bool = True) -> dict:
    """The wire fields read back from an image by the documented layout,
    independently of the encoder (the signature reads b"" when unsigned)."""
    pos = 0

    def block() -> bytes:
        nonlocal pos
        (length,) = struct.unpack_from(">I", image, pos)
        pos += 4 + length
        assert pos <= len(image), "block runs past the image"
        return image[pos - length : pos]

    def name() -> Name:
        nonlocal pos
        (count,) = struct.unpack_from(">I", image, pos)
        pos += 4
        return Name(tuple(block() for _ in range(count)))

    fields = {"name": name(), "payload": block()}
    tag = image[pos]
    pos += 1
    assert tag in (0, 1), "unknown key locator tag"
    fields["key_locator"] = EmbeddedKey(block()) if tag == 0 else KeyName(name())
    fields["publisher_key_digest"] = block()
    fields["signature"] = block() if signed else b""
    assert pos == len(image), "trailing bytes"
    return fields


@given(wire_fields, wire_fields, st.sets(st.sampled_from(WIRE_FIELDS)))
@settings(max_examples=300)
def test_serialized_image_is_injective(a, other, taken):
    """Packets that differ in any wire field have different images, and
    their signing images differ unless only the signature does: each image
    reads back into exactly the fields it was made from, so a signature or
    content hash over it pins every field."""
    b = {k: other[k] if k in taken else v for k, v in a.items()}
    pa, pb = DataPacket(**a), DataPacket(**b)
    for fields, pkt in ((a, pa), (b, pb)):
        assert _read_image(canonical_serialize(pkt)) == fields
        unsigned = canonical_serialize(pkt, include_signature=False)
        assert _read_image(unsigned, signed=False) == dict(fields, signature=b"")
    assert (canonical_serialize(pa) == canonical_serialize(pb)) == (pa == pb)
    assert (
        canonical_serialize(pa, include_signature=False)
        == canonical_serialize(pb, include_signature=False)
    ) == (pa.replace(signature=b"") == pb.replace(signature=b""))


def test_to_be_signed_image_excludes_signature():
    # Read both images back by the layout: the signature is the last field
    # of the full image and absent from the unsigned one.
    pkt = _packet(sig=b"\xabSIGNATURE" * 12)
    unsigned = canonical_serialize(pkt, include_hash_component=False, include_signature=False)
    signed = canonical_serialize(pkt, include_hash_component=False, include_signature=True)
    assert _read_image(signed)["signature"] == pkt.signature
    assert _read_image(unsigned, signed=False)["signature"] == b""
    assert pkt.signature not in unsigned


def _interest(**kw):
    defaults = dict(name=parse_name("/ndn/cnn"), nonce=7)
    defaults.update(kw)
    return Interest(**defaults)


def test_wire_size_positive():
    assert wire_size(_interest()) > 0
    assert wire_size(_packet()) > len(_packet().payload)


# Names of every length a packet may carry, some with long components.
wire_names = st.lists(
    st.one_of(components, st.binary(min_size=200, max_size=MAX_COMPONENT_LEN)),
    max_size=MAX_COMPONENTS,
).map(lambda cs: Name(tuple(cs)))


# Names of every length, and control names under each control prefix.
wire_and_control_names = st.one_of(
    wire_names,
    st.tuples(
        st.sampled_from([WARNING_PREFIX, FEEDBACK_PREFIX, PUSHBACK_PREFIX]),
        st.lists(components, max_size=MAX_COMPONENTS - 2),
    ).map(lambda parts: Name(parts[0].components + tuple(parts[1]))),
)


@given(
    wire_and_control_names,
    st.integers(min_value=0, max_value=2 ** 64 - 1),
    st.one_of(st.none(), st.binary(min_size=32, max_size=32)),
    st.one_of(
        st.none(),
        st.frozensets(st.one_of(components, st.binary(min_size=1, max_size=255)), max_size=6)
        .map(ExplicitExclude),
        st.binary(min_size=32, max_size=32).map(BloomExclude),
    ),
    st.integers(min_value=0, max_value=2 ** 32 - 1),
)
@settings(max_examples=200)
def test_interest_wire_size_is_encoded_length(name, nonce, digest, exclude, lifetime):
    """The size is the encoded length, and the encoding carries the scope
    flag exactly when the name is a control name."""
    interest = Interest(name, nonce, digest, exclude, lifetime)
    encoded = encode_interest(interest)
    assert wire_size(interest) == len(encoded)
    flags = encoded[4 + 4 * len(name.components) + sum(map(len, name.components)) + 8]
    assert bool(flags & 0x04) == is_control_name(name)


@given(
    wire_names,
    st.binary(max_size=2048),
    st.binary(max_size=256),
    st.one_of(st.binary(max_size=300).map(EmbeddedKey), wire_names.map(KeyName)),
    st.binary(min_size=32, max_size=32),
)
@settings(max_examples=200)
def test_data_wire_size_is_encoded_length(name, payload, signature, locator, digest):
    pkt = DataPacket(name, payload, signature, locator, digest)
    assert wire_size(pkt) == len(canonical_serialize(pkt))


def test_data_wire_golden_vector():
    """Bit-exact wire contract: the encoding is hand-assembled here from the
    documented layout (32-bit big-endian counts and lengths) and must match
    the encoder byte for byte."""
    pkt = DataPacket(
        name=Name((b"ab", b"c")),
        payload=b"PAY",
        signature=b"SG",
        key_locator=EmbeddedKey(b"K"),
        publisher_key_digest=bytes(range(32)),
    )
    expected = b"".join([
        struct.pack(">I", 2),                      # name component count
        struct.pack(">I", 2), b"ab",
        struct.pack(">I", 1), b"c",
        struct.pack(">I", 3), b"PAY",              # payload
        b"\x00",                                   # key locator tag: embedded
        struct.pack(">I", 1), b"K",
        struct.pack(">I", 32), bytes(range(32)),   # publisher key digest
        struct.pack(">I", 2), b"SG",               # signature
    ])
    assert canonical_serialize(pkt) == expected
    assert canonical_serialize(pkt, include_hash_component=False, include_signature=False) == (
        expected[: 4 + 4 + 2]                      # name count + first component
        .replace(struct.pack(">I", 2), struct.pack(">I", 1), 1)  # one component fewer
        + expected[4 + 4 + 2 + 4 + 1 : -6]         # skip 2nd comp, drop signature block
    )


def test_interest_wire_golden_vector():
    """An ordinary interest has no scope; a control interest has scope 2."""
    plain = Interest(name=Name((b"x",)), nonce=0x0102030405060708, lifetime_ms=4000)
    assert encode_interest(plain) == b"".join([
        struct.pack(">I", 1),                      # name component count
        struct.pack(">I", 1), b"x",
        struct.pack(">Q", 0x0102030405060708),     # nonce
        b"\x00",                                   # flags: none
        b"\x00",                                   # answer origin: any
        struct.pack(">I", 4000),                   # lifetime
    ])
    control = Interest(name=Name((b"ndn", b"feedback", b"x")), nonce=9, lifetime_ms=1000)
    assert encode_interest(control) == b"".join([
        struct.pack(">I", 3),                      # name component count
        struct.pack(">I", 3), b"ndn",
        struct.pack(">I", 8), b"feedback",
        struct.pack(">I", 1), b"x",
        struct.pack(">Q", 9),                      # nonce
        b"\x04",                                   # flags: scope present
        b"\x00",                                   # answer origin: any
        b"\x02",                                   # scope
        struct.pack(">I", 1000),                   # lifetime
    ])


# ---------------------------------------------------------------------------
# Digest-typed components
# ---------------------------------------------------------------------------


def test_digest_component_round_trip():
    comp = digest_component(b"\x11" * 32)
    assert is_digest_component(comp)
    assert component_digest(comp) == b"\x11" * 32
    assert not is_digest_component(b"\x11" * 33)  # wrong tag
    assert not is_digest_component(b"\x01" + b"x" * 31)  # wrong length


# ---------------------------------------------------------------------------
# Matching
# ---------------------------------------------------------------------------


def test_prefix_rule_matches():
    data = DataPacket(
        name=parse_name("/ndn/cnn/news/2012may20"),
        payload=b"",
        signature=b"s",
        key_locator=EmbeddedKey(b"k"),
        publisher_key_digest=bytes(32),
    )
    assert interest_matches(data, _interest(name=parse_name("/ndn/cnn")))
    assert not interest_matches(data, _interest(name=parse_name("/bbc")))


def test_random_key_digest_matches_nothing():
    data = _packet()
    wanted = _interest(name=Name((b"x",)), publisher_key_digest=b"\x55" * 32)
    assert not interest_matches(data, wanted)


def test_all_ones_bloom_self_contradictory():
    # Requesting /prefix while excluding every next component can never match.
    data = _packet(name=b"prefix")
    blocked = _interest(name=parse_name("/prefix"), exclude=BloomExclude.all_ones())
    assert not interest_matches(data, blocked)


def test_exclude_applies_to_next_component_only():
    data = _packet(name=b"prefix")  # name: /prefix/<digest-component>
    hash_comp = data.name.components[-1]
    hit = _interest(name=parse_name("/prefix"), exclude=ExplicitExclude(frozenset({hash_comp})))
    miss = _interest(name=parse_name("/prefix"), exclude=ExplicitExclude(frozenset({b"other"})))
    assert not interest_matches(data, hit)
    assert interest_matches(data, miss)


@given(
    names,
    st.one_of(st.none(), st.binary(min_size=32, max_size=32)),
    st.one_of(st.none(), st.frozensets(components, max_size=3).map(ExplicitExclude)),
    st.booleans(),
)
@settings(max_examples=80)
def test_matching_monotone_in_options(name, digest, exclude, strip_hash):
    """Removing any optional constraint never turns a match into a miss."""
    data = DataPacket(
        name=name.child(b"seg").child(digest_component(b"\x3c" * 32)),
        payload=b"payload",
        signature=b"sig",
        key_locator=EmbeddedKey(b"key"),
        publisher_key_digest=b"\x77" * 32,
    )
    interest_name = name if strip_hash else name.child(b"seg")
    full = Interest(interest_name, nonce=1, publisher_key_digest=digest, exclude=exclude)
    if interest_matches(data, full):
        for relaxed in (
            Interest(interest_name, 1, None, exclude),
            Interest(interest_name, 1, digest, None),
            Interest(interest_name, 1, None, None),
        ):
            assert interest_matches(data, relaxed)


# The composed definitions of the matching clauses, each a stated rule
# built on the name helpers; the one-pass predicates must agree with them.


def _prefix_rule(data: DataPacket, interest: Interest) -> bool:
    return interest.name.is_prefix_of(data.name)


def _exclude_rule(data: DataPacket, interest: Interest) -> bool:
    """The exclude filter, if any, passes the data name's component right
    after the interest's prefix, if it has one."""
    k = len(interest.name)
    return (interest.exclude is None or len(data.name) <= k
            or not interest.exclude.excludes(data.name.components[k]))


def _publisher_rule(data: DataPacket, interest: Interest) -> bool:
    wanted = interest.publisher_key_digest
    return wanted is None or wanted == data.publisher_key_digest


def _content_hash_rule(data: DataPacket, interest: Interest) -> bool:
    comps = interest.name.components
    if not comps or not is_digest_component(comps[-1]):
        return True
    return component_digest(comps[-1]) == compute_content_hash(data)


_ALPHABET = st.sampled_from([b"a", b"b", b"ab", digest_component(b"\x01" * 32)])


@st.composite
def _match_cases(draw):
    """A data packet and an interest likely to share a prefix: the
    interest's name is a prefix of the data's, sometimes with one component
    changed, dropped or added, and sometimes ending in a digest component
    (the data's content hash or another)."""
    data = DataPacket(
        name=Name(tuple(draw(st.lists(_ALPHABET, max_size=5)))),
        payload=draw(st.binary(max_size=4)),
        signature=b"sig",
        key_locator=EmbeddedKey(b"key"),
        publisher_key_digest=draw(st.sampled_from([b"\x77" * 32, b"\x78" * 32])),
    )
    comps = list(data.name.components[: draw(st.integers(0, len(data.name)))])
    edit = draw(st.sampled_from(["none", "change", "drop", "add"]))
    if edit == "change" and comps:
        comps[draw(st.integers(0, len(comps) - 1))] = draw(_ALPHABET)
    elif edit == "drop" and comps:
        del comps[draw(st.integers(0, len(comps) - 1))]
    elif edit == "add":
        comps.insert(draw(st.integers(0, len(comps))), draw(_ALPHABET))
    if draw(st.booleans()):
        digest = compute_content_hash(data) if draw(st.booleans()) else b"\x02" * 32
        comps.append(digest_component(digest))
    exclude = draw(st.one_of(
        st.none(),
        st.frozensets(_ALPHABET, max_size=2).map(ExplicitExclude),
        st.lists(_ALPHABET, max_size=2).map(BloomExclude.from_components),
        st.just(BloomExclude.all_ones()),
    ))
    key_digest = draw(st.sampled_from([None, b"\x77" * 32, b"\x78" * 32]))
    return data, Interest(Name(tuple(comps)), 1, publisher_key_digest=key_digest, exclude=exclude)


@given(_match_cases(), st.booleans(), st.booleans())
@settings(max_examples=400, deadline=None)
def test_one_pass_predicates_equal_their_composed_rules(case, dscid, sscid):
    """`matches_base`, `content_hash_matches`, `interest_matches` and
    `PoisoningGuard.scid_check` each read the names once; each gives what
    the rules above, composed, give."""
    data, interest = case
    base = _prefix_rule(data, interest) and _exclude_rule(data, interest)
    assert matches_base(data, interest) == base
    assert content_hash_matches(data, interest) == _content_hash_rule(data, interest)
    assert interest_matches(data, interest) == (
        base and _publisher_rule(data, interest) and _content_hash_rule(data, interest))
    guard = PoisoningGuard(PoisoningConfig(enforce_dscid=dscid, enforce_sscid=sscid), rng=None)
    expected = None
    if dscid and not _publisher_rule(data, interest):
        expected = "drop_scid_d"
    elif sscid and not _content_hash_rule(data, interest):
        expected = "drop_scid_s"
    assert guard.scid_check(data, interest) == expected


_NAME_TEXT = st.text(
    alphabet=st.one_of(st.sampled_from("%0123456789abcdefABCDEFgz/ \x7f"),
                       st.characters(max_codepoint=0x2FF)),
    max_size=12,
)


@given(_NAME_TEXT)
@settings(max_examples=500, deadline=None)
def test_unescape_fast_path_matches_escape_loop(text):
    """A component without '%' skips the per-character loop; both paths
    give the same bytes, or the same NameParseError."""

    def outcome(fn):
        try:
            return fn(text)
        except NameParseError as exc:
            return str(exc)

    assert outcome(_unescape_component) == outcome(_unescape_escaped)


def _escape_per_byte(component: bytes) -> str:
    """The per-byte escape the table replaced."""
    return "".join("%%%02X" % b if b < 0x20 or b in b"/%" else chr(b) for b in component)


@given(st.binary(max_size=64))
@settings(max_examples=500, deadline=None)
def test_table_escape_matches_per_byte_escape(component):
    assert _escape_component(component) == _escape_per_byte(component)


def test_every_byte_escapes_as_before():
    every = bytes(range(256))
    assert _escape_component(every) == _escape_per_byte(every)


def test_wire_size_memo_leaves_packet_value_alone():
    """The size kept on a packet is its encoded length, and the packet
    still equals and hashes like one never measured."""
    measured, fresh = Interest(Name.parse("/m/1"), 7), Interest(Name.parse("/m/1"), 7)
    assert wire_size(measured) == wire_size(measured) == len(encode_interest(fresh))
    assert measured == fresh and hash(measured) == hash(fresh)
    assert repr(measured) == repr(fresh)


# ---------------------------------------------------------------------------
# The hand-written Interest constructor
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"nonce": -1}, "nonce"),
        ({"nonce": 2 ** 64}, "nonce"),
        ({"publisher_key_digest": b"\x00" * 31}, "key digest"),
        ({"publisher_key_digest": b"\x00" * 33}, "key digest"),
    ],
)
def test_interest_constructor_rejects_bad_fields(kwargs, message):
    fields = {"name": Name.parse("/a"), "nonce": 1, **kwargs}
    with pytest.raises(ValueError, match=message):
        Interest(**fields)


def test_interest_constructor_accepts_the_bounds():
    for nonce in (0, 2 ** 64 - 1):
        assert Interest(Name.parse("/a"), nonce).nonce == nonce
    assert Interest(Name.parse("/a"), 1, publisher_key_digest=b"\x00" * 32)


def _assert_init_parameters_are_the_fields(cls):
    """A written constructor takes exactly the declared fields, in field
    order, so the two lists cannot drift apart; a class that declares
    defaults (one without `__slots__`) declares the constructor's."""
    params = list(inspect.signature(cls.__init__).parameters.values())[1:]
    assert [p.name for p in params] == list(cls._fields)
    assert all(p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD for p in params)
    declared = {p.name: p.default for p in params if p.default is not p.empty}
    assert cls._defaults == ({} if "__slots__" in vars(cls) else declared)


def test_interest_init_parameters_are_the_fields():
    _assert_init_parameters_are_the_fields(Interest)


@pytest.mark.parametrize("cls", [Name, DataPacket, CsEntry, PitEntry, _Request])
def test_written_init_parameters_are_the_fields(cls):
    _assert_init_parameters_are_the_fields(cls)


INTEREST_VALUES = st.builds(
    Interest,
    names,
    st.integers(0, 2 ** 64 - 1),
    st.none() | st.binary(min_size=32, max_size=32),
    st.none() | st.builds(ExplicitExclude, st.frozensets(components, max_size=3)),
    st.integers(1, 10_000),
    st.booleans(),
)


@given(INTEREST_VALUES, st.booleans())
@settings(max_examples=100)
def test_interest_value_semantics_are_the_fields(interest, flip_attack):
    """Equality, hashing and repr are those of the declared fields: every
    field but `attack` takes part in equality and hashing, and all of them
    are in the repr, in field order."""
    fields = Interest._fields
    values = {name: getattr(interest, name) for name in fields}
    assert list(vars(interest))[: len(fields)] == list(fields)
    compared = tuple(values[name] for name in fields if name != "attack")
    assert hash(interest) == hash(compared)
    assert repr(interest) == "Interest(" + ", ".join(
        f"{name}={value!r}" for name, value in values.items()) + ")"
    twin = Interest(**{**values, "attack": values["attack"] ^ flip_attack})
    assert twin == interest and hash(twin) == hash(interest)
    assert interest.replace(nonce=(interest.nonce + 1) % 2 ** 64) != interest
    with pytest.raises(AttributeError):
        interest.nonce = 0

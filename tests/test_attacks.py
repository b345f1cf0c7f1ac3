"""Attack spec validation and generator behavior."""

from __future__ import annotations

import pytest

from helpers import make_key, make_packet, n
from ndnshield.attacks import (
    AttackSpec,
    build_keylocator_abuse_content,
    gen_flood_interest,
)
from ndnshield.crypto import verify_signature
from ndnshield.packets import BloomExclude, KeyName, interest_matches
from ndnshield.rand import Rng
from ndnshield.schema import Invalid, Reader


def spec(kind, **kw):
    defaults = dict(
        kind=kind,
        zombies=("z1",),
        target_prefix=n("/victim"),
        rate_per_s=100.0,
        start_ms=0,
        stop_ms=1000,
    )
    defaults.update(kw)
    return AttackSpec(**defaults)


def test_spec_validation():
    """The constructor checks the rules across fields; a rule on one value
    is type metadata, checked where a document is read."""
    with pytest.raises(ValueError):
        spec("flood-static")  # needs a name pool
    with pytest.raises(ValueError):
        spec("flood-dynamic")  # needs the dynamic namespace
    with pytest.raises(Invalid, match="start must precede stop") as err:
        spec("flood-unsat-nonce", start_ms=5, stop_ms=5)
    assert err.value.key == "stop_ms"
    reader = Reader()
    fields = {"kind": "no-such-kind", "zombies": ["z1"], "target_prefix": "/victim",
              "rate_per_s": 0, "stop_ms": 1000}
    assert reader.parse(fields, "$", AttackSpec) is None
    assert [e.split(": ")[0] for e in reader.errors] == ["$.kind", "$.rate_per_s"]


def test_unsat_nonce_names_never_repeat():
    s = spec("flood-unsat-nonce")
    rng = Rng(1, "z")
    names = {gen_flood_interest(s, rng, k).name for k in range(200)}
    assert len(names) == 200
    assert all(n("/victim").is_prefix_of(name) for name in names)


def test_unsat_keydigest_matches_no_honest_data():
    s = spec("flood-unsat-keydigest", name_pool=(n("/victim/page"),))
    rng = Rng(2, "z")
    interest = gen_flood_interest(s, rng, 0)
    honest = make_packet("/victim/page", key=make_key("honest"))
    assert not interest_matches(honest, interest)
    assert interest.attack


def test_unsat_exclude_uses_all_ones_bloom():
    s = spec("flood-unsat-exclude")
    interest = gen_flood_interest(s, Rng(3, "z"), 0)
    assert isinstance(interest.exclude, BloomExclude)
    honest = make_packet("/victim/anything")
    assert not interest_matches(honest, interest)


def test_static_flood_cycles_pool():
    pool = tuple(n(f"/victim/s{i}") for i in range(10))
    s = spec("flood-static", name_pool=pool)
    rng = Rng(4, "z")
    assert gen_flood_interest(s, rng, 10).name == gen_flood_interest(s, rng, 0).name


def test_dynamic_flood_unique_per_zombie_and_seq():
    s = spec("flood-dynamic", dynamic_under=n("/victim/live"))
    rng = Rng(5, "z")
    a = gen_flood_interest(s, rng, 0, zombie_id="z1")
    b = gen_flood_interest(s, rng, 0, zombie_id="z2")
    c = gen_flood_interest(s, rng, 1, zombie_id="z1")
    assert len({a.name, b.name, c.name}) == 3


def test_keylocator_abuse_content_shape():
    key = make_key("adversary")
    packets = build_keylocator_abuse_content(n("/evil/video"), n("/victim"), 5, key)
    assert len(packets) == 5
    key_names = set()
    for pkt in packets:
        assert verify_signature(pkt, key.public_der)  # consumers must fetch it
        assert isinstance(pkt.key_locator, KeyName)
        assert n("/victim/keys").is_prefix_of(pkt.key_locator.name)
        key_names.add(pkt.key_locator.name)
    assert len(key_names) == 5  # distinct non-existent keys


def test_keylocator_abuse_needs_positive_count():
    with pytest.raises(ValueError):
        build_keylocator_abuse_content(n("/evil"), n("/victim"), 0, make_key("adversary"))

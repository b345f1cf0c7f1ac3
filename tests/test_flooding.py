"""Flooding defense: quotas, throttling, push-back protocol."""

from __future__ import annotations

import pytest

from helpers import iface_info, make_packet, n
from ndnshield.flooding import (
    FloodingConfig,
    FloodingDefense,
    TokenBucket,
    compute_outgoing_quota,
)
from ndnshield.crypto import hmac_sha256
from ndnshield.packets import Interest, Name, control_interest, is_control_name
from ndnshield.rand import Rng
from ndnshield.router import Router, RouterConfig

MS = 1000
S = 1000 * MS


def make_defended_router(quotas=None, **config_kw):
    config = FloodingConfig(
        namespace_quotas={n(p): q for p, q in (quotas or {}).items()}, **config_kw
    )
    defense = FloodingDefense(config, Rng(11, "flood"))
    router = Router("r", config=RouterConfig(), flooding=defense)
    for i in range(4):
        router.attach_iface(iface_info(i, bandwidth=12e6))
    router.fib.add(n("/victim"), [3])
    return router, defense


def interest(name: str, nonce: int, **kw) -> Interest:
    return Interest(n(name), nonce, **kw)


# ---------------------------------------------------------------------------
# Outgoing quota
# ---------------------------------------------------------------------------


def test_quota_formula_scenario_defaults():
    # ceiling(12e6 bit/s * 4 s / (1500 B * 8 bit)) = 4000
    assert compute_outgoing_quota(12e6, 1500, 4.0) == 4000


def test_quota_limit_case_clamps_to_one():
    assert compute_outgoing_quota(12e6, 1500, 1e-9) == 1


def test_quota_linearity_in_bandwidth():
    base = compute_outgoing_quota(10e6, 1500, 4.0)
    assert abs(compute_outgoing_quota(20e6, 1500, 4.0) - 2 * base) <= 1  # ceiling rounding


def test_quota_rejects_bad_inputs():
    with pytest.raises(ValueError):
        compute_outgoing_quota(0, 1500, 4.0)


# ---------------------------------------------------------------------------
# Admission
# ---------------------------------------------------------------------------


def test_all_counters_zero_admits():
    router, defense = make_defended_router()
    admitted, reason = defense.admit(0, interest("/victim/a", 1), [3], now=0)
    assert admitted == [3] and reason is None


def test_egress_quota_per_interface_isolation():
    router, defense = make_defended_router(outgoing_quota_override=1)
    defense.pending_out[3] = 1  # egress 3 saturated
    _, reason = defense.admit(0, interest("/victim/a", 1), [3], now=0)
    assert reason == "rej_egress-quota"
    # A different egress with headroom still admits the interest.
    admitted, reason = defense.admit(0, interest("/victim/a", 2), [2, 3], now=0)
    assert admitted == [2] and reason is None


def test_ingress_limit():
    router, defense = make_defended_router(incoming_limit_override=2)
    defense.pending_in[0] = 2
    _, reason = defense.admit(0, interest("/victim/a", 1), [3], now=0)
    assert reason == "rej_ingress-limit"


def test_namespace_quota_rejects_when_full():
    router, defense = make_defended_router(quotas={"/victim": 5})
    defense.ns_pending[n("/victim").components] = 5
    _, reason = defense.admit(0, interest("/victim/a", 1), [3], now=0)
    assert reason == "rej_namespace-quota"
    # Non-matching prefixes are untouched (push-back locality).
    admitted, reason = defense.admit(0, interest("/other/a", 1), [3], now=0)
    assert reason is None


@pytest.mark.parametrize("outcome", ["satisfied", "expired"])
def test_same_iface_collapse_counts_one_pending_interest(outcome):
    router, defense = make_defended_router(quotas={"/victim": 100})
    ns = n("/victim").components
    router.on_interest(0, interest("/victim/x", 1), now=0)
    router.on_interest(0, interest("/victim/x", 2), now=MS)  # collapses on the same iface
    assert router.stats["interests_collapsed"] == 1
    assert (defense.pending_in[0], defense.ns_pending_in[(ns, 0)]) == (1, 1)
    if outcome == "satisfied":
        router.on_data(3, make_packet("/victim/x"), now=2 * MS)
    else:
        router.expire_pit(now=4000 * MS)
    assert len(router.pit) == 0
    assert (defense.pending_in[0], defense.ns_pending_in[(ns, 0)]) == (0, 0)
    assert (defense.pending_out[3], defense.ns_pending[ns]) == (0, 0)


def _resolve_synthetic(defense, router, ns, iface, satisfied, expired, now):
    """Feed the window resolved outcomes without running a network."""
    for k in range(satisfied):
        defense._window(ns, iface).add(now, True)
    for k in range(expired):
        defense._window(ns, iface).add(now, False)


def test_throttle_tracks_satisfaction_ratio():
    router, defense = make_defended_router(quotas={"/victim": 1000})
    ns = n("/victim").components
    # Attacker ingress: 95% expiry. Honest ingress: 2% expiry.
    _resolve_synthetic(defense, router, ns, 0, satisfied=5, expired=95, now=S)
    _resolve_synthetic(defense, router, ns, 1, satisfied=98, expired=2, now=S)
    assert defense.throttle_fraction(ns, 0, S) < defense.throttle_fraction(ns, 1, S)
    assert defense.throttle_fraction(ns, 0, S) == pytest.approx(0.05)
    # A healthy ingress is not an anomaly: it admits at full fraction.
    assert defense.throttle_fraction(ns, 1, S) == 1.0


def test_throttle_anomalous_band_proportional():
    router, defense = make_defended_router(quotas={"/victim": 1000})
    ns = n("/victim").components
    _resolve_synthetic(defense, router, ns, 0, satisfied=30, expired=70, now=S)
    assert defense.throttle_fraction(ns, 0, S) == pytest.approx(0.30)


def test_throttle_clamp_floor_under_all_expiry():
    router, defense = make_defended_router(quotas={"/victim": 1000})
    ns = n("/victim").components
    _resolve_synthetic(defense, router, ns, 0, satisfied=0, expired=500, now=S)
    assert defense.throttle_fraction(ns, 0, S) == 0.05
    # The floor keeps a trickle of admissions alive on that ingress.
    admits = sum(
        1
        for k in range(2000)
        if defense.admit(0, interest("/victim/x", k), [3], now=S)[1] is None
    )
    assert 40 <= admits <= 170  # ~5% of 2000


def test_throttle_one_for_quiet_window():
    router, defense = make_defended_router(quotas={"/victim": 1000})
    assert defense.throttle_fraction(n("/victim").components, 0, S) == 1.0


def test_window_slides():
    router, defense = make_defended_router(quotas={"/victim": 100}, window_ms=10_000)
    ns = n("/victim").components
    _resolve_synthetic(defense, router, ns, 0, satisfied=0, expired=50, now=S)
    assert defense.throttle_fraction(ns, 0, S) == 0.05
    assert defense.throttle_fraction(ns, 0, 12 * S) == 1.0  # events aged out


# ---------------------------------------------------------------------------
# Push-back
# ---------------------------------------------------------------------------


def _trip_quota(defense, router, ns, iface, now):
    defense.ns_pending[ns.components] = defense.config.namespace_quotas[ns]
    defense.admit(iface, Interest(ns.child(b"x"), 999), [3], now=now)


def test_pushback_emitted_once_per_cooldown():
    router, defense = make_defended_router(quotas={"/victim": 10})
    ns = n("/victim")
    _resolve_synthetic(defense, router, ns.components, 0, satisfied=0, expired=50, now=S)
    _trip_quota(defense, router, ns, 0, now=S)
    first = defense.on_expiry_feedback(now=S)
    assert len(first) == 1 and first[0][0] == 0
    # Within the cooldown nothing more is emitted toward that ingress.
    _trip_quota(defense, router, ns, 0, now=S + 100 * MS)
    assert defense.on_expiry_feedback(now=S + 100 * MS) == []


def test_pushback_goes_out_in_textual_name_order():
    """Namespaces that tripped their quota are advised in the order of
    their textual names. '/a%2F' (one component, b"a/") sorts before
    '/a/b' as text, but after it by components."""
    slash, nested = n("/a%2F"), n("/a/b")
    assert str(slash) < str(nested) and nested.components < slash.components
    router, defense = make_defended_router(quotas={"/a/b": 10, "/a%2F": 10})
    for ns in (nested, slash):  # tripped in byte order
        _resolve_synthetic(defense, router, ns.components, 0, satisfied=0, expired=50, now=S)
        _trip_quota(defense, router, ns, 0, now=S)
    out = defense.on_expiry_feedback(now=S)
    assert [(iface, defense.parse_pushback(msg)[0]) for iface, msg in out] == [
        (0, slash),
        (0, nested),
    ]


def test_pushback_round_trip_and_rate_install():
    router, defense = make_defended_router(quotas={"/victim": 10})
    ns = n("/victim")
    msg = defense.build_pushback(ns, rate_per_s=12.5, ttl=8, iface=0)
    assert is_control_name(msg.name)
    prefix, rate, ttl = defense.parse_pushback(msg)
    assert prefix == ns and rate == pytest.approx(12.5) and ttl == 8

    # Receiving router: offender on ingress 1 gets capped and the advice
    # propagates toward it with TTL-1.
    router2, defense2 = make_defended_router(quotas={"/victim": 10})
    _resolve_synthetic(defense2, router2, ns.components, 1, satisfied=0, expired=80, now=S)
    # The arriving interface shares the emitter's link key in these fixtures
    # because helpers derive keys from the interface number.
    out = defense2.handle_pushback(0, msg, now=S)
    assert [(iface, defense2.parse_pushback(m)[2]) for iface, m in out] == [(1, 7)]
    assert (ns, 1) in defense2.rate_caps()
    assert defense2.rate_caps()[(ns, 1)] == pytest.approx(12.5)


def test_pushback_ttl_exhausted_stops():
    router, defense = make_defended_router(quotas={"/victim": 10})
    ns = n("/victim")
    msg = defense.build_pushback(ns, rate_per_s=5.0, ttl=1, iface=0)
    router2, defense2 = make_defended_router(quotas={"/victim": 10})
    _resolve_synthetic(defense2, router2, ns.components, 1, satisfied=0, expired=80, now=S)
    out = defense2.handle_pushback(0, msg, now=S)
    assert out == []  # cap still installs, but no further propagation
    assert (ns, 1) in defense2.rate_caps()


def test_forged_pushback_ignored():
    router, defense = make_defended_router(quotas={"/victim": 10})
    ns = n("/victim")
    msg = defense.build_pushback(ns, rate_per_s=5.0, ttl=8, iface=0)
    forged = Interest(Name(msg.name.components[:-1] + (b"\x00" * 32,)), msg.nonce, lifetime_ms=1000)
    router2, defense2 = make_defended_router(quotas={"/victim": 10})
    _resolve_synthetic(defense2, router2, ns.components, 1, satisfied=0, expired=80, now=S)
    assert defense2.handle_pushback(0, forged, now=S) == []
    assert defense2.rate_caps() == {}
    assert router2.stats["pushback_bad_mac"] == 1


def test_pushback_macd_over_its_text_is_refused():
    """A MAC over the name's textual form, as control names once carried,
    is not the link MAC: the push-back is counted bad and installs nothing."""
    router, defense = make_defended_router(quotas={"/victim": 10})
    ns = n("/victim")
    body = Name(defense.build_pushback(ns, rate_per_s=5.0, ttl=8, iface=0).name.components[:-1])
    text_mac = hmac_sha256(router.ifaces[0].link_key, str(body).encode())
    router2, defense2 = make_defended_router(quotas={"/victim": 10})
    _resolve_synthetic(defense2, router2, ns.components, 1, satisfied=0, expired=80, now=S)
    assert defense2.handle_pushback(0, control_interest(body.child(text_mac), 1), now=S) == []
    assert defense2.rate_caps() == {}
    assert router2.stats["pushback_bad_mac"] == 1 and router2.stats["pushback_received"] == 0


def test_rate_cap_enforced_per_ingress():
    router, defense = make_defended_router(quotas={"/victim": 1000})
    ns = n("/victim")
    from ndnshield.flooding import TokenBucket

    defense._caps[(ns.components, 0)] = TokenBucket(2.0, 2.0, now=0)
    results = [
        defense.admit(0, interest("/victim/a", k), [3], now=k * 10)[1] for k in range(10)
    ]
    assert results.count("rej_rate-cap") == 8  # burst of 2, then capped
    # Ingress 1 has no cap and sails through.
    assert defense.admit(1, interest("/victim/a", 99), [3], now=100)[1] is None


def test_sole_contributor_is_offender():
    router, defense = make_defended_router(quotas={"/victim": 10})
    ns = n("/victim").components
    _resolve_synthetic(defense, router, ns, 2, satisfied=0, expired=30, now=S)
    assert defense._offending_ingresses(ns, S) == [2]


def test_offender_rule_spares_honest_peer():
    router, defense = make_defended_router(quotas={"/victim": 10})
    ns = n("/victim").components
    _resolve_synthetic(defense, router, ns, 0, satisfied=0, expired=500, now=S)
    _resolve_synthetic(defense, router, ns, 1, satisfied=95, expired=5, now=S)
    assert defense._offending_ingresses(ns, S) == [0]


def test_token_bucket_refills_deterministically():
    bucket, rng = TokenBucket(10.0, 1.0, now=0), Rng(1, "bucket")
    assert bucket.take(0, rng, 10.0)
    assert not bucket.take(0, rng, 10.0)  # no partial token: nothing drawn
    assert bucket.take(100 * MS, rng, 10.0)  # 0.1 s at 10/s refills one token

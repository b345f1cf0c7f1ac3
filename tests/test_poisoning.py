"""Poisoning defense: SCID admission, sampling, warnings, trust."""

from __future__ import annotations

import pytest

from helpers import iface_info, make_key, make_packet, n
from ndnshield.crypto import compute_content_hash, forge_packet, hmac_sha256, ls32, sha256
from ndnshield.packets import Interest, Name, digest_component, is_control_name
from ndnshield.poisoning import (
    ConsumerFeedbackConfig,
    NeighborFeedbackConfig,
    PoisoningConfig,
    PoisoningGuard,
    VerifierConfig,
    coverage_probability,
    disjoint_residue,
    feedback_interest,
)
from ndnshield.rand import Rng
from ndnshield.router import CsEntry, Router, RouterConfig

MS = 1000


class ManualTimers:
    """Stand-in scheduler so verification completions run on demand."""

    def __init__(self):
        self.queue = []

    def after(self, delay_us, fn):
        self.queue.append(fn)

    def flush(self):
        while self.queue:
            self.queue.pop(0)()


def guarded_router(
    router_id="r",
    mode="off",
    v=1.0,
    group=(),
    group_key=b"",
    neighbor=None,
    consumer=None,
    enforce_dscid=True,
    enforce_sscid=True,
):
    config = PoisoningConfig(
        enforce_dscid=enforce_dscid,
        enforce_sscid=enforce_sscid,
        verifier=VerifierConfig(mode=mode, v=v, group=group, group_key=group_key),
        neighbor=neighbor or NeighborFeedbackConfig(),
        consumer=consumer or ConsumerFeedbackConfig(),
    )
    guard = PoisoningGuard(config, Rng(5, f"guard:{router_id}"))
    router = Router(router_id, config=RouterConfig(), poisoning=guard)
    for i in range(3):
        router.attach_iface(iface_info(i))
    timers = ManualTimers()
    router.after = timers.after
    emitted = []
    router.emit = lambda iface, pkt: emitted.append((iface, pkt))
    return router, guard, timers, emitted


def fake_packet(name="/victim/x"):
    """Validly signed under the adversary's key; digest differs from honest."""
    return make_packet(name, key=make_key("adversary"))


def corrupted_packet(name="/victim/x"):
    """Claims the honest key but carries a garbage signature."""
    key = make_key("honest")
    return forge_packet(n(name), b"garbage-payload", key.public_der, Rng(5, "forge"))


# ---------------------------------------------------------------------------
# SCID admission
# ---------------------------------------------------------------------------


def test_fake_rejected_by_dscid():
    router, guard, _, _ = guarded_router()
    trusted = make_key("honest").digest
    wanted = Interest(n("/victim/x"), 1, publisher_key_digest=trusted)
    assert guard.scid_check(fake_packet(), wanted) == "drop_scid_d"


def test_corrupted_passes_dscid():
    # The router compares digests only; it never verifies the signature.
    router, guard, _, _ = guarded_router()
    trusted = make_key("honest").digest
    wanted = Interest(n("/victim/x"), 1, publisher_key_digest=trusted)
    assert guard.scid_check(corrupted_packet(), wanted) is None


def test_wrong_bytes_rejected_by_sscid():
    router, guard, _, _ = guarded_router()
    honest = make_packet("/victim/x", key=make_key("honest"))
    wanted_hash = compute_content_hash(honest)
    wanted = Interest(n("/victim/x").child(digest_component(wanted_hash)), 1)
    wrong = fake_packet()
    assert guard.scid_check(wrong, wanted) == "drop_scid_s"
    assert guard.scid_check(honest, wanted) is None


def test_enforcement_flags_gate_checks():
    router, guard, _, _ = guarded_router(enforce_dscid=False, enforce_sscid=False)
    trusted = make_key("honest").digest
    wanted = Interest(n("/victim/x"), 1, publisher_key_digest=trusted)
    assert guard.scid_check(fake_packet(), wanted) is None  # lazy router


def test_scid_reject_keeps_pit_entry():
    router, guard, timers, emitted = guarded_router()
    router.fib.add(n("/victim"), [2])
    trusted = make_key("honest").digest
    router.on_interest(0, Interest(n("/victim/x"), 1, publisher_key_digest=trusted), now=0)
    emitted.clear()
    router.on_data(2, fake_packet(), now=MS)
    assert router.stats["drop_scid_d"] == 1
    assert router.stats["drop_scid_s"] == 0
    assert emitted == []
    assert len(router.pit) == 1  # an honest copy can still satisfy it
    assert len(router.cs) == 0


# ---------------------------------------------------------------------------
# Selection
# ---------------------------------------------------------------------------


def test_independent_v1_selects_everything():
    router, guard, _, _ = guarded_router(mode="independent", v=1.0)
    for i in range(20):
        assert guard.select_for_verification(CsEntry(None, bytes([i]) * 32, 0.5, False, 0))


def test_disjoint_residue_unique_per_hash():
    group = ("a", "b", "c", "d")
    for i in range(50):
        h = sha256(bytes([i]))
        residues = [disjoint_residue("disjoint-plain", h, b"", len(group))]
        assert len(set(residues)) == 1
        assert 0 <= residues[0] < len(group)


def test_disjoint_plain_crafted_packets_hit_one_router():
    # Adversary picks hashes with ls32(h) = x (mod n): only router x is
    # ever eligible under the plain variant.
    group = ("r0", "r1", "r2", "r3")
    target = 2
    crafted = [sha256(b"pkt%d" % i) for i in range(4000)]
    crafted = [h for h in crafted if ls32(h) % 4 == target]
    assert crafted, "need some crafted hashes"
    assert all(disjoint_residue("disjoint-plain", h, b"", 4) == target for h in crafted)


def test_disjoint_hmac_spreads_crafted_packets():
    key = b"\x42" * 32
    target = 2
    crafted = [sha256(b"pkt%d" % i) for i in range(40000) if ls32(sha256(b"pkt%d" % i)) % 4 == target]
    counts = [0, 0, 0, 0]
    for h in crafted:
        counts[disjoint_residue("disjoint-hmac", h, key, 4)] += 1
    total = sum(counts)
    for c in counts:
        assert abs(c / total - 0.25) < 0.05


def _scan_run(monkeypatch, recompute: bool):
    """Five scans over 40 cached entries under keyed disjoint assignment;
    with `recompute`, every entry's kept residue is cleared before each
    scan, so every selection works it out again."""
    import ndnshield.poisoning as poisoning

    hmacs = []

    def counting_hmac(key, data):
        hmacs.append(data)
        return hmac_sha256(key, data)

    monkeypatch.setattr(poisoning, "hmac_sha256", counting_hmac)
    router, guard, timers, _ = guarded_router(
        mode="disjoint-hmac", v=12.0, group=("q", "r", "s", "t"), group_key=b"\x42" * 32
    )
    selected = []
    schedule = guard._schedule_verification
    monkeypatch.setattr(
        guard, "_schedule_verification", lambda h, *a: (selected.append(h), schedule(h, *a))
    )
    key = make_key("honest")
    for i in range(40):
        router.cs.insert(make_packet(f"/victim/{i}", key=key), now=0)
        guard.on_inserted(router.cs.newest, now=0)
    timers.flush()
    for k in range(1, 6):
        if recompute:
            for entry in router.cs.entries():
                entry.mine = None
        guard.scan(now=k * MS)
        timers.flush()
    return selected, hmacs, guard.rng.state()


def test_scan_computes_each_residue_once(monkeypatch):
    selected, hmacs, rng_state = _scan_run(monkeypatch, recompute=False)
    ref_selected, ref_hmacs, ref_rng_state = _scan_run(monkeypatch, recompute=True)
    assert sorted(hmacs) == sorted(set(hmacs)) and len(hmacs) == 40  # once per entry
    assert len(ref_hmacs) > len(hmacs)
    assert selected == ref_selected and selected  # same selections, in the same order
    assert rng_state == ref_rng_state  # after the same rng draws


def test_verified_entries_never_reselected():
    router, guard, timers, _ = guarded_router(mode="independent", v=1.0)
    pkt = make_packet("/victim/x", key=make_key("honest"))
    router.cs.insert(pkt, now=0)
    entry = router.cs.entries()[0]
    guard.on_inserted(entry, now=0)
    timers.flush()
    assert entry.verified and entry.trust == 1.0
    before = router.stats["verifications"]
    guard.scan(now=MS)
    timers.flush()
    assert router.stats["verifications"] == before


# ---------------------------------------------------------------------------
# Coverage probability
# ---------------------------------------------------------------------------


def test_coverage_independent_single():
    assert coverage_probability("independent", 1, [2]) == pytest.approx(0.5)


def test_coverage_independent_two():
    assert coverage_probability("independent", 2, [2, 4]) == pytest.approx(0.625)


def test_coverage_disjoint_domain_error():
    with pytest.raises(ValueError):
        coverage_probability("disjoint-plain", 4, [3, 8, 8, 8])


def test_coverage_matches_monte_carlo():
    # Brute-force sampling oracle over the same Bernoulli process the
    # formula describes: each router independently covers the packet.
    rng = Rng(77, "mc")
    cases = [
        ("independent", 3, [2.0, 3.0, 4.0], lambda vi: 1.0 / vi),
        ("disjoint-hmac", 4, [8.0, 8.0, 8.0, 8.0], lambda vi: 4.0 / vi),
    ]
    trials = 100_000
    for mode, n_routers, v, per_router in cases:
        covered = 0
        probs = [per_router(vi) for vi in v]
        for _ in range(trials):
            if any(rng.random() < p for p in probs):
                covered += 1
        formula = coverage_probability(mode, n_routers, v)
        assert abs(covered / trials - formula) <= 0.01


# ---------------------------------------------------------------------------
# Verification outcomes and warnings
# ---------------------------------------------------------------------------


def test_invalid_cached_packet_evicted_and_warned():
    router, guard, timers, emitted = guarded_router(
        mode="independent", v=1.0, neighbor=NeighborFeedbackConfig(enabled=True, p=1.0)
    )
    bad = corrupted_packet()
    router.cs.insert(bad, now=0)
    guard.on_inserted(router.cs.entries()[0], now=0)
    timers.flush()
    assert len(router.cs) == 0
    assert len(emitted) == 3  # one warning per interface
    assert router.stats["verify_invalid"] == 1
    for iface, warning in emitted:
        assert is_control_name(warning.name)
        assert warning.name.components[:2] == (b"ndn", b"warning")


def test_invalid_packet_feedback_disabled_evicts_silently():
    router, guard, timers, emitted = guarded_router(mode="independent", v=1.0)
    router.cs.insert(corrupted_packet(), now=0)
    guard.on_inserted(router.cs.entries()[0], now=0)
    timers.flush()
    assert len(router.cs) == 0 and emitted == []


def test_warning_for_uncached_hash_discarded():
    router, guard, timers, _ = guarded_router(
        neighbor=NeighborFeedbackConfig(enabled=True, p=1.0)
    )
    other, other_guard, _, other_emitted = guarded_router(
        "s", neighbor=NeighborFeedbackConfig(enabled=True, p=1.0)
    )
    warning = other_guard._warning_interest(b"\x11" * 32, iface=0)
    router.on_interest(0, warning, now=0)  # same link key by fixture construction
    timers.flush()
    assert router.stats["warnings_received"] == 1
    assert router.stats["verifications"] == 0


def test_warning_triggers_purge_on_neighbor():
    # Two adjacent routers cache the same corrupted packet; one detection
    # plus one warning round (p=1) purges both.
    r1, g1, t1, e1 = guarded_router("r1", mode="independent", v=1.0,
                                    neighbor=NeighborFeedbackConfig(enabled=True, p=1.0))
    r2, g2, t2, e2 = guarded_router("r2", neighbor=NeighborFeedbackConfig(enabled=True, p=1.0))
    bad = corrupted_packet()
    r1.cs.insert(bad, now=0)
    r2.cs.insert(bad, now=0)
    g1.on_inserted(r1.cs.entries()[0], now=0)
    t1.flush()
    assert len(r1.cs) == 0 and e1
    # Deliver r1's warning to r2 (link keys match by interface number).
    iface, warning = e1[0]
    r2.on_interest(0, warning, now=MS)
    t2.flush()
    assert len(r2.cs) == 0
    assert e2  # r2 gossips onward after its own detection


def test_forged_warning_leaves_cache_untouched():
    router, guard, timers, _ = guarded_router(
        neighbor=NeighborFeedbackConfig(enabled=True, p=1.0)
    )
    bad = corrupted_packet()
    router.cs.insert(bad, now=0)
    h = compute_content_hash(bad)
    forged = Interest(Name((b"ndn", b"warning", h, b"\x00" * 32)), 1)
    router.on_interest(0, forged, now=0)
    timers.flush()
    assert len(router.cs) == 1
    assert router.stats["warnings_bad_mac"] == 1


def test_valid_packet_suppresses_repeat_warnings():
    router, guard, timers, _ = guarded_router(
        neighbor=NeighborFeedbackConfig(enabled=True, p=1.0, cooldown_ms=10_000)
    )
    good = make_packet("/victim/x", key=make_key("honest"))
    router.cs.insert(good, now=0)
    h = compute_content_hash(good)
    peer, peer_guard, _, _ = guarded_router("peer")
    warning = peer_guard._warning_interest(h, iface=0)
    router.on_interest(0, warning, now=0)
    timers.flush()
    assert router.cs.entries()[0].verified
    router.on_interest(0, warning, now=5 * 1000 * MS)  # within cooldown
    timers.flush()
    assert router.stats["warnings_suppressed"] >= 1


# ---------------------------------------------------------------------------
# Consumer feedback and trust
# ---------------------------------------------------------------------------


def feedback_consumer_config():
    return ConsumerFeedbackConfig(enabled=True, alpha=0.05, beta=0.5, threshold=3)


def test_fresh_entry_trust_half():
    router, guard, _, _ = guarded_router()
    router.cs.insert(make_packet("/t/x"), now=0)
    assert router.cs.entries()[0].trust == 0.5


def test_negative_feedback_decays_trust_without_eviction():
    router, guard, timers, _ = guarded_router(consumer=feedback_consumer_config())
    pkt = corrupted_packet()
    router.cs.insert(pkt, now=0)
    fb = feedback_interest(compute_content_hash(pkt), nonce=9)
    router.on_interest(0, fb, now=0)
    assert router.cs.entries()[0].trust == pytest.approx(0.25)
    assert len(router.cs) == 1  # a single report never evicts by itself


def test_feedback_threshold_forces_verification():
    router, guard, timers, _ = guarded_router(consumer=feedback_consumer_config())
    pkt = corrupted_packet()
    router.cs.insert(pkt, now=0)
    h = compute_content_hash(pkt)
    for k in range(3):
        router.on_interest(0, feedback_interest(h, nonce=k), now=k * MS)
    timers.flush()
    assert len(router.cs) == 0  # verified corrupted, evicted
    assert router.stats["verify_invalid"] == 1


def test_positive_retrieval_raises_trust():
    router, guard, _, _ = guarded_router(consumer=feedback_consumer_config())
    router.cs.insert(make_packet("/t/x"), now=0)
    entry = router.cs.entries()[0]
    guard.on_positive_retrieval(entry)
    assert entry.trust == pytest.approx(0.5 + 0.05 * 0.5)


def test_trust_bounds_hold():
    router, guard, _, _ = guarded_router(consumer=feedback_consumer_config())
    router.cs.insert(make_packet("/t/x"), now=0)
    entry = router.cs.entries()[0]
    for _ in range(200):
        guard.on_positive_retrieval(entry)
    assert entry.trust <= 1.0
    pkt_hash = entry.content_hash
    for k in range(50):
        router.on_interest(0, feedback_interest(pkt_hash, nonce=k), now=0)
    assert router.cs.get(pkt_hash) is None or router.cs.get(pkt_hash).trust >= 0.0


def test_verifier_config_validation():
    with pytest.raises(ValueError):
        VerifierConfig(mode="disjoint-plain", v=2.0, group=("a", "b", "c"))
    with pytest.raises(ValueError):
        VerifierConfig(mode="independent", v=0.5)
    with pytest.raises(ValueError):
        VerifierConfig(mode="disjoint-hmac", v=8.0, group=("a", "b"))  # no key

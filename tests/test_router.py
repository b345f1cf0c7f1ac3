"""Forwarding engine: FIB, PIT collapsing, CS policy, strategy, suppression."""

from __future__ import annotations

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_packet, make_router, n
from ndnshield.packets import AnswerOrigin, Interest, Name
from ndnshield.router import (
    ContentStore,
    Drop,
    Fib,
    FibEntry,
    FibStats,
    SendData,
    SendInterest,
    CancelSends,
    longest_prefix_match,
    option_fingerprint,
    strategy_choose,
)

MS = 1000
LIFETIME_US = 4000 * MS


def interest(name: str, nonce: int = 1, **kw) -> Interest:
    return Interest(n(name), nonce, **kw)


# ---------------------------------------------------------------------------
# Longest prefix match
# ---------------------------------------------------------------------------


def test_lpm_picks_longest():
    fib = Fib()
    fib.add(n("/ndn"), [0])
    fib.add(n("/ndn/cnn"), [1])
    assert longest_prefix_match(fib, n("/ndn/cnn/news")).prefix == n("/ndn/cnn")


def test_lpm_no_match():
    fib = Fib()
    fib.add(n("/ndn/cnn"), [0])
    assert longest_prefix_match(fib, n("/bbc")) is None


@given(
    st.lists(
        st.lists(st.sampled_from([b"a", b"b", b"c", b"d"]), min_size=0, max_size=4),
        min_size=1,
        max_size=64,
    ),
    st.lists(st.sampled_from([b"a", b"b", b"c", b"d"]), min_size=0, max_size=6),
)
@settings(max_examples=100)
def test_lpm_matches_linear_scan_oracle(prefixes, name_comps):
    fib = Fib()
    for comps in prefixes:
        fib.add(Name(tuple(comps)), [0])
    name = Name(tuple(name_comps))
    # Oracle: scan every entry, keep the longest matching prefix.
    best = None
    for entry in fib.entries():
        if entry.prefix.is_prefix_of(name):
            if best is None or len(entry.prefix) > len(best.prefix):
                best = entry
    got = longest_prefix_match(fib, name)
    if best is None:
        assert got is None
    else:
        assert got is not None and got.prefix == best.prefix


# ---------------------------------------------------------------------------
# Interest pipeline
# ---------------------------------------------------------------------------


def setup_router():
    router = make_router(n_ifaces=6)
    router.fib.add(n("/victim"), [5])
    return router


def test_collapsing_five_interests_one_upstream():
    router = setup_router()
    sends = []
    for i in range(5):
        actions = router.on_interest(i, interest("/victim/x", nonce=100 + i), now=i * MS)
        sends += [a for a in actions if isinstance(a, SendInterest)]
    assert len(sends) == 1
    entry = next(iter(router.pit.entries()))
    assert set(entry.incoming) == {0, 1, 2, 3, 4}
    assert router.stats["interests_collapsed"] == 4


def test_duplicate_nonce_dropped():
    router = setup_router()
    router.on_interest(0, interest("/victim/x", nonce=42), now=0)
    actions = router.on_interest(1, interest("/victim/x", nonce=42), now=10)
    assert actions == [Drop("duplicate-nonce")]


def test_cache_hit_answers_without_pit_entry():
    router = setup_router()
    pkt = make_packet("/victim/x")
    router.cs.insert(pkt, now=0)
    actions = router.on_interest(0, interest("/victim/x"), now=10)
    assert actions == [SendData(0, pkt)]
    assert len(router.pit) == 0


def test_producer_only_bypasses_cache():
    router = setup_router()
    router.cs.insert(make_packet("/victim/x"), now=0)
    actions = router.on_interest(
        0, interest("/victim/x", answer_origin=AnswerOrigin.PRODUCER_ONLY), now=10
    )
    assert [type(a) for a in actions] == [SendInterest]
    assert len(router.pit) == 1


def test_no_route_drop():
    router = setup_router()
    assert router.on_interest(0, interest("/elsewhere/x"), now=0) == [Drop("no-route")]


def test_pit_capacity_drop():
    from ndnshield.router import RouterConfig

    router = make_router(n_ifaces=2, config=RouterConfig(pit_capacity=1))
    router.fib.add(n("/victim"), [1])
    router.on_interest(0, interest("/victim/a"), now=0)
    actions = router.on_interest(0, interest("/victim/b", nonce=2), now=1)
    assert actions == [Drop("pit-full")]


def test_option_fingerprint_separates_entries():
    router = setup_router()
    router.on_interest(0, interest("/victim/x", nonce=1), now=0)
    digest_variant = interest("/victim/x", nonce=2, publisher_key_digest=b"\x01" * 32)
    actions = router.on_interest(0, digest_variant, now=1)
    # Different options: not collapsed, forwarded separately.
    assert any(isinstance(a, SendInterest) for a in actions)
    assert len(router.pit) == 2
    assert option_fingerprint(interest("/a")) != option_fingerprint(
        interest("/a", publisher_key_digest=b"\x01" * 32)
    )


def test_incoming_outgoing_disjoint_at_forward():
    router = setup_router()
    router.fib.add(n("/loop"), [0, 1])
    actions = router.on_interest(0, interest("/loop/x"), now=0)
    (send,) = [a for a in actions if isinstance(a, SendInterest)]
    assert send.iface == 1  # the ingress interface is never chosen upstream
    entry = next(iter(router.pit.entries()))
    assert not set(entry.incoming) & set(entry.outgoing)


# ---------------------------------------------------------------------------
# Data pipeline
# ---------------------------------------------------------------------------


def test_unsolicited_data_dropped_not_cached():
    router = setup_router()
    actions = router.on_data(5, make_packet("/victim/x"), now=0)
    assert actions == [Drop("unsolicited")]
    assert len(router.cs) == 0


def test_collapsed_entry_fanout_and_flush():
    router = setup_router()
    for i in range(3):
        router.on_interest(i, interest("/victim/x", nonce=i), now=0)
    pkt = make_packet("/victim/x")
    actions = router.on_data(5, pkt, now=2 * MS)
    sends = [a for a in actions if isinstance(a, SendData)]
    assert sorted(s.iface for s in sends) == [0, 1, 2]
    assert len(router.pit) == 0
    assert len(router.cs) == 1


def test_data_from_wrong_iface_is_unsolicited():
    router = setup_router()
    router.on_interest(0, interest("/victim/x"), now=0)
    actions = router.on_data(3, make_packet("/victim/x"), now=10)
    assert actions == [Drop("unsolicited")]
    assert len(router.pit) == 1


def test_satisfaction_updates_fib_stats():
    router = setup_router()
    router.on_interest(0, interest("/victim/x"), now=0)
    router.on_data(5, make_packet("/victim/x"), now=3 * MS)
    stats = router.fib.get(n("/victim")).stats[5]
    assert stats.forwarded == 1 and stats.satisfied == 1
    assert stats.srtt_us == pytest.approx(3 * MS)


# ---------------------------------------------------------------------------
# Overhear suppression
# ---------------------------------------------------------------------------


def test_overheard_data_flushes_and_cancels():
    router = setup_router()
    router.on_interest(2, interest("/victim/x"), now=0)  # incoming=2, outgoing=5
    pkt = make_packet("/victim/x")
    actions = router.on_overheard_data(2, pkt, now=MS)
    kinds = [type(a) for a in actions]
    assert CancelSends in kinds
    assert SendData not in kinds  # the overheard segment already has the copy
    assert len(router.pit) == 0
    assert len(router.cs) == 1
    # The copy later arriving on the outgoing interface is now unsolicited.
    assert router.on_data(5, pkt, now=2 * MS) == [Drop("unsolicited")]


def test_overheard_data_without_entry_ignored():
    router = setup_router()
    pkt = make_packet("/victim/x")
    assert router.on_overheard_data(2, pkt, now=0) == []
    assert len(router.cs) == 0


def test_overhear_still_forwards_to_other_waiters():
    router = setup_router()
    router.on_interest(2, interest("/victim/x", nonce=1), now=0)
    router.on_interest(3, interest("/victim/x", nonce=2), now=0)
    actions = router.on_overheard_data(2, make_packet("/victim/x"), now=MS)
    sends = [a for a in actions if isinstance(a, SendData)]
    assert [s.iface for s in sends] == [3]


def test_broadcast_dispatch_addressed_vs_overheard():
    router = setup_router()
    router.on_interest(0, interest("/victim/x"), now=0)  # outgoing = 5
    pkt = make_packet("/victim/x")
    # Data arriving on the outgoing interface is a normal delivery even if
    # that interface is a shared segment.
    actions = router.on_broadcast_data(5, pkt, now=MS)
    assert any(isinstance(a, SendData) for a in actions)


# ---------------------------------------------------------------------------
# Expiry
# ---------------------------------------------------------------------------


def test_expiry_boundary():
    router = setup_router()
    router.on_interest(0, interest("/victim/x"), now=0)
    assert router.expire_pit(now=LIFETIME_US) != []  # expiry <= now
    assert len(router.pit) == 0


def test_satisfied_entry_never_expires():
    router = setup_router()
    router.on_interest(0, interest("/victim/x"), now=0)
    router.on_data(5, make_packet("/victim/x"), now=10)
    assert router.expire_pit(now=LIFETIME_US + 1) == []
    assert router.stats["interests_expired"] == 0


def test_expiry_updates_fib_stats():
    router = setup_router()
    router.on_interest(0, interest("/victim/x"), now=0)
    router.expire_pit(now=LIFETIME_US + 1)
    assert router.fib.get(n("/victim")).stats[5].expired == 1


# ---------------------------------------------------------------------------
# Strategy
# ---------------------------------------------------------------------------


def _entry_with_stats(stats_map) -> FibEntry:
    entry = FibEntry(n("/p"), sorted(stats_map))
    for iface, (fw, sat) in stats_map.items():
        entry.stats[iface] = FibStats(forwarded=fw, satisfied=sat)
    return entry


def test_strategy_fresh_entry_lowest_iface():
    entry = FibEntry(n("/p"), [4, 2, 9])
    assert strategy_choose(entry) == [2]


def test_strategy_prefers_high_ratio():
    entry = _entry_with_stats({0: (10, 9), 1: (10, 2)})
    assert strategy_choose(entry) == [0]


def test_strategy_probes_below_half():
    # A second path is probed only when even the best interface's smoothed
    # ratio sits below 0.5; stats are built just below and just above.
    below = _entry_with_stats({0: (10, 4), 1: (10, 3)})  # best (4+1)/(10+2) = 0.4166
    assert len(strategy_choose(below)) == 2
    above = _entry_with_stats({0: (10, 6), 1: (10, 3)})  # best (6+1)/(10+2) = 0.583
    assert len(strategy_choose(above)) == 1
    exactly = _entry_with_stats({0: (8, 4), 1: (8, 3)})  # best (4+1)/(8+2) = 0.5
    assert len(strategy_choose(exactly)) == 1  # threshold is strict


def test_strategy_rtt_tiebreak():
    entry = _entry_with_stats({0: (10, 5), 1: (10, 5)})
    entry.stats[0].srtt_us = 9000.0
    entry.stats[1].srtt_us = 2000.0
    assert strategy_choose(entry)[0] == 1


# ---------------------------------------------------------------------------
# Content store
# ---------------------------------------------------------------------------


def test_cs_insert_then_exact_lookup():
    from ndnshield.packets import interest_matches

    store = ContentStore(capacity=4)
    pkt = make_packet("/a/b")
    store.insert(pkt, now=0)
    hit = store.lookup(interest("/a/b"), now=1, match=interest_matches)
    assert hit is not None and hit.packet == pkt


def test_cs_lru_fallback_eviction():
    from ndnshield.packets import interest_matches

    store = ContentStore(capacity=2)
    first, second, third = (make_packet(f"/x/{i}") for i in range(3))
    store.insert(first, now=0)
    store.insert(second, now=1)
    store.lookup(interest("/x/0"), now=2, match=interest_matches)  # refresh first
    store.insert(third, now=3)
    assert store.lookup(interest("/x/1"), now=4, match=interest_matches) is None
    assert store.lookup(interest("/x/0"), now=4, match=interest_matches) is not None


def test_cs_trust_biased_eviction():
    store = ContentStore(capacity=2)
    low, high = make_packet("/t/low"), make_packet("/t/high")
    store.insert(low, now=5, trust=0.1)
    store.insert(high, now=0, trust=0.9)  # older but trusted
    store.insert(make_packet("/t/new"), now=10)
    remaining = {e.packet.base_name() for e in store.entries()}
    assert n("/t/high") in remaining and n("/t/low") not in remaining


def test_cs_lookup_lowest_hash_among_matches():
    from ndnshield.packets import compute_content_hash, interest_matches

    store = ContentStore(capacity=8)
    packets = [make_packet("/m/x", payload=bytes([i])) for i in range(4)]
    for pkt in packets:
        store.insert(pkt, now=0)
    hit = store.lookup(interest("/m/x"), now=1, match=interest_matches)
    assert compute_content_hash(hit.packet) == min(
        compute_content_hash(p) for p in packets
    )


def test_cs_verified_flag_monotone():
    store = ContentStore(capacity=2)
    pkt = make_packet("/v/x")
    store.insert(pkt, now=0)
    entry = store.entries()[0]
    entry.verified = True
    entry.trust = 1.0
    store.insert(pkt, now=5)  # duplicate insert refreshes, never resets
    assert store.entries()[0].verified


_CS_NAMES = 10


@functools.cache
def cs_packets() -> tuple:
    return tuple(make_packet(f"/cs/{i}") for i in range(_CS_NAMES))


_PACKET = st.integers(0, _CS_NAMES - 1)
_TRUST = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])
CS_OPS = st.one_of(
    st.tuples(st.just("insert"), _PACKET, _TRUST),
    st.tuples(st.just("lookup"), _PACKET, st.none()),
    st.tuples(st.just("raise"), _PACKET, st.sampled_from([0.05, 0.5, 1.0])),
    st.tuples(st.just("drop"), _PACKET, st.sampled_from([0.0, 0.5, 0.9])),
    st.tuples(st.just("remove"), _PACKET, st.none()),
)


@given(
    st.integers(2, 8),
    st.lists(st.tuples(CS_OPS, st.integers(0, 2)), min_size=1, max_size=80),
)
@settings(max_examples=300, deadline=None)
def test_cs_eviction_matches_min_scan_oracle(capacity, ops):
    """Whatever the history of inserts, hits and trust changes, the victim
    is the least (trust, last_access, content_hash) among cached entries."""
    from ndnshield.packets import compute_content_hash

    packets = cs_packets()
    store = ContentStore(capacity)
    now = 0
    for (op, index, value), tick in ops:
        now += tick
        pkt = packets[index]
        entry = store.get(compute_content_hash(pkt))
        if op == "insert":
            expected = None
            if entry is None and len(store) >= capacity:
                expected = min(store.entries(),
                               key=lambda e: (e.trust, e.last_access, e.content_hash))
            assert store.insert(pkt, now, trust=value) is expected
            assert store.newest is (None if entry is not None
                                    else store.get(compute_content_hash(pkt)))
            assert len(store) <= capacity
        elif op == "lookup":
            hit = store.lookup(interest(f"/cs/{index}"), now, match=lambda d, i: True)
            assert hit is entry
            if hit is not None:
                assert hit.last_access == now
        elif op == "remove":
            assert store.remove(compute_content_hash(pkt)) is entry
        elif entry is not None:
            trust = min(1.0, entry.trust + value) if op == "raise" else entry.trust * value
            store.set_trust(entry, trust)
            assert entry.trust == trust
        assert len(store._heap) <= 2 * len(store)


def test_unbounded_cs_keeps_no_heap():
    store = ContentStore(capacity=0)
    for pkt in cs_packets():
        assert store.insert(pkt, now=0) is None
    store.set_trust(store.entries()[0], 0.0)
    assert len(store) == _CS_NAMES and store._heap == []

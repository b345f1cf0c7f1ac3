"""Forwarding engine: FIB, PIT collapsing, CS policy, strategy, suppression."""

from __future__ import annotations

import functools
import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_key, make_packet, make_router, n
from ndnshield.packets import AnswerOrigin, BloomExclude, ExplicitExclude, Interest, Name
from ndnshield.router import (
    ContentStore,
    Fib,
    FibEntry,
    FibStats,
    Pit,
    PitEntry,
    _option_digest,
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
    assert fib.longest_prefix_match(n("/ndn/cnn/news")).prefix == n("/ndn/cnn")


def test_lpm_no_match():
    fib = Fib()
    fib.add(n("/ndn/cnn"), [0])
    assert fib.longest_prefix_match(n("/bbc")) is None


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
    got = fib.longest_prefix_match(name)
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
    for i in range(5):
        router.on_interest(i, interest("/victim/x", nonce=100 + i), now=i * MS)
    assert [(iface, pkt.nonce) for iface, pkt in router.sent] == [(5, 100)]
    entry = next(iter(router.pit.entries()))
    assert set(entry.incoming) == {0, 1, 2, 3, 4}
    assert router.stats["interests_collapsed"] == 4


def test_duplicate_nonce_dropped():
    router = setup_router()
    router.on_interest(0, interest("/victim/x", nonce=42), now=0)
    router.sent.clear()
    router.on_interest(1, interest("/victim/x", nonce=42), now=10)
    assert router.stats["drop_duplicate_nonce"] == 1
    assert router.sent == []


def test_cache_hit_answers_without_pit_entry():
    router = setup_router()
    pkt = make_packet("/victim/x")
    router.cs.insert(pkt, now=0)
    router.on_interest(0, interest("/victim/x"), now=10)
    assert router.sent == [(0, pkt)]
    assert len(router.pit) == 0


def test_producer_only_bypasses_cache():
    router = setup_router()
    router.cs.insert(make_packet("/victim/x"), now=0)
    wanted = interest("/victim/x", answer_origin=AnswerOrigin.PRODUCER_ONLY)
    router.on_interest(0, wanted, now=10)
    assert router.sent == [(5, wanted)]
    assert len(router.pit) == 1


def test_no_route_drop():
    router = setup_router()
    router.on_interest(0, interest("/elsewhere/x"), now=0)
    assert router.stats["drop_no_route"] == 1
    assert router.sent == []


def test_pit_capacity_drop():
    from ndnshield.router import RouterConfig

    router = make_router(n_ifaces=2, config=RouterConfig(pit_capacity=1))
    router.fib.add(n("/victim"), [1])
    router.on_interest(0, interest("/victim/a"), now=0)
    router.sent.clear()
    router.on_interest(0, interest("/victim/b", nonce=2), now=1)
    assert router.stats["drop_pit_full"] == 1
    assert router.sent == []


def test_option_fingerprint_separates_entries():
    router = setup_router()
    router.on_interest(0, interest("/victim/x", nonce=1), now=0)
    digest_variant = interest("/victim/x", nonce=2, publisher_key_digest=b"\x01" * 32)
    router.sent.clear()
    router.on_interest(0, digest_variant, now=1)
    # Different options: not collapsed, forwarded separately.
    assert router.sent == [(5, digest_variant)]
    assert len(router.pit) == 2
    assert option_fingerprint(interest("/a")) != option_fingerprint(
        interest("/a", publisher_key_digest=b"\x01" * 32)
    )


@pytest.mark.parametrize("origin", list(AnswerOrigin))
def test_plain_option_fingerprint_is_the_digest(origin):
    """An interest with no key digest and no exclude takes a precomputed
    fingerprint; it must be the digest of its option bytes."""
    plain = interest("/a/b", answer_origin=origin)
    assert option_fingerprint(plain) == _option_digest(
        plain.answer_origin, plain.publisher_key_digest, plain.exclude
    )
    assert option_fingerprint(plain) == hashlib.sha256(bytes([origin.value, 0, 0])).digest()


def _option_bytes_digest(interest: Interest) -> bytes:
    """SHA-256 of an interest's option bytes: answer origin, then a tagged
    key digest, then a tagged exclude (sorted length-prefixed components,
    or the Bloom filter's bits)."""
    out = bytes([interest.answer_origin.value])
    key_digest, exclude = interest.publisher_key_digest, interest.exclude
    out += b"\x00" if key_digest is None else b"\x01" + key_digest
    if exclude is None:
        out += b"\x00"
    elif isinstance(exclude, ExplicitExclude):
        out += b"\x01" + b"".join(
            len(comp).to_bytes(4, "big") + comp for comp in sorted(exclude.components)
        )
    else:
        out += b"\x02" + exclude.bits
    return hashlib.sha256(out).digest()


_components = st.lists(st.binary(min_size=1, max_size=8), min_size=0, max_size=4)


@settings(max_examples=200, deadline=None)
@given(
    first=_components,
    second=_components,
    origin=st.sampled_from(list(AnswerOrigin)),
    key_digest=st.one_of(st.none(), st.binary(min_size=32, max_size=32)),
    exclude=st.one_of(
        st.none(),
        st.frozensets(st.binary(min_size=1, max_size=8), max_size=4).map(ExplicitExclude),
        st.binary(min_size=32, max_size=32).map(BloomExclude),
    ),
)
def test_option_fingerprint_is_the_digest_of_the_options(
    first, second, origin, key_digest, exclude
):
    """Every fingerprint is the digest of its interest's option bytes, and
    interests that differ only in name share it."""
    options = dict(publisher_key_digest=key_digest, exclude=exclude, answer_origin=origin)
    a = Interest(Name(tuple(first)), 1, **options)
    b = Interest(Name(tuple(second)), 2, **options)
    assert option_fingerprint(a) == _option_bytes_digest(a)
    assert option_fingerprint(a) == option_fingerprint(b) == option_fingerprint(a)


def test_option_digest_cache_stays_bounded():
    """A flood with a fresh key digest on every interest leaves the
    option-digest cache at its bound."""
    rng = random.Random(5)
    for nonce in range(5000):
        flood = interest("/victim/x", nonce=nonce, publisher_key_digest=rng.randbytes(32))
        assert option_fingerprint(flood) == _option_bytes_digest(flood)
    info = _option_digest.cache_info()
    assert info.maxsize is not None and info.maxsize < 5000
    assert info.currsize <= info.maxsize


def test_incoming_outgoing_disjoint_at_forward():
    router = setup_router()
    router.fib.add(n("/loop"), [0, 1])
    router.on_interest(0, interest("/loop/x"), now=0)
    ((iface, _),) = router.sent
    assert iface == 1  # the ingress interface is never chosen upstream
    entry = next(iter(router.pit.entries()))
    assert not set(entry.incoming) & set(entry.outgoing)


# ---------------------------------------------------------------------------
# Data pipeline
# ---------------------------------------------------------------------------


def test_unsolicited_data_dropped_not_cached():
    router = setup_router()
    router.on_data(5, make_packet("/victim/x"), now=0)
    assert router.stats["drop_unsolicited"] == 1
    assert router.sent == []
    assert len(router.cs) == 0


def test_collapsed_entry_fanout_and_flush():
    router = setup_router()
    for i in range(3):
        router.on_interest(i, interest("/victim/x", nonce=i), now=0)
    pkt = make_packet("/victim/x")
    router.sent.clear()
    router.on_data(5, pkt, now=2 * MS)
    assert router.sent == [(0, pkt), (1, pkt), (2, pkt)]
    assert len(router.pit) == 0
    assert len(router.cs) == 1


@pytest.mark.parametrize("keyed_first", [False, True])
def test_satisfy_sends_in_entry_then_incoming_order(keyed_first):
    """Data satisfying two entries of one name with different options goes
    out in PIT insertion order, each entry's waiters in arrival order, never
    back onto the interface it came in on; it is cached before any send."""
    router = make_router(n_ifaces=6)
    router.fib.add(n("/victim"), [2])
    pkt = make_packet("/victim/x")
    plain = [(3, interest("/victim/x", nonce=1)), (1, interest("/victim/x", nonce=3))]
    keyed = [
        (iface, interest("/victim/x", nonce=nonce, publisher_key_digest=make_key().digest))
        for iface, nonce in ((4, 2), (2, 4), (0, 5))
    ]
    first, second = (keyed, plain) if keyed_first else (plain, keyed)
    for iface, wanted in first[:1] + second[:1] + first[1:] + second[1:]:
        router.on_interest(iface, wanted, now=0)
    assert len(router.pit) == 2 and [i for i, _ in router.sent] == [2, 2]
    router.sent.clear()
    cached_at_send = []
    record = router.emit

    def emit(iface, sent):
        cached_at_send.append(len(router.cs))
        record(iface, sent)

    router.emit = emit
    router.on_data(2, pkt, now=MS)
    expected = [i for i, _ in first] + [i for i, _ in second]
    assert router.sent == [(i, pkt) for i in expected if i != 2]
    assert cached_at_send == [1] * len(router.sent)
    assert len(router.pit) == 0


def test_data_from_wrong_iface_is_unsolicited():
    router = setup_router()
    router.on_interest(0, interest("/victim/x"), now=0)
    router.sent.clear()
    router.on_data(3, make_packet("/victim/x"), now=10)
    assert router.stats["drop_unsolicited"] == 1
    assert router.sent == []
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


def test_overheard_data_flushes_without_sending():
    router = setup_router()
    router.on_interest(2, interest("/victim/x"), now=0)  # incoming=2, outgoing=5
    pkt = make_packet("/victim/x")
    router.sent.clear()
    # The overheard segment already has the copy: nothing goes back onto it.
    router.on_overheard_data(2, pkt, now=MS)
    assert router.sent == []
    assert len(router.pit) == 0
    assert len(router.cs) == 1
    # The copy later arriving on the outgoing interface is now unsolicited.
    router.on_data(5, pkt, now=2 * MS)
    assert router.stats["drop_unsolicited"] == 1
    assert router.sent == []


def test_overheard_data_without_entry_ignored():
    router = setup_router()
    pkt = make_packet("/victim/x")
    router.on_overheard_data(2, pkt, now=0)
    assert router.sent == []
    assert not any(key.startswith(("drop_", "rej_")) for key in router.stats)
    assert len(router.cs) == 0


def test_overhear_still_forwards_to_other_waiters():
    router = setup_router()
    router.on_interest(2, interest("/victim/x", nonce=1), now=0)
    router.on_interest(3, interest("/victim/x", nonce=2), now=0)
    pkt = make_packet("/victim/x")
    router.sent.clear()
    router.on_overheard_data(2, pkt, now=MS)
    assert router.sent == [(3, pkt)]


def test_broadcast_dispatch_addressed_vs_overheard():
    router = setup_router()
    router.on_interest(0, interest("/victim/x"), now=0)  # outgoing = 5
    pkt = make_packet("/victim/x")
    # Data arriving on the outgoing interface is a normal delivery even if
    # that interface is a shared segment.
    router.sent.clear()
    router.on_broadcast_data(5, pkt, now=MS)
    assert router.sent == [(0, pkt)]


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
    stats = router.fib.get(n("/victim")).stats[5]
    assert (stats.forwarded, stats.satisfied) == (1, 0)
    assert stats.smoothed_ratio() < FibStats().smoothed_ratio()


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


# ---------------------------------------------------------------------------
# PIT index: expiry order, attack count, heap bound
# ---------------------------------------------------------------------------

_PIT_NAMES = ("/p", "/p/a", "/p/a/b", "/p/a/b/c", "/p/x", "/q")
_PIT_LIFETIMES_US = (700 * MS, 1500 * MS, 4000 * MS)
PIT_OPS = st.one_of(
    st.tuples(st.just("insert"), st.integers(0, len(_PIT_NAMES) - 1), st.integers(0, 2),
              st.sampled_from(_PIT_LIFETIMES_US), st.booleans()),
    st.tuples(st.just("remove"), st.integers(0, 63), st.booleans(), st.none(), st.none()),
    st.tuples(st.just("mark"), st.integers(0, 63), st.booleans(), st.none(), st.none()),
    st.tuples(st.just("sweep"), st.none(), st.none(), st.none(), st.none()),
    st.tuples(st.just("match"), st.none(), st.none(), st.none(), st.none()),
)


@functools.cache
def pit_data_packet():
    return make_packet("/p/a/b/c/d")


def _pit_entry(name: str, variant: int, now: int, lifetime_us: int, attack: bool):
    return PitEntry(key=(n(name).components, bytes([variant])), interest=interest(name),
                    nonces={1}, incoming={0: now}, outgoing={1: now},
                    expiry=now + lifetime_us, fib_prefix=None, attack=attack)


# Steps as long as a lifetime let one sweep find entries that expire out
# of insertion order.
_PIT_TICKS_US = st.sampled_from((0, 1, 350 * MS, *_PIT_LIFETIMES_US))


@given(st.lists(st.tuples(PIT_OPS, _PIT_TICKS_US), min_size=1, max_size=120))
@settings(max_examples=300, deadline=None)
def test_pit_index_matches_scan_oracle(ops):
    """Whatever the history of inserts, removals, attack marks and sweeps,
    a sweep returns exactly the scan [e for e in entries if e.expiry <= now]
    in insertion order, attack_count() equals a recount, and the expiry
    heap holds at most twice as many records as live entries."""
    pit = Pit()
    live: list = []  # the oracle: live entries in insertion order
    gone: list = []  # removed entries, which must stay inert
    now = 0
    for (op, a, b, lifetime, attack), tick in ops:
        now += tick
        if op == "insert":
            entry = _pit_entry(_PIT_NAMES[a], b, now, lifetime, attack)
            if any(e.key == entry.key for e in live):
                with pytest.raises(KeyError):
                    pit.insert(entry)
            else:
                pit.insert(entry)
                live.append(entry)
        elif op in ("remove", "mark"):
            pool = live if b or not gone else gone
            if pool:
                entry = pool[a % len(pool)]
                if op == "mark":
                    pit.mark_attack(entry)
                    assert entry.attack
                else:
                    pit.remove(entry)
                    if entry in live:
                        live.remove(entry)
                        gone.append(entry)
        elif op == "sweep":
            expected = [e for e in live if e.expiry <= now]
            got = pit.pop_expired(now)
            assert len(got) == len(expected) and all(g is e for g, e in zip(got, expected))
            live = [e for e in live if e.expiry > now]
            gone.extend(expected)
        else:
            comps = pit_data_packet().name.components
            expected = [e for i in range(len(comps) + 1) for e in live
                        if e.name.components == comps[:i]]
            got = pit.match_data(pit_data_packet())
            assert len(got) == len(expected) and all(g is e for g, e in zip(got, expected))
        assert len(pit) == len(live)
        assert all(g is e for g, e in zip(pit.entries(), live))
        assert pit.attack_count() == sum(1 for e in live if e.attack)
        assert len(pit._heap) <= 2 * len(pit)

"""Forwarding engine: FIB, PIT collapsing, CS policy, strategy, suppression."""

from __future__ import annotations

import functools
import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_key, make_packet, make_router, n
from ndnshield.attacks import FLOOD_UNSAT_NONCE, AttackSpec, gen_flood_interest
from ndnshield.packets import BloomExclude, ExplicitExclude, Interest, Name
from ndnshield.router import (
    ContentStore,
    Fib,
    FibEntry,
    FibStats,
    Pit,
    PitEntry,
    strategy_choose,
)
from ndnshield.rand import Rng

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


def test_lpm_name_longer_than_every_prefix():
    """The search starts at the longest installed prefix length, so a name
    longer than every prefix still finds its longest one."""
    fib = Fib()
    fib.add(n("/a"), [0])
    fib.add(n("/a/b"), [1])
    assert fib.longest_prefix_match(n("/a/b/c/d/e/f")).prefix == n("/a/b")
    assert fib.longest_prefix_match(n("/a/x/c/d/e/f")).prefix == n("/a")
    assert fib.longest_prefix_match(n("/z/b/c/d/e/f")) is None


def test_lpm_sees_a_longer_prefix_added_later():
    fib = Fib()
    fib.add(n("/a"), [0])
    name = n("/a/b/c/d")
    assert fib.longest_prefix_match(name).prefix == n("/a")
    fib.add(n("/a/b/c"), [1])
    assert fib.longest_prefix_match(name).prefix == n("/a/b/c")
    fib.add(n("/a/b/c/d"), [2])
    assert fib.longest_prefix_match(name).prefix == name
    fib.add(n("/"), [3])  # a shorter prefix leaves the longest in place
    assert fib.longest_prefix_match(name).prefix == name
    assert fib.longest_prefix_match(n("/q")).prefix == n("/")


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


@given(st.lists(st.tuples(st.integers(0, 4), st.integers(1, 6)), min_size=1, max_size=30))
@settings(max_examples=200, deadline=None)
def test_duplicate_nonces_match_an_oracle_of_every_nonce(arrivals):
    """Interests of one key, on drawn interfaces with drawn nonces, are
    dropped as duplicates and collapsed exactly as an oracle that
    remembers every nonce seen says: before the first collapse, while the
    entry keeps only its representative's nonce, and after it."""
    router = setup_router()
    seen: set[int] = set()
    ifaces: list[int] = []  # of the interests let through, in arrival order
    duplicates = collapsed = 0
    for now, (iface, nonce) in enumerate(arrivals):
        router.on_interest(iface, interest("/victim/x", nonce=nonce), now=now)
        if nonce in seen:
            duplicates += 1
        else:
            collapsed += bool(seen)
            seen.add(nonce)
            if iface not in ifaces:
                ifaces.append(iface)
        assert router.stats["drop_duplicate_nonce"] == duplicates
        assert router.stats["interests_collapsed"] == collapsed
        (entry,) = router.pit.entries()
        assert entry.incoming == ifaces
        assert entry.nonces == (None if len(seen) == 1 else seen)
    assert [iface for iface, _ in router.sent] == [5]


def test_a_face_reached_twice_is_sent_once():
    """Two next hops on one shared segment give a route the same face
    twice. The route keeps it once, so even a failing face, where the
    strategy would probe a second path, gets one copy of the interest,
    counted once, and an overheard copy of the data credits it once."""
    router = setup_router()
    route = router.fib.add(n("/seg"), [5, 5])
    assert route.interfaces == [5]
    route.stats[5].forwarded = 8  # a ratio of 1/10
    router.on_interest(0, interest("/seg/x"), now=0)
    assert [iface for iface, _ in router.sent] == [5]
    assert router.stats["interests_forwarded"] == 1
    (entry,) = router.pit.entries()
    assert entry.outgoing == [5]
    router.on_broadcast_data(0, make_packet("/seg/x"), now=2 * MS)
    assert router.stats["overheard_suppressions"] == 1
    assert (route.stats[5].forwarded, route.stats[5].satisfied) == (9, 1)


def test_fib_keeps_each_face_once_in_first_seen_order():
    assert Fib().add(n("/p"), [3, 1, 3, 2, 1]).interfaces == [3, 1, 2]


def test_pit_entry_memory_is_bounded():
    """A forwarded flood interest costs its router under 800 traced bytes,
    the interest itself, made beforehand, aside: each entry keeps plain
    lists of its faces and no nonce set until a collapse (about 570 B on
    CPython 3.10 to 3.13, against 1,322 B with per-entry dicts and sets)."""
    router = make_router(n_ifaces=2)
    router.fib.add(n("/victim"), [1])
    router.emit = lambda iface, pkt: None
    spec = AttackSpec(FLOOD_UNSAT_NONCE, ("z",), n("/victim"), stop_ms=3000)
    rng = Rng(3, "pit-memory")
    flood = [gen_flood_interest(spec, rng, seq) for seq in range(3000)]
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for now, wanted in enumerate(flood):
            router.on_interest(0, wanted, now=now)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert len(router.pit) == len(flood)
    assert grown / len(flood) < 800, grown / len(flood)


def test_cache_hit_answers_without_pit_entry():
    router = setup_router()
    pkt = make_packet("/victim/x")
    router.cs.insert(pkt, now=0)
    router.on_interest(0, interest("/victim/x"), now=10)
    assert router.sent == [(0, pkt)]
    assert len(router.pit) == 0


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


_PIT_KEY_PARTS = dict(
    comps=st.lists(st.sampled_from([b"a", b"b"]), max_size=2),
    key_digest=st.sampled_from([None, b"\x01" * 32, b"\x02" * 32]),
    # A fresh exclude object per interest, so equal excludes are not the
    # same object; an empty explicit exclude is not the absent one, and a
    # Bloom exclude never equals an explicit one.
    exclude=st.one_of(
        st.none(),
        st.frozensets(st.sampled_from([b"a", b"b"])).map(ExplicitExclude),
        st.sampled_from([bytes(32), b"\xff" * 32]).map(BloomExclude),
    ),
)


@settings(max_examples=300, deadline=None)
@given(first=st.fixed_dictionaries(_PIT_KEY_PARTS), second=st.fixed_dictionaries(_PIT_KEY_PARTS))
def test_interests_collapse_iff_name_and_options_are_equal(first, second):
    """Two interests share a PIT entry if and only if their name components,
    publisher key digest and exclude are all equal."""
    router = make_router(n_ifaces=6)
    router.fib.add(Name(()), [5])
    for iface, parts in enumerate((first, second)):
        wanted = Interest(
            Name(tuple(parts["comps"])), 1 + iface, publisher_key_digest=parts["key_digest"],
            exclude=parts["exclude"],
        )
        router.on_interest(iface, wanted, now=iface)
    same = first == second
    assert len(router.pit) == (1 if same else 2)
    assert router.stats["interests_collapsed"] == same
    assert [iface for iface, _ in router.sent] == [5] * (1 if same else 2)


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
    stats = router.fib.longest_prefix_match(n("/victim")).stats[5]
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
    router.on_broadcast_data(2, pkt, now=MS)
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
    router.on_broadcast_data(2, pkt, now=0)
    assert router.sent == []
    assert not any(count for key, count in router.stats.items() if key.startswith(("drop_", "rej_")))
    assert len(router.cs) == 0


def test_overhear_still_forwards_to_other_waiters():
    router = setup_router()
    router.on_interest(2, interest("/victim/x", nonce=1), now=0)
    router.on_interest(3, interest("/victim/x", nonce=2), now=0)
    pkt = make_packet("/victim/x")
    router.sent.clear()
    router.on_broadcast_data(2, pkt, now=MS)
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
    stats = router.fib.longest_prefix_match(n("/victim")).stats[5]
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


@pytest.mark.parametrize("arrival", [None, 0, 3, 7])
@pytest.mark.parametrize("stats", [None, (10, 9), (10, 1)])
def test_strategy_single_interface_matches_the_ranking(arrival, stats):
    """An entry with one interface gives what the general ranking gives
    for one usable interface: that interface, or nothing when the interest
    arrived on it. A two-interface entry whose other interface is the
    arrival one ranks its single usable interface the same way."""
    entry = FibEntry(n("/p"), [3])
    pair = FibEntry(n("/p"), [3, 8])
    if stats is not None:
        entry.stats[3] = FibStats(forwarded=stats[0], satisfied=stats[1])
        pair.stats[3] = FibStats(forwarded=stats[0], satisfied=stats[1])
    got = strategy_choose(entry, arrival)
    assert got == [i for i in entry.interfaces if i != arrival]
    assert got == ([] if arrival == 3 else [3])
    if arrival != 3:
        assert strategy_choose(pair, 8) == got
    got.append(9)  # the caller owns the list
    assert entry.interfaces == [3]


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


# Names of mixed depth whose components share byte prefixes, one of them
# twice, so that the names under a prefix are not simply its neighbours.
# Each signed packet's full name ends in its digest component.
_CS_NAMES = ("/a", "/a/b", "/a/b", "/a/b/c", "/ab", "/a%00", "/a/bb", "/b", "/cs/0", "/cs/1",
             "/p/q/r", "/p/q/s")
_CS_PREFIXES = _CS_NAMES + ("/", "/a/b/c/d", "/a/c", "/aa", "/a%00%00", "/cs", "/z", "/p/q")


@functools.cache
def cs_packets() -> tuple:
    """The signed packets of `_CS_NAMES`, then packets named as a compromised
    router names them: one named `/p/q`, a proper prefix of two signed names,
    and two that carry the full name of the second packet with other bytes,
    so that three packets share one full name under different hashes."""
    signed = tuple(make_packet(name, payload=bytes([i])) for i, name in enumerate(_CS_NAMES))
    return signed + (
        signed[10].replace(name=n("/p/q"), payload=b"prefix"),
        signed[1].replace(payload=b"copy 1"),
        signed[1].replace(payload=b"copy 2"),
    )


def assert_cs_index(store: ContentStore) -> None:
    """The name tree holds exactly the entries kept by hash, each once; no
    dict in it is empty; every entry lies on its own name's path, and a list
    of names ending at a node is ordered by content hash."""
    found = []

    def walk(node: dict, path: tuple) -> None:
        for comp, child in node.items():
            if comp is None:
                assert child and [e.content_hash for e in child] == sorted(
                    e.content_hash for e in child)
                assert all(e.packet.name.components == path for e in child)
                found.extend(child)
            elif type(child) is dict:
                assert child
                walk(child, path + (comp,))
            else:
                assert child.packet.name.components[:len(path) + 1] == path + (comp,)
                found.append(child)

    walk(store._tree, ())
    assert len({id(e) for e in found}) == len(found) == len(store)
    assert all(store.get(e.content_hash) is e for e in found)


_PACKET = st.integers(0, len(_CS_NAMES) + 2)
_CS_LOOKUP_NAMES = st.one_of(
    st.sampled_from(_CS_PREFIXES).map(n),
    _PACKET.map(lambda i: cs_packets()[i].name),  # digest-terminated
)
_TRUST = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])
CS_OPS = st.one_of(
    st.tuples(st.just("insert"), _PACKET, _TRUST),
    st.tuples(st.just("lookup"), _PACKET,
              st.tuples(_CS_LOOKUP_NAMES, st.frozensets(_PACKET, max_size=4))),
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
    is the least (trust, last_access, content_hash) among cached entries,
    and a lookup under a prefix finds the entry of lowest hash among those
    whose names begin with it and that match (all but the packets each
    lookup draws to refuse do). After every operation the name tree holds
    exactly the cached entries."""
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
            prefix, refused = value
            refused = {packets[i] for i in refused}
            expected = next((e for e in store.entries() if e.packet not in refused
                             and prefix.is_prefix_of(e.packet.name)), None)
            hit = store.lookup(Interest(prefix, 1), now, match=lambda d, i: d not in refused)
            assert hit is expected
            if hit is not None:
                assert hit.last_access == now
        elif op == "remove":
            assert store.remove(compute_content_hash(pkt)) is entry
        elif entry is not None:
            trust = min(1.0, entry.trust + value) if op == "raise" else entry.trust * value
            store.set_trust(entry, trust)
            assert entry.trust == trust
        assert len(store._heap) <= 2 * len(store)
        assert_cs_index(store)


@pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
def test_cs_name_tree_whatever_the_insert_order(order):
    """Inserted in ascending, descending or shuffled hash order, every
    lookup, under each prefix and each full name, finds the entry of lowest
    hash under it, or the next when that one does not match; removing every
    entry leaves the tree empty."""
    from ndnshield.packets import compute_content_hash

    packets = sorted(cs_packets(), key=compute_content_hash, reverse=order == "descending")
    if order == "shuffled":
        random.Random(5).shuffle(packets)
    store = ContentStore(capacity=0)
    for pkt in packets:
        store.insert(pkt, now=0)
        assert_cs_index(store)
    for prefix in [n(text) for text in _CS_PREFIXES] + [pkt.name for pkt in packets]:
        under = [e for e in store.entries() if prefix.is_prefix_of(e.packet.name)]
        for refused in (None, under[0].packet if under else None):
            hit = store.lookup(Interest(prefix, 1), 1, match=lambda d, i: d is not refused)
            assert hit is next((e for e in under if e.packet is not refused), None)
    for pkt in packets:
        store.remove(compute_content_hash(pkt))
        assert_cs_index(store)
    assert store._tree == {}


def test_unbounded_cs_keeps_no_heap():
    store = ContentStore(capacity=0)
    for pkt in cs_packets():
        assert store.insert(pkt, now=0) is None
    store.set_trust(store.entries()[0], 0.0)
    assert len(store) == len(cs_packets()) and store._heap == []


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
    st.tuples(st.just("reinsert"), st.integers(0, 63), st.none(), st.none(), st.none()),
    st.tuples(st.just("sweep"), st.none(), st.none(), st.none(), st.none()),
    st.tuples(st.just("match"), st.none(), st.none(), st.none(), st.none()),
)


@functools.cache
def pit_data_packet():
    return make_packet("/p/a/b/c/d")


def _pit_entry(name: str, variant: int, now: int, lifetime_us: int, attack: bool):
    key_digest = bytes([variant]) * 32 if variant else None
    return PitEntry(key=(n(name).components, key_digest, None), interest=interest(name),
                    nonces=None, incoming=[0], outgoing=[1], sent_at=now,
                    expiry=now + lifetime_us, fib=FibEntry(n("/p"), [1]), attack=attack)


# Steps as long as a lifetime let one sweep find entries that expire out
# of insertion order.
_PIT_TICKS_US = st.sampled_from((0, 1, 350 * MS, *_PIT_LIFETIMES_US))


@given(st.lists(st.tuples(PIT_OPS, _PIT_TICKS_US), min_size=1, max_size=120))
@settings(max_examples=300, deadline=None)
def test_pit_index_matches_scan_oracle(ops):
    """Whatever the history of inserts, removals, attack marks, sweeps and
    removed entries inserted again, a sweep returns exactly the scan
    [e for e in entries if e.expiry <= now] in insertion order,
    attack_count() equals a recount, and the expiry heap holds at most
    twice as many records as live entries."""
    pit = Pit()
    live: list = []  # the oracle: live entries in insertion order
    gone: list = []  # entries that left, inert until inserted again
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
                    if any(e is entry for e in live):
                        live = [e for e in live if e is not entry]
                        gone.append(entry)
        elif op == "reinsert":
            # An entry object that left the PIT, by removal or expiry, enters
            # it again; its old heap record must stay inert.
            if gone:
                entry = gone[a % len(gone)]
                if any(e.key == entry.key for e in live):
                    with pytest.raises(KeyError):
                        pit.insert(entry)
                else:
                    pit.insert(entry)
                    gone = [e for e in gone if e is not entry]
                    live.append(entry)
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
        # The name index holds a dict only for a name two live keys share.
        shared = Counter(e.key[0] for e in live)
        assert {c: type(b) is dict for c, b in pit._by_name.items()} == {
            c: count > 1 for c, count in shared.items()}


def test_pit_duplicate_key_raises_and_changes_nothing():
    pit = Pit()
    first = _pit_entry("/p/a", 0, 0, LIFETIME_US, True)
    pit.insert(first)
    twin = _pit_entry("/p/a", 0, 5, LIFETIME_US, True)
    with pytest.raises(KeyError):
        pit.insert(twin)
    assert pit.get(first.key) is first and len(pit) == 1
    assert pit.attack_count() == 1 and len(pit._heap) == 1
    assert pit.match_data(make_packet("/p/a/x")) == [first]
    assert pit.pop_expired(LIFETIME_US) == [first] and len(pit) == 0

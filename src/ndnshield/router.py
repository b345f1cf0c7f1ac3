"""The forwarding engine: content store, PIT, FIB, strategy, suppression.

A router is a passive state machine: packet handlers return lists of
actions (sends, drops, cancellations) and the owning event loop carries
them out. That keeps every pipeline step unit-testable without a network.
"""

from __future__ import annotations

import hashlib
import heapq
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Optional

from .packets import (
    AnswerOrigin,
    DataPacket,
    ExplicitExclude,
    Interest,
    Name,
    compute_content_hash,
    matches_base,
)

SRTT_GAIN = 0.125
PROBE_RATIO_THRESHOLD = 0.5

# Drop reason codes surfaced in metrics.
DROP_DUPLICATE = "duplicate-nonce"
DROP_NO_ROUTE = "no-route"
DROP_PIT_FULL = "pit-full"
DROP_SCOPE = "scope-limited"
DROP_UNSOLICITED = "unsolicited"
DROP_SCID_S = "scid-s"
DROP_SCID_D = "scid-d"


# ---------------------------------------------------------------------------
# Actions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SendInterest:
    iface: int
    interest: Interest


@dataclass(frozen=True)
class SendData:
    iface: int
    data: DataPacket
    entry_key: Optional[tuple] = None  # lets broadcast sends be cancelled


@dataclass(frozen=True)
class Drop:
    reason: str


@dataclass(frozen=True)
class CancelSends:
    entry_key: tuple


Action = object


# ---------------------------------------------------------------------------
# FIB
# ---------------------------------------------------------------------------


@dataclass
class FibStats:
    forwarded: int = 0
    satisfied: int = 0
    expired: int = 0
    srtt_us: Optional[float] = None

    def smoothed_ratio(self) -> float:
        """Satisfaction ratio with +1/+2 Laplace smoothing."""
        return (self.satisfied + 1) / (self.forwarded + 2)

    def observe_rtt(self, rtt_us: int) -> None:
        if self.srtt_us is None:
            self.srtt_us = float(rtt_us)
        else:
            self.srtt_us += SRTT_GAIN * (rtt_us - self.srtt_us)


@dataclass
class FibEntry:
    prefix: Name
    interfaces: list[int]
    stats: dict[int, FibStats] = field(default_factory=dict)

    def __post_init__(self):
        for iface in self.interfaces:
            self.stats.setdefault(iface, FibStats())


class Fib:
    def __init__(self):
        self._entries: dict[Name, FibEntry] = {}

    def add(self, prefix: Name, interfaces: list[int]) -> FibEntry:
        entry = FibEntry(prefix, list(interfaces))
        self._entries[prefix] = entry
        return entry

    def get(self, prefix: Name) -> Optional[FibEntry]:
        return self._entries.get(prefix)

    def entries(self) -> list[FibEntry]:
        return list(self._entries.values())

    def longest_prefix_match(self, name: Name) -> Optional[FibEntry]:
        best: Optional[FibEntry] = None
        for prefix in name.prefixes():
            entry = self._entries.get(prefix)
            if entry is not None:
                best = entry  # prefixes() yields shortest first
        return best


def longest_prefix_match(fib: Fib, name: Name) -> Optional[FibEntry]:
    return fib.longest_prefix_match(name)


def strategy_choose(entry: FibEntry, exclude: frozenset[int] = frozenset()) -> list[int]:
    """Rank interfaces by smoothed satisfaction ratio; probe a second path
    when even the best choice is failing more often than not."""
    usable = [i for i in entry.interfaces if i not in exclude]
    if not usable:
        return []
    ranked = sorted(
        usable,
        key=lambda i: (
            -entry.stats[i].smoothed_ratio(),
            entry.stats[i].srtt_us if entry.stats[i].srtt_us is not None else float("inf"),
            i,
        ),
    )
    best = ranked[0]
    if entry.stats[best].smoothed_ratio() < PROBE_RATIO_THRESHOLD and len(ranked) > 1:
        return ranked[:2]
    return [best]


# ---------------------------------------------------------------------------
# Content store
# ---------------------------------------------------------------------------


@dataclass
class CsEntry:
    packet: DataPacket
    content_hash: bytes
    trust: float
    verified: bool
    last_access: int
    inserted_at: int


class ContentStore:
    """Bounded cache; eviction prefers low trust, then stale entries.

    The victim is always the entry with the least (trust, last_access,
    content_hash). A bounded store finds it in amortised O(log n) through a
    lazily invalidated heap of (trust, last_access, content_hash, seq, entry)
    records, which holds for every entry a record whose key is no greater
    than the entry's current key:

    * keys that rise (every lookup hit or refresh moves last_access forward,
      verification and positive retrieval raise trust) push nothing; a
      record found on top with an outdated key is pushed again with the
      entry's current key;
    * a trust drop pushes a fresh record, so trust must only be changed
      through `set_trust`;
    * records of removed entries, and records an entry has since replaced,
      are dropped when they reach the top, and the heap is rebuilt from the
      live entries once it holds more than twice as many records.

    An unbounded store (capacity 0) never evicts and keeps no heap.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity  # 0 means unbounded
        self._by_hash: dict[bytes, CsEntry] = {}
        self._by_prefix: dict[tuple[bytes, ...], set[bytes]] = {}
        self._heap: list[tuple] = []
        self._seq = 0
        self._record_seq: dict[bytes, int] = {}  # live hash -> seq of its newest record
        self.newest: Optional[CsEntry] = None  # entry the last insert created

    def __len__(self) -> int:
        return len(self._by_hash)

    def entries(self) -> list[CsEntry]:
        return [self._by_hash[h] for h in sorted(self._by_hash)]

    def get(self, content_hash: bytes) -> Optional[CsEntry]:
        return self._by_hash.get(content_hash)

    def insert(self, packet: DataPacket, now: int, trust: float = 0.5) -> Optional[CsEntry]:
        """Insert a packet; returns the evicted entry, if any. `newest` is
        the created entry, or None when the packet was already cached."""
        h = compute_content_hash(packet)
        existing = self._by_hash.get(h)
        if existing is not None:
            existing.last_access = now
            self.newest = None
            return None
        evicted = None
        if self.capacity and len(self._by_hash) >= self.capacity:
            evicted = self._evict_one()
        entry = CsEntry(packet, h, trust, False, now, now)
        self._by_hash[h] = entry
        comps = packet.name.components
        for i in range(len(comps) + 1):
            self._by_prefix.setdefault(comps[:i], set()).add(h)
        if self.capacity:
            self._push(entry)
        self.newest = entry
        return evicted

    def set_trust(self, entry: CsEntry, trust: float) -> None:
        """Set a cached entry's trust; the only way trust may change."""
        dropped = trust < entry.trust
        entry.trust = trust
        if dropped and self.capacity and self._by_hash.get(entry.content_hash) is entry:
            self._push(entry)

    def _record(self, entry: CsEntry) -> tuple:
        """A heap record of the entry's current key; it replaces the entry's
        earlier records."""
        self._seq += 1
        self._record_seq[entry.content_hash] = self._seq
        return (entry.trust, entry.last_access, entry.content_hash, self._seq, entry)

    def _push(self, entry: CsEntry) -> None:
        heapq.heappush(self._heap, self._record(entry))
        if len(self._heap) > 2 * len(self._by_hash):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap with one current record per live entry."""
        self._heap = [self._record(entry) for entry in self._by_hash.values()]
        heapq.heapify(self._heap)

    def _evict_one(self) -> CsEntry:
        heap = self._heap
        while True:
            trust, last_access, h, seq, entry = heap[0]
            if self._record_seq.get(h) != seq:
                heapq.heappop(heap)  # entry removed, or a newer record exists
            elif trust != entry.trust or last_access != entry.last_access:
                heapq.heapreplace(heap, self._record(entry))
            else:
                heapq.heappop(heap)
                return self.remove(h)

    def remove(self, content_hash: bytes) -> Optional[CsEntry]:
        entry = self._by_hash.pop(content_hash, None)
        if entry is None:
            return None
        self._record_seq.pop(content_hash, None)
        comps = entry.packet.name.components
        for i in range(len(comps) + 1):
            prefix = comps[:i]
            bucket = self._by_prefix.get(prefix)
            if bucket is not None:
                bucket.discard(content_hash)
                if not bucket:
                    del self._by_prefix[prefix]
        if len(self._heap) > 2 * len(self._by_hash):
            self._compact()
        return entry

    def lookup(
        self,
        interest: Interest,
        now: int,
        match: Callable[[DataPacket, Interest], bool],
    ) -> Optional[CsEntry]:
        """Deterministic lookup: lowest content hash among matching entries."""
        candidates = self._by_prefix.get(interest.name.components)
        if not candidates:
            return None
        for h in sorted(candidates):
            entry = self._by_hash[h]
            if match(entry.packet, interest):
                entry.last_access = now
                return entry
        return None


# ---------------------------------------------------------------------------
# PIT
# ---------------------------------------------------------------------------


def option_fingerprint(interest: Interest) -> bytes:
    """Digest of (exclude, publisher key digest, answer origin); interests
    that differ in these may need different answers and must not collapse."""
    out = bytearray()
    out.append(interest.answer_origin.value)
    if interest.publisher_key_digest is not None:
        out += b"\x01" + interest.publisher_key_digest
    else:
        out += b"\x00"
    if interest.exclude is None:
        out += b"\x00"
    elif isinstance(interest.exclude, ExplicitExclude):
        out += b"\x01"
        for comp in sorted(interest.exclude.components):
            out += len(comp).to_bytes(4, "big") + comp
    else:
        out += b"\x02" + interest.exclude.bits
    return hashlib.sha256(bytes(out)).digest()


@dataclass
class PitEntry:
    key: tuple  # (Name, option fingerprint)
    interest: Interest  # representative; collapsed interests share options
    nonces: set[int]
    incoming: dict[int, int]  # iface -> arrival time
    outgoing: dict[int, int]  # iface -> forward time
    expiry: int
    fib_prefix: Optional[Name]
    attack: bool
    created_at: int

    @property
    def name(self) -> Name:
        return self.key[0]


class Pit:
    def __init__(self):
        self._entries: dict[tuple, PitEntry] = {}
        self._by_name: dict[Name, dict[tuple, PitEntry]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: tuple) -> Optional[PitEntry]:
        return self._entries.get(key)

    def entries(self) -> list[PitEntry]:
        return list(self._entries.values())

    def attack_count(self) -> int:
        return sum(1 for e in self._entries.values() if e.attack)

    def count_under(self, prefix: Name) -> int:
        return sum(1 for e in self._entries.values() if prefix.is_prefix_of(e.name))

    def insert(self, entry: PitEntry) -> None:
        self._entries[entry.key] = entry
        self._by_name.setdefault(entry.name, {})[entry.key] = entry

    def remove(self, entry: PitEntry) -> None:
        self._entries.pop(entry.key, None)
        bucket = self._by_name.get(entry.name)
        if bucket is not None:
            bucket.pop(entry.key, None)
            if not bucket:
                del self._by_name[entry.name]

    def match_data(self, data: DataPacket) -> list[PitEntry]:
        """Entries whose interest name is a prefix of the data name."""
        found: list[PitEntry] = []
        for prefix in data.name.prefixes():
            bucket = self._by_name.get(prefix)
            if bucket:
                found.extend(bucket.values())
        return found

    def expired(self, now: int) -> list[PitEntry]:
        return [e for e in self._entries.values() if e.expiry <= now]


# ---------------------------------------------------------------------------
# Router
# ---------------------------------------------------------------------------


@dataclass
class IfaceInfo:
    iface: int
    link_id: int
    bandwidth_bps: float
    delay_us: int
    broadcast: bool
    link_key: bytes
    peers: tuple[str, ...]


@dataclass
class RouterConfig:
    pit_capacity: int = 0  # 0 = unbounded
    cs_capacity: int = 256


class Router:
    """An NDN forwarder. One per node; mutated only by its event loop."""

    def __init__(
        self,
        node_id: str,
        config: RouterConfig | None = None,
        flooding=None,
        poisoning=None,
        rng=None,
    ):
        self.id = node_id
        self.config = config or RouterConfig()
        self.cs = ContentStore(self.config.cs_capacity)
        self.pit = Pit()
        self.fib = Fib()
        self.stats: Counter = Counter()
        self.flooding = flooding
        self.poisoning = poisoning
        self.rng = rng
        self.ifaces: dict[int, IfaceInfo] = {}
        # Injected on attach; defaults let the router run stand-alone in tests.
        self.after: Callable[[int, Callable[[], None]], None] = lambda delay, fn: None
        self.emit: Callable[[int, object], None] = lambda iface, pkt: None
        if self.flooding is not None:
            self.flooding.bind(self)
        if self.poisoning is not None:
            self.poisoning.bind(self)

    # -- wiring -------------------------------------------------------------

    def attach_iface(self, info: IfaceInfo) -> None:
        self.ifaces[info.iface] = info
        if self.flooding is not None:
            self.flooding.on_iface_attached(info)

    def role(self) -> str:
        return "router"

    # -- engine dispatch ------------------------------------------------------

    def on_packet(self, iface: int, pkt, now: int) -> list[Action]:
        if isinstance(pkt, Interest):
            return self.on_interest(iface, pkt, now)
        return self.on_data(iface, pkt, now)

    def on_broadcast_packet(self, iface: int, pkt, now: int) -> list[Action]:
        if isinstance(pkt, Interest):
            return self.on_interest(iface, pkt, now)
        return self.on_broadcast_data(iface, pkt, now)

    # -- matching policy ----------------------------------------------------

    def _match_full(self, data: DataPacket, interest: Interest) -> bool:
        """Matching as enforced by this router's configuration."""
        if not matches_base(data, interest):
            return False
        if self.poisoning is not None:
            return self.poisoning.scid_check(data, interest) is None
        return True

    # -- interest pipeline ----------------------------------------------------

    def on_interest(self, iface: int, interest: Interest, now: int) -> list[Action]:
        self.stats["interests_received"] += 1
        if self._is_control_name(interest.name):
            return self._on_control_interest(iface, interest, now)
        if interest.scope is not None and interest.scope <= 2:
            # Reached us over a link: may be answered locally, never forwarded.
            if interest.answer_origin is AnswerOrigin.ANY:
                hit = self.cs.lookup(interest, now, self._match_full)
                if hit is not None:
                    return self._serve_from_cache(iface, hit)
            self.stats["drop_scope"] += 1
            return [Drop(DROP_SCOPE)]

        key = (interest.name, option_fingerprint(interest))
        entry = self.pit.get(key)
        if entry is not None and entry.expiry <= now:
            self._expire_entry(entry, now)
            entry = None

        if entry is not None and interest.nonce in entry.nonces:
            self.stats["drop_duplicate_nonce"] += 1
            return [Drop(DROP_DUPLICATE)]

        if interest.answer_origin is AnswerOrigin.ANY:
            hit = self.cs.lookup(interest, now, self._match_full)
            if hit is not None:
                return self._serve_from_cache(iface, hit)
        self.stats["cs_misses"] += 1

        if entry is not None:
            # Collapse: remember the interface, nothing new goes upstream.
            entry.incoming.setdefault(iface, now)
            entry.nonces.add(interest.nonce)
            if interest.attack:
                entry.attack = True
            if self.flooding is not None:
                self.flooding.note_collapsed(entry, iface, now)
            self.stats["interests_collapsed"] += 1
            return []

        fib_entry = self.fib.longest_prefix_match(interest.name)
        if fib_entry is None:
            self.stats["drop_no_route"] += 1
            return [Drop(DROP_NO_ROUTE)]

        upstreams = strategy_choose(fib_entry, exclude=frozenset({iface}))
        if not upstreams:
            self.stats["drop_no_route"] += 1
            return [Drop(DROP_NO_ROUTE)]

        if self.flooding is not None:
            upstreams, reason = self.flooding.admit(iface, interest, upstreams, now)
            if reason is not None:
                self.stats[f"rej_{reason}"] += 1
                return [Drop(reason)]

        if self.config.pit_capacity and len(self.pit) >= self.config.pit_capacity:
            self.stats["drop_pit_full"] += 1
            return [Drop(DROP_PIT_FULL)]

        entry = PitEntry(
            key=key,
            interest=interest,
            nonces={interest.nonce},
            incoming={iface: now},
            outgoing={u: now for u in upstreams},
            expiry=now + interest.lifetime_ms * 1000,
            fib_prefix=fib_entry.prefix,
            attack=interest.attack,
            created_at=now,
        )
        self.pit.insert(entry)
        for u in upstreams:
            fib_entry.stats[u].forwarded += 1
        if self.flooding is not None:
            self.flooding.note_forwarded(entry, now)
        self.stats["interests_forwarded"] += len(upstreams)
        if interest.attack:
            self.stats["interests_admitted_attack"] += 1
        return [SendInterest(u, interest) for u in upstreams]

    def _serve_from_cache(self, iface: int, hit: CsEntry) -> list[Action]:
        self.stats["cs_hits"] += 1
        if self.poisoning is not None:
            self.poisoning.on_positive_retrieval(hit)
        if hit.packet.poisoned:
            self.stats["poisoned_forwarded"] += 1
        self.stats["data_forwarded"] += 1
        return [SendData(iface, hit.packet)]

    # -- data pipeline --------------------------------------------------------

    def on_data(self, iface: int, data: DataPacket, now: int) -> list[Action]:
        self.stats["data_received"] += 1
        candidates = [
            e
            for e in self.pit.match_data(data)
            if iface in e.outgoing and e.expiry > now and matches_base(data, e.interest)
        ]
        if not candidates:
            self.stats["drop_unsolicited"] += 1
            return [Drop(DROP_UNSOLICITED)]

        admitted: list[PitEntry] = []
        reject_reason: Optional[str] = None
        for entry in candidates:
            verdict = (
                self.poisoning.scid_check(data, entry.interest)
                if self.poisoning is not None
                else None
            )
            if verdict is None:
                admitted.append(entry)
            else:
                reject_reason = verdict
                # Entry stays pending so an honest copy can still satisfy it,
                # but the upstream that produced the bad copy loses standing.
                fib_entry = self.fib.get(entry.fib_prefix) if entry.fib_prefix else None
                if fib_entry is not None and iface in fib_entry.stats:
                    fib_entry.stats[iface].expired += 1
        if not admitted:
            reason = DROP_SCID_S if reject_reason == "s-scid" else DROP_SCID_D
            self.stats["drop_scid_s" if reason == DROP_SCID_S else "drop_scid_d"] += 1
            return [Drop(reason)]

        self._cache(data, now)
        actions: list[Action] = []
        for entry in admitted:
            actions.extend(self._satisfy(entry, data, iface, now))
        return actions

    def _cache(self, data: DataPacket, now: int) -> None:
        before = len(self.cs)
        self.cs.insert(data, now)
        if len(self.cs) > before:
            if data.poisoned:
                self.stats["poisoned_cached"] += 1
            if self.poisoning is not None:
                self.poisoning.on_inserted(self.cs.newest, now)

    def _satisfy(
        self, entry: PitEntry, data: DataPacket, arrival_iface: Optional[int], now: int
    ) -> list[Action]:
        """Forward data to all waiting interfaces and flush the entry."""
        actions: list[Action] = []
        for in_iface in entry.incoming:
            if in_iface == arrival_iface:
                continue
            actions.append(SendData(in_iface, data, entry_key=entry.key))
            self.stats["data_forwarded"] += 1
            if data.poisoned:
                self.stats["poisoned_forwarded"] += 1
        fib_entry = self.fib.get(entry.fib_prefix) if entry.fib_prefix is not None else None
        if fib_entry is not None:
            if arrival_iface is not None and arrival_iface in entry.outgoing:
                st = fib_entry.stats[arrival_iface]
                st.satisfied += 1
                st.observe_rtt(now - entry.outgoing[arrival_iface])
            else:
                # Satisfied by an overheard copy: credit the path we chose.
                for out_iface in entry.outgoing:
                    if out_iface in fib_entry.stats:
                        fib_entry.stats[out_iface].satisfied += 1
        if self.flooding is not None:
            self.flooding.note_satisfied(entry, now)
        self.pit.remove(entry)
        self.stats["interests_satisfied"] += 1
        return actions

    # -- broadcast ------------------------------------------------------------

    def on_broadcast_data(self, iface: int, data: DataPacket, now: int) -> list[Action]:
        """Dispatch for data heard on a shared segment: it either answers
        an interest we forwarded onto the segment, or we merely overhear it."""
        for entry in self.pit.match_data(data):
            if iface in entry.outgoing and entry.expiry > now:
                return self.on_data(iface, data, now)
        return self.on_overheard_data(iface, data, now)

    def on_overheard_data(self, iface: int, data: DataPacket, now: int) -> list[Action]:
        matched = [
            e
            for e in self.pit.match_data(data)
            if iface in e.incoming
            and e.expiry > now
            and matches_base(data, e.interest)
            and (self.poisoning is None or self.poisoning.scid_check(data, e.interest) is None)
        ]
        if not matched:
            return []
        self.stats["overheard_suppressions"] += len(matched)
        self._cache(data, now)
        actions: list[Action] = []
        for entry in matched:
            actions.append(CancelSends(entry.key))
            actions.extend(self._satisfy(entry, data, iface, now))
        return actions

    # -- expiry ---------------------------------------------------------------

    def expire_pit(self, now: int) -> list[PitEntry]:
        expired = self.pit.expired(now)
        for entry in expired:
            self._expire_entry(entry, now)
        return expired

    def _expire_entry(self, entry: PitEntry, now: int) -> None:
        fib_entry = self.fib.get(entry.fib_prefix) if entry.fib_prefix is not None else None
        if fib_entry is not None:
            for out_iface in entry.outgoing:
                if out_iface in fib_entry.stats:
                    fib_entry.stats[out_iface].expired += 1
        if self.flooding is not None:
            self.flooding.note_expired(entry, now)
        self.pit.remove(entry)
        self.stats["interests_expired"] += 1

    def pit_sweep(self, now: int) -> list[Action]:
        """Periodic maintenance: expiry plus any push-back the defense owes."""
        expired = self.expire_pit(now)
        actions: list[Action] = []
        if self.flooding is not None:
            for iface, interest in self.flooding.on_expiry_feedback(expired, now):
                actions.append(SendInterest(iface, interest))
                self.stats["pushback_sent"] += 1
        return actions

    # -- control namespace ------------------------------------------------------

    def _is_control_name(self, name: Name) -> bool:
        comps = name.components
        return len(comps) >= 2 and comps[0] == b"ndn" and comps[1] in (
            b"warning",
            b"feedback",
            b"pushback",
        )

    def _on_control_interest(self, iface: int, interest: Interest, now: int) -> list[Action]:
        kind = interest.name.components[1]
        actions: list[Action] = []
        if kind == b"pushback" and self.flooding is not None:
            for out_iface, msg in self.flooding.handle_pushback(iface, interest, now):
                actions.append(SendInterest(out_iface, msg))
                self.stats["pushback_sent"] += 1
        elif kind == b"warning" and self.poisoning is not None:
            self.poisoning.handle_warning(iface, interest, now)
        elif kind == b"feedback" and self.poisoning is not None:
            self.poisoning.handle_feedback(iface, interest, now)
        return actions

    # -- gauges -----------------------------------------------------------------

    def gauges(self) -> dict[str, float]:
        return {
            "pit_size": len(self.pit),
            "pit_attack_size": self.pit.attack_count(),
            "cs_size": len(self.cs),
        }

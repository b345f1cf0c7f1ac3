"""The forwarding engine: content store, PIT, FIB, strategy, suppression.

A router sends the moment it decides to, through its `emit(iface, pkt)`
callable, and a drop is a counter increment in `stats` and nothing else.
The network binds `emit` to `Network.send_from`, which only reserves the
link and schedules the delivery, so no handler is re-entered from inside
another; a router built without a network gets an `emit` that discards
the packet, and tests substitute one that records it.
"""

from __future__ import annotations

import functools
import hashlib
import heapq
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Optional

from .packets import (
    FEEDBACK_PREFIX,
    PUSHBACK_PREFIX,
    WARNING_PREFIX,
    AnswerOrigin,
    DataPacket,
    Exclude,
    ExplicitExclude,
    Interest,
    Name,
    compute_content_hash,
    is_control_name,
    matches_base,
)

SRTT_GAIN = 0.125
PROBE_RATIO_THRESHOLD = 0.5


# ---------------------------------------------------------------------------
# FIB
# ---------------------------------------------------------------------------


@dataclass
class FibStats:
    forwarded: int = 0
    satisfied: int = 0
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
        self._entries: dict[tuple[bytes, ...], FibEntry] = {}  # by prefix components

    def add(self, prefix: Name, interfaces: list[int]) -> FibEntry:
        entry = FibEntry(prefix, list(interfaces))
        self._entries[prefix.components] = entry
        return entry

    def get(self, prefix: Name) -> Optional[FibEntry]:
        return self._entries.get(prefix.components)

    def entries(self) -> list[FibEntry]:
        return list(self._entries.values())

    def longest_prefix_match(self, name: Name) -> Optional[FibEntry]:
        comps = name.components
        entries = self._entries
        for i in range(len(comps), -1, -1):
            entry = entries.get(comps[:i])
            if entry is not None:
                return entry
        return None


def strategy_choose(entry: FibEntry, arrival: Optional[int] = None) -> list[int]:
    """Rank interfaces other than the arrival interface by smoothed
    satisfaction ratio; probe a second path when even the best choice is
    failing more often than not."""
    usable = [i for i in entry.interfaces if i != arrival]
    if len(usable) <= 1:
        return usable  # nothing to rank, and no second path to probe
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
    # Whether disjoint verification assigns this entry to this router;
    # worked out by `PoisoningGuard` the first time it considers the entry.
    mine: Optional[bool] = None


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
        entry = CsEntry(packet, h, trust, False, now)
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
    that differ in these may need different answers and must not collapse.
    Interests are immutable, so the digest is kept on the interest; equal
    options share one digest through `_option_digest`'s cache. An interest
    with neither a key digest nor an exclude takes one of two constants."""
    if interest.publisher_key_digest is None and interest.exclude is None:
        if interest.answer_origin is AnswerOrigin.ANY:
            return _PLAIN_ANY_FINGERPRINT
        return _PLAIN_PRODUCER_FINGERPRINT
    digest = interest.__dict__.get("_option_fingerprint")
    if digest is None:
        digest = _option_digest(
            interest.answer_origin, interest.publisher_key_digest, interest.exclude
        )
        object.__setattr__(interest, "_option_fingerprint", digest)
    return digest


# Bounded: a flood may send a fresh key digest with every interest.
@functools.lru_cache(maxsize=1024)
def _option_digest(
    answer_origin: AnswerOrigin, publisher_key_digest: Optional[bytes], exclude: Optional[Exclude]
) -> bytes:
    out = bytearray()
    out.append(answer_origin.value)
    if publisher_key_digest is not None:
        out += b"\x01" + publisher_key_digest
    else:
        out += b"\x00"
    if exclude is None:
        out += b"\x00"
    elif isinstance(exclude, ExplicitExclude):
        out += b"\x01"
        for comp in sorted(exclude.components):
            out += len(comp).to_bytes(4, "big") + comp
    else:
        out += b"\x02" + exclude.bits
    return hashlib.sha256(bytes(out)).digest()


_PLAIN_ANY_FINGERPRINT = _option_digest(AnswerOrigin.ANY, None, None)
_PLAIN_PRODUCER_FINGERPRINT = _option_digest(AnswerOrigin.PRODUCER_ONLY, None, None)


@dataclass(slots=True)
class PitEntry:
    key: tuple  # (name components, option fingerprint)
    interest: Interest  # representative; collapsed interests share options
    nonces: set[int]
    incoming: dict[int, int]  # iface -> arrival time
    outgoing: dict[int, int]  # iface -> forward time
    expiry: int
    fib_prefix: Optional[Name]
    attack: bool  # change only through Pit.mark_attack once inserted
    # Components of the longest watched prefix, set by the flooding defense.
    namespace: Optional[tuple[bytes, ...]] = None

    @property
    def name(self) -> Name:
        return self.interest.name


class Pit:
    """Pending interests by key, with an index by name components, a count
    of attack entries, and expiry through a lazily invalidated heap of
    (expiry, insertion seq, entry) records:

    * every live entry has exactly one record, pushed on insert (an entry's
      expiry never changes);
    * records of removed entries are dropped when they reach the top, and
      the heap is rebuilt from the live entries once it holds more than
      twice as many records;
    * `pop_expired` returns what it takes out in insertion order, the order
      of a scan over the entries.
    """

    def __init__(self):
        self._entries: dict[tuple, PitEntry] = {}
        self._by_name: dict[tuple[bytes, ...], dict[tuple, PitEntry]] = {}
        self._attack = 0
        self._heap: list[tuple[int, int, PitEntry]] = []
        self._seq = 0
        # id(entry) -> seq of the record of every live entry. Records and
        # the PIT hold their entries, so no other object can take an id
        # while it is in use here.
        self._live_seq: dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: tuple) -> Optional[PitEntry]:
        return self._entries.get(key)

    def entries(self) -> list[PitEntry]:
        return list(self._entries.values())

    def attack_count(self) -> int:
        return self._attack

    def mark_attack(self, entry: PitEntry) -> None:
        """Flag a pending entry as (also) carrying attack traffic."""
        if not entry.attack:
            entry.attack = True
            if id(entry) in self._live_seq:
                self._attack += 1

    def insert(self, entry: PitEntry) -> None:
        if entry.key in self._entries:
            raise KeyError(f"PIT already holds an entry for {entry.key!r}")
        self._entries[entry.key] = entry
        self._by_name.setdefault(entry.key[0], {})[entry.key] = entry
        if entry.attack:
            self._attack += 1
        self._seq += 1
        self._live_seq[id(entry)] = self._seq
        heapq.heappush(self._heap, (entry.expiry, self._seq, entry))
        self._bound_heap()

    def remove(self, entry: PitEntry) -> None:
        if id(entry) not in self._live_seq:
            return
        self._unlink(entry)
        self._bound_heap()

    def _unlink(self, entry: PitEntry) -> None:
        del self._entries[entry.key]
        del self._live_seq[id(entry)]
        if entry.attack:
            self._attack -= 1
        comps = entry.key[0]
        bucket = self._by_name[comps]
        del bucket[entry.key]
        if not bucket:
            del self._by_name[comps]

    def _bound_heap(self) -> None:
        if len(self._heap) > 2 * len(self._entries):
            self._heap = [
                (e.expiry, self._live_seq[id(e)], e) for e in self._entries.values()
            ]
            heapq.heapify(self._heap)

    def match_data(self, data: DataPacket) -> list[PitEntry]:
        """Entries whose interest name is a prefix of the data name."""
        found: list[PitEntry] = []
        comps = data.name.components
        by_name = self._by_name
        for i in range(len(comps) + 1):
            bucket = by_name.get(comps[:i])
            if bucket:
                found.extend(bucket.values())
        return found

    def pop_expired(self, now: int) -> list[PitEntry]:
        """Remove and return every entry whose expiry is <= now, in
        insertion order."""
        heap = self._heap
        expired: list[tuple[int, PitEntry]] = []
        while heap and heap[0][0] <= now:
            _, seq, entry = heapq.heappop(heap)
            if self._live_seq.get(id(entry)) == seq:
                expired.append((seq, entry))
        if not expired:
            return []
        expired.sort()  # by seq, which is unique
        for _, entry in expired:
            self._unlink(entry)
        self._bound_heap()
        return [entry for _, entry in expired]


# ---------------------------------------------------------------------------
# Router
# ---------------------------------------------------------------------------


@dataclass
class IfaceInfo:
    iface: int
    bandwidth_bps: float
    link_key: bytes


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
    ):
        self.id = node_id
        self.config = config or RouterConfig()
        self.cs = ContentStore(self.config.cs_capacity)
        self.pit = Pit()
        self.fib = Fib()
        self.stats: Counter = Counter()
        self.flooding = flooding
        self.poisoning = poisoning
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

    def on_packet(self, iface: int, pkt, now: int) -> None:
        if isinstance(pkt, Interest):
            self.on_interest(iface, pkt, now)
        else:
            self.on_data(iface, pkt, now)

    def on_broadcast_packet(self, iface: int, pkt, now: int) -> None:
        if isinstance(pkt, Interest):
            self.on_interest(iface, pkt, now)
        else:
            self.on_broadcast_data(iface, pkt, now)

    # -- matching policy ----------------------------------------------------

    def _match_full(self, data: DataPacket, interest: Interest) -> bool:
        """Matching as enforced by this router's configuration."""
        if not matches_base(data, interest):
            return False
        if self.poisoning is not None:
            return self.poisoning.scid_check(data, interest) is None
        return True

    # -- interest pipeline ----------------------------------------------------

    def on_interest(self, iface: int, interest: Interest, now: int) -> None:
        self.stats["interests_received"] += 1
        if is_control_name(interest.name):
            self._on_control_interest(iface, interest, now)
            return
        if interest.scope is not None and interest.scope <= 2:
            # Reached us over a link: may be answered locally, never forwarded.
            if interest.answer_origin is AnswerOrigin.ANY:
                hit = self.cs.lookup(interest, now, self._match_full)
                if hit is not None:
                    self._serve_from_cache(iface, hit)
                    return
            self.stats["drop_scope"] += 1
            return

        key = (interest.name.components, option_fingerprint(interest))
        entry = self.pit.get(key)
        if entry is not None and entry.expiry <= now:
            self.pit.remove(entry)
            self._expire_entry(entry, now)
            entry = None

        if entry is not None and interest.nonce in entry.nonces:
            self.stats["drop_duplicate_nonce"] += 1
            return

        if interest.answer_origin is AnswerOrigin.ANY:
            hit = self.cs.lookup(interest, now, self._match_full)
            if hit is not None:
                self._serve_from_cache(iface, hit)
                return
        self.stats["cs_misses"] += 1

        if entry is not None:
            # Collapse: remember the interface, nothing new goes upstream.
            # An interface counts as pending once per entry, as resolving
            # the entry releases it once.
            if iface not in entry.incoming:
                entry.incoming[iface] = now
                if self.flooding is not None:
                    self.flooding.note_collapsed(entry, iface, now)
            entry.nonces.add(interest.nonce)
            if interest.attack:
                self.pit.mark_attack(entry)
            self.stats["interests_collapsed"] += 1
            return

        fib_entry = self.fib.longest_prefix_match(interest.name)
        if fib_entry is None:
            self.stats["drop_no_route"] += 1
            return

        upstreams = strategy_choose(fib_entry, iface)
        if not upstreams:
            self.stats["drop_no_route"] += 1
            return

        if self.flooding is not None:
            upstreams, reason = self.flooding.admit(iface, interest, upstreams, now)
            if reason is not None:
                self.stats[f"rej_{reason}"] += 1
                return

        if self.config.pit_capacity and len(self.pit) >= self.config.pit_capacity:
            self.stats["drop_pit_full"] += 1
            return

        entry = PitEntry(
            key=key,
            interest=interest,
            nonces={interest.nonce},
            incoming={iface: now},
            outgoing={u: now for u in upstreams},
            expiry=now + interest.lifetime_ms * 1000,
            fib_prefix=fib_entry.prefix,
            attack=interest.attack,
        )
        self.pit.insert(entry)
        for u in upstreams:
            fib_entry.stats[u].forwarded += 1
        if self.flooding is not None:
            self.flooding.note_forwarded(entry, now)
        self.stats["interests_forwarded"] += len(upstreams)
        if interest.attack:
            self.stats["interests_admitted_attack"] += 1
        for u in upstreams:
            self.emit(u, interest)

    def _serve_from_cache(self, iface: int, hit: CsEntry) -> None:
        self.stats["cs_hits"] += 1
        if self.poisoning is not None:
            self.poisoning.on_positive_retrieval(hit)
        if hit.packet.poisoned:
            self.stats["poisoned_forwarded"] += 1
        self.stats["data_forwarded"] += 1
        self.emit(iface, hit.packet)

    # -- data pipeline --------------------------------------------------------

    def on_data(self, iface: int, data: DataPacket, now: int) -> None:
        self.stats["data_received"] += 1
        candidates = [
            e
            for e in self.pit.match_data(data)
            if iface in e.outgoing and e.expiry > now and matches_base(data, e.interest)
        ]
        if not candidates:
            self.stats["drop_unsolicited"] += 1
            return

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
                # Entry stays pending so an honest copy can still satisfy it;
                # the upstream that sent the bad copy gets no satisfaction credit.
                reject_reason = verdict
        if not admitted:
            self.stats["drop_scid_s" if reject_reason == "s-scid" else "drop_scid_d"] += 1
            return

        self._cache(data, now)
        for entry in admitted:
            self._satisfy(entry, data, iface, now)

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
    ) -> None:
        """Forward data to all waiting interfaces and flush the entry."""
        for in_iface in entry.incoming:
            if in_iface == arrival_iface:
                continue
            self.emit(in_iface, data)
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

    # -- broadcast ------------------------------------------------------------

    def on_broadcast_data(self, iface: int, data: DataPacket, now: int) -> None:
        """Dispatch for data heard on a shared segment: it either answers
        an interest we forwarded onto the segment, or we merely overhear it."""
        for entry in self.pit.match_data(data):
            if iface in entry.outgoing and entry.expiry > now:
                self.on_data(iface, data, now)
                return
        self.on_overheard_data(iface, data, now)

    def on_overheard_data(self, iface: int, data: DataPacket, now: int) -> None:
        matched = [
            e
            for e in self.pit.match_data(data)
            if iface in e.incoming and e.expiry > now and self._match_full(data, e.interest)
        ]
        if not matched:
            return
        self.stats["overheard_suppressions"] += len(matched)
        self._cache(data, now)
        for entry in matched:
            self._satisfy(entry, data, iface, now)

    # -- expiry ---------------------------------------------------------------

    def expire_pit(self, now: int) -> list[PitEntry]:
        expired = self.pit.pop_expired(now)
        for entry in expired:
            self._expire_entry(entry, now)
        return expired

    def _expire_entry(self, entry: PitEntry, now: int) -> None:
        """Bookkeeping for an entry that expired and has left the PIT."""
        if self.flooding is not None:
            self.flooding.note_expired(entry, now)
        self.stats["interests_expired"] += 1

    def pit_sweep(self, now: int) -> None:
        """Periodic maintenance: expiry plus any push-back the defense owes."""
        expired = self.expire_pit(now)
        if self.flooding is not None:
            for iface, interest in self.flooding.on_expiry_feedback(expired, now):
                self.emit(iface, interest)
                self.stats["pushback_sent"] += 1

    # -- control namespace ------------------------------------------------------

    def _on_control_interest(self, iface: int, interest: Interest, now: int) -> None:
        name = interest.name
        if PUSHBACK_PREFIX.is_prefix_of(name) and self.flooding is not None:
            for out_iface, msg in self.flooding.handle_pushback(iface, interest, now):
                self.emit(out_iface, msg)
                self.stats["pushback_sent"] += 1
        elif WARNING_PREFIX.is_prefix_of(name) and self.poisoning is not None:
            self.poisoning.handle_warning(iface, interest, now)
        elif FEEDBACK_PREFIX.is_prefix_of(name) and self.poisoning is not None:
            self.poisoning.handle_feedback(iface, interest, now)

    # -- gauges -----------------------------------------------------------------

    def gauges(self) -> dict[str, float]:
        return {
            "pit_size": len(self.pit),
            "pit_attack_size": self.pit.attack_count(),
            "cs_size": len(self.cs),
        }

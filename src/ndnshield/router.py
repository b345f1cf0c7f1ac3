"""The forwarding engine: content store, PIT, FIB, strategy, suppression.

A router is a `NodeBase`: the network delivers interests to `on_interest`
and data to `on_data` (or `on_broadcast_data` on a shared segment). It
sends the moment it decides to, through the `emit(iface, pkt)` that
`Network.add_node` binds, and a drop is a counter increment in `stats`
and nothing else. `emit` only reserves the link and schedules the
delivery, so no handler is re-entered from inside another; a router
built without a network discards what it sends, and tests substitute an
`emit` that records it.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, insort
from operator import attrgetter
from typing import Annotated, Callable, Optional

from .packets import (
    FEEDBACK_PREFIX,
    MS,
    PUSHBACK_PREFIX,
    WARNING_PREFIX,
    DataPacket,
    Interest,
    Name,
    compute_content_hash,
    is_control_name,
    matches_base,
)
from .schema import Factory, NonNegative, Record
from .simnet import IfaceInfo, NodeBase

SRTT_GAIN = 0.125
PROBE_RATIO_THRESHOLD = 0.5


# ---------------------------------------------------------------------------
# FIB
# ---------------------------------------------------------------------------


class FibStats(Record):
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


class FibEntry(Record):
    prefix: Name
    interfaces: list[int]
    stats: dict[int, FibStats] = Factory(dict)

    def __post_init__(self):
        for iface in self.interfaces:
            self.stats.setdefault(iface, FibStats())


class Fib:
    def __init__(self):
        self._entries: dict[tuple[bytes, ...], FibEntry] = {}  # by prefix components
        self._longest = 0  # component count of the longest installed prefix

    def add(self, prefix: Name, interfaces: list[int]) -> FibEntry:
        entry = FibEntry(prefix, list(interfaces))
        self._entries[prefix.components] = entry
        self._longest = max(self._longest, len(prefix.components))
        return entry

    def entries(self) -> list[FibEntry]:
        return list(self._entries.values())

    def longest_prefix_match(self, name: Name) -> Optional[FibEntry]:
        """The entry of the longest installed prefix of `name`; the search
        starts at the longest prefix length installed, as no entry is
        longer."""
        comps = name.components
        entries = self._entries
        start = len(comps)
        if start > self._longest:
            start = self._longest
        for i in range(start, -1, -1):
            entry = entries.get(comps[:i])
            if entry is not None:
                return entry
        return None


def strategy_choose(entry: FibEntry, arrival: Optional[int] = None) -> list[int]:
    """Rank interfaces other than the arrival interface by smoothed
    satisfaction ratio; probe a second path when even the best choice is
    failing more often than not."""
    interfaces = entry.interfaces
    if len(interfaces) == 1:
        return [] if interfaces[0] == arrival else [interfaces[0]]
    usable = [i for i in interfaces if i != arrival]
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


class CsEntry(Record):
    __slots__ = ("packet", "content_hash", "trust", "verified", "last_access", "mine", "seq")
    packet: DataPacket
    content_hash: bytes
    trust: float
    verified: bool
    last_access: int
    # Whether disjoint verification assigns this entry to this router;
    # worked out by `PoisoningGuard` the first time it considers the entry.
    mine: Optional[bool]
    seq: int  # of the entry's newest heap record

    def __init__(self, packet, content_hash, trust, verified, last_access, mine=None, seq=0):
        self.packet, self.content_hash, self.trust = packet, content_hash, trust
        self.verified, self.last_access, self.mine, self.seq = verified, last_access, mine, seq


_HASH = attrgetter("content_hash")


class ContentStore:
    """Bounded cache; eviction prefers low trust, then stale entries.

    Entries are kept by content hash and indexed once by name, in a name
    tree of nested dicts keyed by name component. A component whose subtree
    holds one entry maps to that entry itself, and the rest of its name is
    read from the packet; an entry whose name ends at an inner node is kept
    under the key None, in a list ordered by content hash (two packets may
    carry one full name). A lookup walks the interest's components once and
    misses at the first absent one.

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
    * each entry keeps the seq of its newest record; a record with another
      seq, or whose entry has left the store, is dropped when it reaches
      the top, and the heap is rebuilt from the live entries once it holds
      more than twice as many records.

    An unbounded store (capacity 0) never evicts and keeps no heap.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity  # 0 means unbounded
        self._by_hash: dict[bytes, CsEntry] = {}
        self._tree: dict = {}  # component -> subtree dict or sole CsEntry
        self._heap: list[tuple] = []
        self._seq = 0
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
        self._link(entry)
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
        self._seq = entry.seq = self._seq + 1
        return (entry.trust, entry.last_access, entry.content_hash, entry.seq, entry)

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
            if entry.seq != seq or self._by_hash.get(h) is not entry:
                heapq.heappop(heap)  # a newer record exists, or entry removed
            elif trust != entry.trust or last_access != entry.last_access:
                heapq.heapreplace(heap, self._record(entry))
            else:
                heapq.heappop(heap)
                return self.remove(h)

    def _link(self, entry: CsEntry) -> None:
        """Put the entry in the name tree. A sole entry met on the way moves
        one level down, into a new dict, until the two names part."""
        comps = entry.packet.name.components
        node = self._tree
        for i, comp in enumerate(comps):
            child = node.get(comp)
            if child is None:
                node[comp] = entry
                return
            if type(child) is not dict:
                rest = child.packet.name.components[i + 1:i + 2]
                child = node[comp] = {rest[0]: child} if rest else {None: [child]}
            node = child
        ends = node.get(None)
        if ends is None:
            node[None] = [entry]
        else:
            insort(ends, entry, key=_HASH)

    def _unlink(self, entry: CsEntry) -> None:
        """Take the entry out of the name tree, and every dict it leaves empty."""
        node = self._tree
        path = []
        for comp in entry.packet.name.components:
            child = node[comp]
            if child is entry:
                del node[comp]
                break
            path.append((node, comp))
            node = child
        else:
            ends = node[None]
            del ends[bisect_left(ends, entry.content_hash, key=_HASH)]
            if not ends:
                del node[None]
        while not node and path:
            node, comp = path.pop()
            del node[comp]

    def remove(self, content_hash: bytes) -> Optional[CsEntry]:
        entry = self._by_hash.pop(content_hash, None)
        if entry is None:
            return None
        self._unlink(entry)
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
        comps = interest.name.components
        node = self._tree
        for comp in comps:
            node = node.get(comp)
            if node is None:
                return None
            if type(node) is not dict:
                # The sole entry under this prefix: a candidate only if its
                # name goes on with the rest of the interest's.
                if node.packet.name.components[:len(comps)] != comps:
                    return None
                candidates = [node]
                break
        else:
            candidates = _entries_under(node)
            if len(candidates) > 1:
                candidates.sort(key=_HASH)
        for entry in candidates:
            if match(entry.packet, interest):
                entry.last_access = now
                return entry
        return None


def _entries_under(node: dict) -> list[CsEntry]:
    """Every entry in a name-tree subtree, in no particular order."""
    found = []
    for comp, child in node.items():
        if comp is None:
            found += child
        elif type(child) is dict:
            found += _entries_under(child)
        else:
            found.append(child)
    return found


# ---------------------------------------------------------------------------
# PIT
# ---------------------------------------------------------------------------


class PitEntry(Record):
    __slots__ = ("key", "interest", "nonces", "incoming", "outgoing", "expiry", "fib", "attack",
                 "namespace", "seq")
    # (name components, publisher key digest, exclude): interests that
    # differ in any of these may need different answers.
    key: tuple
    interest: Interest  # representative; collapsed interests share the key
    nonces: set[int]
    incoming: dict[int, int]  # iface -> arrival time
    outgoing: dict[int, int]  # iface -> forward time
    expiry: int
    fib: FibEntry  # the entry the interest was forwarded by
    attack: bool  # change only through Pit.mark_attack once inserted
    # Components of the longest watched prefix, set by the flooding defense.
    namespace: Optional[tuple[bytes, ...]]
    seq: int  # of the entry's heap record, set by Pit.insert

    def __init__(self, key, interest, nonces, incoming, outgoing, expiry, fib, attack,
                 namespace=None, seq=0):
        self.key = key
        self.interest = interest
        self.nonces = nonces
        self.incoming = incoming
        self.outgoing = outgoing
        self.expiry = expiry
        self.fib = fib
        self.attack = attack
        self.namespace = namespace
        self.seq = seq

    @property
    def name(self) -> Name:
        return self.interest.name


class Pit:
    """Pending interests by key, with an index by name components, a count
    of attack entries, and expiry through a lazily invalidated heap of
    (expiry, insertion seq, entry) records:

    * every live entry has exactly one record, pushed on insert (an entry's
      expiry never changes), and keeps that record's seq;
    * a record whose entry the PIT no longer holds under its key, or which
      an entry inserted again has replaced, is dropped when it reaches the
      top, and the heap is rebuilt from the live entries once it holds more
      than twice as many records;
    * `pop_expired` returns what it takes out in insertion order, the order
      of a scan over the entries.
    """

    def __init__(self):
        self._entries: dict[tuple, PitEntry] = {}
        self._by_name: dict[tuple[bytes, ...], dict[tuple, PitEntry]] = {}
        self._attack = 0
        self._heap: list[tuple[int, int, PitEntry]] = []
        self._seq = 0

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
            if self._entries.get(entry.key) is entry:
                self._attack += 1

    def insert(self, entry: PitEntry) -> None:
        key = entry.key
        entries = self._entries
        if entries.setdefault(key, entry) is not entry:
            raise KeyError(f"PIT already holds an entry for {key!r}")
        self._by_name.setdefault(key[0], {})[key] = entry
        if entry.attack:
            self._attack += 1
        self._seq = entry.seq = self._seq + 1
        heap = self._heap
        heapq.heappush(heap, (entry.expiry, entry.seq, entry))
        if len(heap) > 2 * len(entries):
            self._bound_heap()

    def remove(self, entry: PitEntry) -> None:
        if self._entries.get(entry.key) is not entry:
            return
        self._unlink(entry)
        self._bound_heap()

    def _unlink(self, entry: PitEntry) -> None:
        del self._entries[entry.key]
        if entry.attack:
            self._attack -= 1
        comps = entry.key[0]
        bucket = self._by_name[comps]
        del bucket[entry.key]
        if not bucket:
            del self._by_name[comps]

    def _bound_heap(self) -> None:
        if len(self._heap) > 2 * len(self._entries):
            self._heap = [(e.expiry, e.seq, e) for e in self._entries.values()]
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
            if entry.seq == seq and self._entries.get(entry.key) is entry:
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


class RouterConfig(Record):
    pit_capacity: Annotated[int, NonNegative] = 0  # 0 = unbounded
    cs_capacity: Annotated[int, NonNegative] = 256


class Router(NodeBase):
    """An NDN forwarder. One per node; mutated only by its event loop."""

    def __init__(
        self,
        node_id: str,
        config: RouterConfig | None = None,
        flooding=None,
        poisoning=None,
    ):
        super().__init__(node_id)
        self.config = config or RouterConfig()
        self.cs = ContentStore(self.config.cs_capacity)
        self.pit = Pit()
        self.fib = Fib()
        self.flooding = flooding
        self.poisoning = poisoning
        if self.flooding is not None:
            self.flooding.bind(self)
        if self.poisoning is not None:
            self.poisoning.bind(self)

    # -- wiring -------------------------------------------------------------

    def attach_iface(self, info: IfaceInfo) -> None:
        super().attach_iface(info)
        if self.flooding is not None:
            self.flooding.on_iface_attached(info)

    def detach(self) -> None:
        super().detach()
        for defense in (self.flooding, self.poisoning):
            if defense is not None:
                defense.router = None

    def role(self) -> str:
        return "router"

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
        stats = self.stats
        stats["interests_received"] += 1
        if is_control_name(interest.name):
            self._on_control_interest(iface, interest, now)
            return

        pit = self.pit
        key = (interest.name.components, interest.publisher_key_digest, interest.exclude)
        entry = pit.get(key)
        if entry is not None:
            if entry.expiry <= now:
                pit.remove(entry)
                self._expire_entry(entry, now)
                entry = None
            elif interest.nonce in entry.nonces:
                stats["drop_duplicate_nonce"] += 1
                return

        hit = self.cs.lookup(interest, now, self._match_full)
        if hit is not None:
            self._serve_from_cache(iface, hit)
            return
        stats["cs_misses"] += 1

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
                pit.mark_attack(entry)
            stats["interests_collapsed"] += 1
            return

        fib_entry = self.fib.longest_prefix_match(interest.name)
        if fib_entry is None:
            stats["drop_no_route"] += 1
            return

        upstreams = strategy_choose(fib_entry, iface)
        if not upstreams:
            stats["drop_no_route"] += 1
            return

        flooding = self.flooding
        if flooding is not None:
            upstreams, reason = flooding.admit(iface, interest, upstreams, now)
            if reason is not None:
                stats[reason] += 1
                return

        capacity = self.config.pit_capacity
        if capacity and len(pit) >= capacity:
            stats["drop_pit_full"] += 1
            return

        attack = interest.attack
        entry = PitEntry(
            key,
            interest,
            {interest.nonce},
            {iface: now},
            dict.fromkeys(upstreams, now),
            now + interest.lifetime_ms * MS,
            fib_entry,
            attack,
        )
        pit.insert(entry)
        fib_stats = fib_entry.stats
        for u in upstreams:
            fib_stats[u].forwarded += 1
        if flooding is not None:
            flooding.note_forwarded(entry, now)
        stats["interests_forwarded"] += len(upstreams)
        if attack:
            stats["interests_admitted_attack"] += 1
        emit = self.emit
        for u in upstreams:
            emit(u, interest)

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
            self.stats[reject_reason] += 1
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

    def _satisfy(self, entry: PitEntry, data: DataPacket, arrival_iface: int, now: int) -> None:
        """Forward data to all waiting interfaces and flush the entry."""
        for in_iface in entry.incoming:
            if in_iface == arrival_iface:
                continue
            self.emit(in_iface, data)
            self.stats["data_forwarded"] += 1
            if data.poisoned:
                self.stats["poisoned_forwarded"] += 1
        fib_stats = entry.fib.stats  # the interest's upstreams are all in it
        if arrival_iface in entry.outgoing:
            st = fib_stats[arrival_iface]
            st.satisfied += 1
            st.observe_rtt(now - entry.outgoing[arrival_iface])
        else:
            # Satisfied by an overheard copy: credit the path we chose.
            for out_iface in entry.outgoing:
                fib_stats[out_iface].satisfied += 1
        if self.flooding is not None:
            self.flooding.note_satisfied(entry, now)
        self.pit.remove(entry)
        self.stats["interests_satisfied"] += 1

    # -- broadcast ------------------------------------------------------------

    def on_broadcast_data(self, iface: int, data: DataPacket, now: int) -> None:
        """Dispatch for data heard on a shared segment: it either answers
        an interest we forwarded onto the segment, or we merely overhear it.
        Overheard data satisfies the entries that wait for it on the
        segment, whose copy is already there, so none is sent back."""
        waiting = []
        for entry in self.pit.match_data(data):
            if entry.expiry > now:
                if iface in entry.outgoing:
                    self.on_data(iface, data, now)
                    return
                if iface in entry.incoming:
                    waiting.append(entry)
        matched = [e for e in waiting if self._match_full(data, e.interest)]
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
        self.expire_pit(now)
        if self.flooding is not None:
            for iface, interest in self.flooding.on_expiry_feedback(now):
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

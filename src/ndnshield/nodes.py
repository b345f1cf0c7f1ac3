"""Behavioral node models: consumers, producers, and compromised routers.

Each is a `simnet.NodeBase` and handles only the packet kind it acts on:
a producer interests, a consumer data, which it takes in its own
`on_packet`. Every node sends through `emit`.

Consumers verify every delivered packet, re-request around bad copies via
the exclude filter, and (in the self-certifying modes) walk hash-linked
fragment chains with a bounded window of concurrently pending interests.
Both consumers send, time out, retry and match their requests through one
request path in `ConsumerBase`, which keeps the deadlines of its requests
and key fetches in send order and queues one event for the earliest.
Producers serve a pre-signed static catalog plus an optional dynamic
prefix whose responses are signed per request at a configurable
simulated cost. A compromised router answers interests under a target
prefix with freshly minted poisoned content instead of forwarding them.
"""

from __future__ import annotations

import struct
from typing import Annotated, Callable, Optional

from .crypto import (
    KeyPair,
    compute_content_hash,
    forge_packet,
    sha256,
    sign_packet,
    verify_signature,
)
from .packets import (
    INTEREST_LIFETIME_MS,
    MS,
    BloomExclude,
    DataPacket,
    EmbeddedKey,
    ExplicitExclude,
    Interest,
    KeyName,
    Name,
    digest_component,
    interest_matches,
    is_control_name,
)
from .poisoning import feedback_interest
from .router import Router
from .schema import Factory, NonEmpty, NonNegative, OneOf, Positive, Record
from .simnet import NodeBase

# What a consumer makes of a delivered packet, each the name of the
# counter column it is counted in.
VALID = "received_valid"
CORRUPTED = "received_corrupted"
FAKE = "received_fake"
HASH_MISMATCH = "received_hash_mismatch"
PENDING_KEY = "received_unverifiable"  # its key fetch timed out

MODE_PLAIN = "plain"
MODE_SSCID = "s-scid"
MODE_DSCID = "d-scid"
MODE_COMBINED = "combined"

CONSUMER_MODES = (MODE_PLAIN, MODE_SSCID, MODE_DSCID, MODE_COMBINED)


# ---------------------------------------------------------------------------
# Static collections with forward hash links
# ---------------------------------------------------------------------------


def encode_fragment_payload(link_hashes: list[bytes], body: bytes) -> bytes:
    out = bytearray(struct.pack(">I", len(link_hashes)))
    for h in link_hashes:
        out += h
    out += body
    return bytes(out)


def decode_fragment_links(payload: bytes) -> list[bytes]:
    (count,) = struct.unpack_from(">I", payload, 0)
    if 4 + count * 32 > len(payload):
        raise ValueError("truncated link table")
    return [payload[4 + 32 * i : 4 + 32 * (i + 1)] for i in range(count)]


def build_collection(base: Name, bodies: list[bytes], window: int, key: KeyPair) -> list[DataPacket]:
    """Build fragments CO_1..CO_m where each packet embeds the hashes of the
    next `window` fragments. A packet can only embed the hash of a packet
    already built, so they are built last to first.

    Fragment i is named base/<i> (1-based decimal component).
    """
    packets: list[DataPacket] = []
    hashes: list[bytes] = []  # of the fragments after the one being built
    for i in range(len(bodies), 0, -1):
        payload = encode_fragment_payload(hashes[:window], bodies[i - 1])
        pkt = sign_packet(base.child(b"%d" % i), payload, key)
        packets.insert(0, pkt)
        hashes.insert(0, compute_content_hash(pkt))
    return packets


class StaticCollection(Record):
    base: Name
    window: int
    packets: list[DataPacket]

    @property
    def fragment_count(self) -> int:
        return len(self.packets)

    def first_hash(self) -> bytes:
        return compute_content_hash(self.packets[0])


# ---------------------------------------------------------------------------
# Producer
# ---------------------------------------------------------------------------


class Producer(NodeBase):
    """Serves a pre-signed static catalog and optionally signs dynamic
    content on demand. Unsatisfiable interests are ignored outright; they
    cost the producer nothing."""

    def __init__(
        self,
        node_id: str,
        prefix: Name,
        key: KeyPair,
        *,
        dynamic_prefix: Optional[Name] = None,
        payload_size: Annotated[int, NonNegative] = 1024,
        sign_service_us: Annotated[int, NonNegative] = 800,
        static_service_us: Annotated[int, NonNegative] = 10,
    ):
        super().__init__(node_id)
        self.prefix = prefix
        self.key = key
        self.dynamic_prefix = dynamic_prefix
        self.payload_size = payload_size
        self.sign_service_us = sign_service_us
        self.static_service_us = static_service_us
        self._by_base: dict[Name, DataPacket] = {}
        self._by_full: dict[Name, DataPacket] = {}
        self.collections: dict[bytes, StaticCollection] = {}
        self._busy_until = 0

    def role(self) -> str:
        return "producer"

    # -- catalog -----------------------------------------------------------

    def add_static_packet(self, pkt: DataPacket) -> None:
        self._by_base[pkt.base_name()] = pkt
        self._by_full[pkt.name] = pkt

    def add_static_item(self, name: Name, payload: bytes) -> DataPacket:
        pkt = sign_packet(name, payload, self.key)
        self.add_static_packet(pkt)
        return pkt

    def add_collection(self, collection: bytes, bodies: list[bytes], window: int) -> StaticCollection:
        base = self.prefix.child(collection)
        packets = build_collection(base, bodies, window, self.key)
        col = StaticCollection(base, window, packets)
        self.collections[collection] = col
        for pkt in packets:
            self.add_static_packet(pkt)
        return col

    def _dynamic_payload(self, name: Name) -> bytes:
        seed = sha256(str(name).encode())
        reps = self.payload_size // 32 + 1
        return (seed * reps)[: self.payload_size]

    # -- serving ---------------------------------------------------------------

    def serve(self, interest: Interest, now: int) -> Optional[tuple[DataPacket, int]]:
        """A packet and its service cost, or None for unsatisfiable names."""
        if not self.prefix.is_prefix_of(interest.name):
            return None
        pkt = self._by_full.get(interest.name) or self._by_base.get(interest.name.strip_digest())
        if pkt is not None and interest_matches(pkt, interest):
            return pkt, self.static_service_us
        if interest.publisher_key_digest is not None and (
            interest.publisher_key_digest != self.key.digest
        ):
            return None  # no key of ours can match; ignored without cost
        if self.dynamic_prefix is not None and self.dynamic_prefix.is_prefix_of(interest.name):
            base = interest.name.strip_digest()
            fresh = sign_packet(base, self._dynamic_payload(base), self.key)
            if interest_matches(fresh, interest):
                return fresh, self.sign_service_us
        return None

    def on_interest(self, iface: int, interest: Interest, now: int) -> None:
        self.stats["interests_received"] += 1
        result = self.serve(interest, now)
        if result is None:
            self.stats["interests_ignored"] += 1
            return
        data, service_us = result
        # Single-server queue: expensive signing backs up under load.
        depart = max(now, self._busy_until) + service_us
        self._busy_until = depart
        self.stats["produced_served"] += 1
        self.stats["producer_busy_us"] += service_us
        self.after(depart - now, lambda: self.emit(iface, data))

    def gauges(self) -> dict[str, float]:
        return {"producer_queue_us": max(0, self._busy_until - self.net.now) if self.net else 0}


# ---------------------------------------------------------------------------
# Consumer machinery
# ---------------------------------------------------------------------------


class _PendingKeyFetch(Record):
    name: Name
    packets: list[tuple[DataPacket, Callable[[str, DataPacket], None]]] = Factory(list)
    # The deadline, as for `_Request`; fetches started earlier have the
    # lower `seq` and resolve first.
    deadline: int = 0
    seq: int = 0


class _Request(Record):
    """A pending request: its interest and how it is re-issued."""

    key: Name | int  # what the request is pending under
    interest: Interest
    retries_left: int
    exclude: frozenset[bytes] = frozenset()  # components of rejected copies
    # When the request times out, and the sequence number its expiry runs
    # under: both set by `ConsumerBase._arm` when the interest is sent.
    deadline: int = 0
    seq: int = 0

    def __init__(self, key, interest, retries_left, exclude=frozenset(), deadline=0, seq=0):
        self.key, self.interest, self.retries_left = key, interest, retries_left
        self.exclude, self.deadline, self.seq = exclude, deadline, seq


class ConsumerBase(NodeBase):
    """Shared verification, feedback and key-fetch machinery, and the one
    request path: requests pending by key (a name or a fragment number) are
    sent, timed out, retried or failed, and claimed by the data that answers
    them. A subclass says how a request for a key is built (`_issue`) and
    what giving up on a key means (`_give_up`).

    Deadlines. Each request and key fetch expires one `lifetime_ms` after
    it is sent, at the (time, seq) one `Network.at` call made then would
    give it; its sequence number is reserved at that point. Every deadline
    is now plus the same lifetime, so deadlines come in send order: the
    live ones are kept in a dict by sequence number, which is send order,
    and only the earliest has an event queued. An answered, replaced or
    resolved record leaves the dict at once; the event of a record that
    left finds it gone and queues the next one's."""

    def __init__(
        self,
        node_id: str,
        rng,
        *,
        trusted_key_digest: Optional[bytes] = None,
        lifetime_ms: int = INTEREST_LIFETIME_MS,
    ):
        super().__init__(node_id)
        self.rng = rng
        self.trusted_key_digest = trusted_key_digest
        self.lifetime_ms = lifetime_ms
        self._pending: dict[Name | int, _Request] = {}
        self._key_cache: dict[Name, bytes] = {}
        # Pending key fetches by key name components, so arriving data finds
        # the fetches it answers by looking up each prefix of its name.
        self._key_fetches: dict[tuple[bytes, ...], _PendingKeyFetch] = {}
        # Live requests and key fetches by the seq of their deadline, and
        # the seq of the one deadline event queued (None when none is).
        self._deadlines: dict[int, _Request | _PendingKeyFetch] = {}
        self._queued_seq: Optional[int] = None
        self._last_deadline = 0

    def role(self) -> str:
        return "consumer"

    def _nonce(self) -> int:
        return self.rng.u64()

    # -- requests ------------------------------------------------------------

    def _issue(self, key, retries_left: int, exclude: frozenset[bytes] = frozenset()) -> None:
        """Build the request for `key`, excluding the components of copies
        already rejected, and `_send` it."""
        raise NotImplementedError

    def _give_up(self, key) -> None:
        """What failing `key` means beyond the `requests_failed` count."""

    def _send(self, request: _Request, ifaces) -> None:
        replaced = self._pending.get(request.key)
        if replaced is not None:
            self._disarm(replaced)
        self._pending[request.key] = request
        self.stats["interests_sent"] += 1
        for iface in ifaces:
            self.emit(iface, request.interest)
        self._arm(request)

    # -- deadlines -------------------------------------------------------------

    def _arm(self, record: _Request | _PendingKeyFetch) -> None:
        """Give a record just sent its deadline, one lifetime from now."""
        net = self.net
        record.deadline = deadline = net.now + self.lifetime_ms * MS
        record.seq = seq = net.reserve()
        assert deadline >= self._last_deadline, "deadlines must come in send order"
        self._last_deadline = deadline
        self._deadlines[seq] = record
        if self._queued_seq is None:
            self._queued_seq = seq
            net.push(deadline, seq, self._on_deadline)

    def _disarm(self, record: _Request | _PendingKeyFetch) -> None:
        del self._deadlines[record.seq]

    def _on_deadline(self) -> None:
        """The queued deadline event: expire its record if still live. The
        next deadline is queued first, so that a retry sent while the
        record expires finds it queued and queues no second event."""
        deadlines = self._deadlines
        record = deadlines.pop(self._queued_seq, None)
        if deadlines:
            seq, head = next(iter(deadlines.items()))
            self._queued_seq = seq
            self.net.push(head.deadline, seq, self._on_deadline)
        else:
            self._queued_seq = None
        if record is not None:
            self._expire(record)

    def _expire(self, record: _Request | _PendingKeyFetch) -> None:
        if isinstance(record, _Request):
            del self._pending[record.key]
            self._retry_or_fail(record.key, record, record.exclude)
            return
        del self._key_fetches[record.name.components]
        self.stats["key_fetch_timeouts"] += 1
        for pkt, done in record.packets:
            done(PENDING_KEY, pkt)

    def _retry_or_fail(self, key, request: _Request, exclude: frozenset[bytes]) -> None:
        if request.retries_left > 0:
            self.stats["retries"] += 1
            self._issue(key, request.retries_left - 1, exclude)
        else:
            self.stats["requests_failed"] += 1
            self._give_up(key)

    def _claim(self, pkt: DataPacket) -> Optional[_Request]:
        """Pop the first pending request `pkt` answers."""
        for key, request in self._pending.items():
            if interest_matches(pkt, request.interest):
                del self._pending[key]
                self._disarm(request)
                return request
        return None

    def gauges(self) -> dict[str, float]:
        sent = self.stats["interests_sent"]
        ratio = self.stats["requests_satisfied"] / sent if sent else 1.0
        return {"satisfaction_ratio": ratio, "pending_requests": len(self._pending)}

    # -- verification -------------------------------------------------------

    def classify(self, pkt: DataPacket, key_der: bytes) -> str:
        if not verify_signature(pkt, key_der):
            return CORRUPTED
        if self.trusted_key_digest is not None and (
            pkt.publisher_key_digest != self.trusted_key_digest
        ):
            return FAKE
        return VALID

    def verify_delivery(
        self,
        pkt: DataPacket,
        expected_hash: Optional[bytes],
        done: Callable[[str, DataPacket], None],
        now: int,
    ) -> None:
        """Classify a delivered packet, fetching the verification key first
        when the packet names one; `done(status, pkt)` runs exactly once."""
        if expected_hash is not None and compute_content_hash(pkt) != expected_hash:
            done(HASH_MISMATCH, pkt)
            return
        locator = pkt.key_locator
        if isinstance(locator, EmbeddedKey):
            done(self.classify(pkt, locator.key_der), pkt)
            return
        key_name = locator.name
        cached = self._key_cache.get(key_name)
        if cached is not None:
            done(self.classify(pkt, cached), pkt)
            return
        fetch = self._key_fetches.get(key_name.components)
        if fetch is not None:
            fetch.packets.append((pkt, done))
            return
        fetch = _PendingKeyFetch(key_name, [(pkt, done)])
        self._key_fetches[key_name.components] = fetch
        interest = Interest(key_name, self._nonce(), lifetime_ms=self.lifetime_ms)
        self.stats["key_interests_sent"] += 1
        self.emit(self.default_iface(), interest)
        self._arm(fetch)

    def _maybe_resolve_key(self, pkt: DataPacket, now: int) -> bool:
        """Treat arriving data as a verification key if one is awaited. Of
        the pending key names that prefix the data's name, the one fetched
        first takes it."""
        fetches = self._key_fetches
        if not fetches:
            return False
        comps = pkt.name.components
        fetch = None
        for k in range(len(comps) + 1):
            candidate = fetches.get(comps[:k])
            if candidate is not None and (fetch is None or candidate.seq < fetch.seq):
                fetch = candidate
        if fetch is None:
            return False
        del fetches[fetch.name.components]
        self._disarm(fetch)
        self._key_cache[fetch.name] = pkt.payload
        for parked, done in fetch.packets:
            done(self.classify(parked, pkt.payload), parked)
        return True

    # -- delivery ------------------------------------------------------------

    def on_data(self, iface: int, data: DataPacket, now: int) -> None:
        self.on_packet(iface, data, now)  # each consumer's own handler

    # -- feedback ------------------------------------------------------------

    def send_feedback(self, iface: int, pkt: DataPacket) -> None:
        self.stats["feedback_sent"] += 1
        self.emit(iface, feedback_interest(compute_content_hash(pkt), self._nonce()))

    def record_outcome(self, status: str, pkt: DataPacket) -> None:
        self.stats[status] += 1
        if pkt.poisoned:
            self.stats["poisoned_received"] += 1
            if status == VALID:
                self.stats["accepted_poisoned"] += 1


# ---------------------------------------------------------------------------
# Request consumer: fixed schedule of one-shot fetches
# ---------------------------------------------------------------------------


class RequestConsumer(ConsumerBase):
    """Issues interests on a schedule: either explicit send times or a
    fixed rate between start and stop. Names come from exactly one of a
    cycled list (`names`) or a generator of unique names (`unique_under`,
    to defeat caching when measuring network health)."""

    def __init__(
        self,
        node_id: str,
        rng,
        *,
        names: Optional[Annotated[list[Name], NonEmpty]] = None,
        unique_under: Optional[Name] = None,
        rate_per_s: Annotated[float, Positive] = 0.0,
        start_ms: Annotated[int, NonNegative] = 0,
        stop_ms: int = 0,
        at_ms: Optional[list[Annotated[int, NonNegative]]] = None,
        retries: Annotated[int, NonNegative] = 0,
        mode: Annotated[str, OneOf(MODE_PLAIN, MODE_DSCID)] = MODE_PLAIN,
        trusted_key_digest: Optional[bytes] = None,
        lifetime_ms: Annotated[int, Positive] = INTEREST_LIFETIME_MS,
        send_on_all_interfaces: bool = False,
    ):
        super().__init__(node_id, rng, trusted_key_digest=trusted_key_digest, lifetime_ms=lifetime_ms)
        self.names = names
        self.unique_under = unique_under
        self.rate_per_s = rate_per_s
        self.start_ms = start_ms
        self.stop_ms = stop_ms
        self.at_ms = at_ms
        self.retries = retries
        self.mode = mode
        self.send_on_all_interfaces = send_on_all_interfaces
        self._seq = 0
        self._past: set[Name] = set()

    def start(self) -> None:
        if self.at_ms is not None:
            for t in self.at_ms:
                self.net.at(t * MS, self._fire)
        elif self.rate_per_s > 0:
            period = 1e6 / self.rate_per_s
            phase = self.rng.uniform(0, period)
            self.net.periodic(
                self.start_ms * MS + phase, period, self.stop_ms * MS, lambda _k: self._fire()
            )

    def _next_name(self) -> Name:
        if self.names is not None:
            name = self.names[self._seq % len(self.names)]
        else:
            name = self.unique_under.child(f"{self.id}-{self._seq}".encode())
        self._seq += 1
        return name

    def _fire(self) -> None:
        self._issue(self._next_name(), retries_left=self.retries)

    def _issue(self, name: Name, retries_left: int, exclude: frozenset[bytes] = frozenset()) -> None:
        digest = self.trusted_key_digest if self.mode == MODE_DSCID else None
        interest = Interest(name, self._nonce(), publisher_key_digest=digest,
                            lifetime_ms=self.lifetime_ms)
        targets = sorted(self.ifaces) if self.send_on_all_interfaces else [self.default_iface()]
        self._send(_Request(name, interest, retries_left), targets)

    def on_packet(self, iface: int, pkt: DataPacket, now: int) -> None:
        if self._maybe_resolve_key(pkt, now):
            return
        request = self._claim(pkt)
        if request is None:
            for name in self._past:
                if name.is_prefix_of(pkt.name):
                    self.stats["copies_received"] += 1
                    break
            return
        self.stats["copies_received"] += 1
        self._past.add(request.key)  # the name it was pending under

        def done(status: str, packet: DataPacket) -> None:
            self.record_outcome(status, packet)
            if status in (VALID, PENDING_KEY):  # pending: delivered, key unresolvable
                self.stats["requests_satisfied"] += 1
            else:
                self.send_feedback(iface, packet)
                self.stats["requests_failed"] += 1

        self.verify_delivery(pkt, None, done, now)


# ---------------------------------------------------------------------------
# Collection consumer: windowed chained fetch
# ---------------------------------------------------------------------------


class CollectionConsumer(ConsumerBase):
    """Fetches fragments base/1..base/m with at most `window` concurrently
    pending interests. In the hash-chained modes each fragment's interest
    carries the digest learned from an earlier fragment's forward links."""

    def __init__(
        self,
        node_id: str,
        rng,
        *,
        base: Name,
        fragment_count: int,
        window: int,
        mode: Annotated[str, OneOf(*CONSUMER_MODES)] = MODE_PLAIN,
        trusted_key_digest: Optional[bytes] = None,
        first_hash: Optional[bytes] = None,
        start_ms: Annotated[int, NonNegative] = 0,
        lifetime_ms: Annotated[int, Positive] = INTEREST_LIFETIME_MS,
        max_retries: Annotated[int, NonNegative] = 3,
        exclude_cap: Annotated[int, NonNegative] = 16,
    ):
        super().__init__(node_id, rng, trusted_key_digest=trusted_key_digest, lifetime_ms=lifetime_ms)
        if mode == MODE_SSCID and first_hash is None:
            raise ValueError("s-scid mode needs the first fragment's hash out of band")
        if mode in (MODE_DSCID, MODE_COMBINED) and trusted_key_digest is None:
            raise ValueError("d-scid modes need a trusted producer key digest")
        self.base = base
        self.m = fragment_count
        self.window = window
        self.mode = mode
        self.start_ms = start_ms
        self.max_retries = max_retries
        self.exclude_cap = exclude_cap
        self.known_hashes: dict[int, bytes] = {}
        if first_hash is not None:
            self.known_hashes[1] = first_hash
        # Fragments accepted and given up on: each reaches one of the two
        # once, and is never issued again.
        self._ok = 0
        self._failed = 0
        self._next = 1

    @property
    def uses_hashes(self) -> bool:
        return self.mode in (MODE_SSCID, MODE_COMBINED)

    @property
    def uses_digest(self) -> bool:
        return self.mode in (MODE_DSCID, MODE_COMBINED)

    def start(self) -> None:
        self.net.at(self.start_ms * MS, self._advance)

    def _fragment_name(self, i: int) -> Name:
        return self.base.child(b"%d" % i)

    def _can_request(self, i: int) -> bool:
        if not self.uses_hashes:
            return True
        if i in self.known_hashes:
            return True
        # Combined mode bootstraps the collection head on the key digest.
        return i == 1 and self.mode == MODE_COMBINED

    def _advance(self) -> None:
        while (
            len(self._pending) < self.window
            and self._next <= self.m
            and self._can_request(self._next)
        ):
            i = self._next
            self._next += 1
            self._issue(i, self.max_retries)
        if not self._pending and self._next > self.m:
            self._finish()

    def _finish(self) -> None:
        # Runs once, when the last fragment settles: 0 becomes the total.
        self.stats["fragments_completed"] += self._ok
        self.stats["fragments_failed"] += self._failed

    def _issue(self, i: int, retries_left: int, exclude: frozenset[bytes] = frozenset()) -> None:
        name = self._fragment_name(i)
        expected = self.known_hashes.get(i) if self.uses_hashes else None
        if expected is not None:
            name = name.child(digest_component(expected))
        exclude_filter = None
        if exclude:
            if len(exclude) > self.exclude_cap:
                # Retry chain exhausted its exclude budget: one final interest
                # that excludes everything, then give up on the fragment.
                exclude_filter = BloomExclude.all_ones()
                retries_left = 0
            else:
                exclude_filter = ExplicitExclude(frozenset(exclude))
        interest = Interest(
            name,
            self._nonce(),
            publisher_key_digest=self.trusted_key_digest if self.uses_digest else None,
            exclude=exclude_filter,
            lifetime_ms=self.lifetime_ms,
        )
        self._send(_Request(i, interest, retries_left, exclude), [self.default_iface()])

    def _give_up(self, i: int) -> None:
        self._failed += 1
        self._advance()

    def _learn_links(self, i: int, pkt: DataPacket) -> None:
        try:
            hashes = decode_fragment_links(pkt.payload)
        except (ValueError, struct.error):
            return
        for offset, h in enumerate(hashes, start=1):
            j = i + offset
            if j <= self.m:
                self.known_hashes.setdefault(j, h)

    def on_packet(self, iface: int, pkt: DataPacket, now: int) -> None:
        if self._maybe_resolve_key(pkt, now):
            return
        request = self._claim(pkt)
        self.stats["copies_received"] += 1
        if request is None:
            return
        i = request.key
        expected = request.interest.requested_hash()

        def accept() -> None:
            self._ok += 1
            self.stats["requests_satisfied"] += 1
            self._learn_links(i, pkt)
            self._advance()

        def reject(packet: DataPacket) -> None:
            # Bad copy: exclude its distinguishing component and re-request.
            self.send_feedback(iface, packet)
            prefix_len = len(self.base) + 1  # base/<i>
            distinguishing = (
                packet.name.components[prefix_len]
                if len(packet.name) > prefix_len
                else packet.name.components[-1]
            )
            self._retry_or_fail(i, request, request.exclude | {distinguishing})

        if isinstance(pkt.key_locator, KeyName) and pkt.key_locator.name not in self._key_cache:
            # Named keys resolve (or time out) asynchronously; the window
            # advances on delivery so a slow key chain cannot stall the
            # whole fetch. The verdict still lands in the counters.
            accept()
            self.verify_delivery(pkt, expected, self.record_outcome, now)
            return

        def done(status: str, packet: DataPacket) -> None:
            self.record_outcome(status, packet)
            if status in (VALID, PENDING_KEY):
                accept()
            else:
                reject(packet)

        self.verify_delivery(pkt, expected, done, now)

    def gauges(self) -> dict[str, float]:
        return {**super().gauges(), "fragments_ok": self._ok}


# ---------------------------------------------------------------------------
# Compromised router
# ---------------------------------------------------------------------------


class CompromisedRouter(Router):
    """A router that answers interests under a target prefix with poisoned
    content instead of forwarding them. In corrupted mode the packets carry
    the honest producer's identity but a garbage signature; in fake mode
    they are validly signed under the adversary's own key."""

    def __init__(
        self,
        node_id: str,
        *,
        poison_mode: Annotated[str, OneOf("corrupted", "fake")],
        target_prefix: Name,
        adversary_key: Optional[KeyPair] = None,
        honest_key_der: bytes = b"",
        rng=None,
        config=None,
    ):
        super().__init__(node_id, config=config)
        if poison_mode == "fake" and adversary_key is None:
            raise ValueError("fake mode signs with an adversary key")
        if poison_mode == "corrupted" and not honest_key_der:
            raise ValueError("corrupted mode impersonates an honest producer key")
        self.rng = rng
        self.poison_mode = poison_mode
        self.target_prefix = target_prefix
        self.adversary_key = adversary_key
        self.honest_key_der = honest_key_der

    def role(self) -> str:
        return "compromised-router"

    def make_poison(self, interest: Interest) -> DataPacket:
        requested_hash = interest.requested_hash()
        base = interest.name.strip_digest()
        payload = self.rng.bytes(max(64, len(interest.name.components) * 8))
        if self.poison_mode == "fake":
            pkt = sign_packet(base, payload, self.adversary_key, poisoned=True)
        else:
            pkt = forge_packet(base, payload, self.honest_key_der, self.rng)
        if requested_hash is not None:
            # Mimic the requested name exactly; the bytes cannot hash to it.
            pkt = pkt.replace(name=base.child(digest_component(requested_hash)))
        return pkt

    def on_interest(self, iface: int, interest: Interest, now: int) -> None:
        if self.target_prefix.is_prefix_of(interest.name) and not is_control_name(interest.name):
            self.stats["interests_received"] += 1
            self.stats["poison_injected"] += 1
            self.emit(iface, self.make_poison(interest))
            return
        super().on_interest(iface, interest, now)

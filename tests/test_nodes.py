"""Consumers, producers, catalogs, and the compromised router."""

from __future__ import annotations

import gc
import heapq
import weakref

import pytest

from helpers import iface_info, make_key, make_packet, n
from ndnshield import crypto
from ndnshield.attacks import Zombie
from ndnshield.crypto import compute_content_hash, forge_packet, sign_packet, verify_signature
from ndnshield.metrics import COUNTER_COLUMNS
from ndnshield.nodes import (
    CORRUPTED,
    FAKE,
    HASH_MISMATCH,
    PENDING_KEY,
    VALID,
    CollectionConsumer,
    CompromisedRouter,
    Producer,
    RequestConsumer,
    build_collection,
    decode_fragment_links,
)
from ndnshield.packets import (
    BloomExclude,
    ExplicitExclude,
    Interest,
    KeyName,
    digest_component,
    interest_matches,
)
from ndnshield.rand import Rng
from ndnshield.router import Router
from ndnshield.simnet import LinkSpec, Network

MS = 1000


# ---------------------------------------------------------------------------
# Collection construction
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("window", [1, 4, 12])
def test_collection_links_match_recomputed_hashes(window):
    key = make_key("prod")
    packets = build_collection(n("/p/file"), [b"body%d" % i for i in range(10)], window, key)
    assert [pkt.base_name() for pkt in packets] == [n("/p/file/%d" % i) for i in range(1, 11)]
    for i, pkt in enumerate(packets, start=1):
        links = decode_fragment_links(pkt.payload)
        expected = [
            compute_content_hash(packets[j - 1]) for j in range(i + 1, min(i + window, 10) + 1)
        ]
        assert links == expected
        assert verify_signature(pkt, key.public_der)


def test_collection_reverse_order_forced():
    # The last fragment carries no links; earlier ones carry up to `window`.
    key = make_key("prod")
    packets = build_collection(n("/p/f"), [b"x"] * 5, 2, key)
    assert decode_fragment_links(packets[-1].payload) == []
    assert len(decode_fragment_links(packets[0].payload)) == 2


# ---------------------------------------------------------------------------
# Producer
# ---------------------------------------------------------------------------


class StubNet(Network):
    """A network without links: sends are recorded, and events run in
    (time, seq) order when the test moves the clock; `current` is the
    (time, seq) of the event running."""

    def __init__(self):
        super().__init__(rng=None)
        self.sent = []
        self.current = (0, 0)

    def send_from(self, node_id, iface, pkt):
        self.sent.append((self.now, node_id, iface, pkt))

    def run_until(self, time_us):
        """Run every event due at or before time_us, then set the clock there."""
        while self._heap and self._heap[0][0] <= time_us:
            self.now, seq, fn = heapq.heappop(self._heap)
            self.current = (self.now, seq)
            fn()
        self.now = time_us

    def flush(self):
        while self._heap:
            self.run_until(self._heap[0][0])


def make_producer(**kw) -> tuple[Producer, StubNet]:
    producer = Producer(
        "p",
        n("/victim"),
        make_key("honest"),
        dynamic_prefix=n("/victim/live"),
        sign_service_us=800,
        static_service_us=10,
        **kw,
    )
    producer.add_static_item(n("/victim/page"), b"static-body")
    net = StubNet()
    net.add_node(producer)
    return producer, net


def test_producer_static_exact_match():
    producer, _ = make_producer()
    result = producer.serve(Interest(n("/victim/page"), 1), now=0)
    assert result is not None
    pkt, cost = result
    assert pkt.base_name() == n("/victim/page")
    assert cost == 10


def test_producer_static_deterministic_bytes():
    producer, _ = make_producer()
    a, _ = producer.serve(Interest(n("/victim/page"), 1), now=0)
    b, _ = producer.serve(Interest(n("/victim/page"), 2), now=5)
    assert a == b


def test_producer_random_nonce_suffix_ignored():
    producer, _ = make_producer()
    assert producer.serve(Interest(n("/victim/deadbeef01"), 1), now=0) is None


def test_producer_alien_key_digest_ignored():
    producer, _ = make_producer()
    wanted = Interest(n("/victim/page"), 1, publisher_key_digest=b"\x13" * 32)
    assert producer.serve(wanted, now=0) is None


def test_producer_self_contradictory_exclude_ignored():
    producer, _ = make_producer()
    wanted = Interest(n("/victim/page"), 1, exclude=BloomExclude.all_ones())
    assert producer.serve(wanted, now=0) is None


def test_producer_dynamic_signs_at_cost():
    producer, _ = make_producer()
    result = producer.serve(Interest(n("/victim/live/query-abc"), 1), now=0)
    assert result is not None
    pkt, cost = result
    assert cost == 800
    assert verify_signature(pkt, producer.key.public_der)


def test_producer_service_queue_backs_up():
    producer, net = make_producer()
    for k in range(3):
        producer.on_interest(0, Interest(n("/victim/live/q%d" % k), k), now=0)
    net.flush()
    departures = [t for t, *_ in net.sent]
    assert departures == [800, 1600, 2400]
    assert producer.stats["producer_busy_us"] == 2400


def test_producer_prefix_mismatch_ignored():
    producer, _ = make_producer()
    producer.on_interest(0, Interest(n("/elsewhere/x"), 1), now=0)
    assert producer.stats["interests_ignored"] == 1
    assert producer.stats["produced_served"] == 0


# ---------------------------------------------------------------------------
# Request consumer
# ---------------------------------------------------------------------------


def make_request_consumer(**kw):
    defaults = dict(names=[n("/victim/page")], at_ms=[0], retries=0)
    defaults.update(kw)
    consumer = RequestConsumer("c", Rng(3, "c"), **defaults)
    consumer.attach_iface(iface_info(0))
    net = StubNet()
    net.add_node(consumer)
    return consumer, net


def test_request_consumer_valid_delivery():
    consumer, net = make_request_consumer()
    consumer.start()
    net.run_until(5 * MS)  # the request goes out at 0
    pkt = make_packet("/victim/page", key=make_key("honest"))
    consumer.on_packet(0, pkt, now=5 * MS)
    assert consumer.stats["requests_satisfied"] == 1
    assert consumer.stats["received_valid"] == 1
    assert consumer.stats["feedback_sent"] == 0  # valid data: no feedback


def test_request_consumer_rejects_fake_with_anchor():
    consumer, net = make_request_consumer(
        mode="d-scid", trusted_key_digest=make_key("honest").digest
    )
    consumer._issue(n("/victim/page"), retries_left=0)
    fake = make_packet("/victim/page", key=make_key("adversary"))
    # A lazy network could deliver it only if it matched; simulate a lazy
    # delivery by stripping the digest from the pending interest.
    consumer._pending[n("/victim/page")].interest = Interest(n("/victim/page"), 1)
    consumer.on_packet(0, fake, now=5 * MS)
    assert consumer.stats["received_fake"] == 1
    assert consumer.stats["feedback_sent"] == 1
    assert consumer.stats["requests_satisfied"] == 0


def test_request_consumer_accepts_fake_without_anchor():
    # Without a trust anchor a validly-signed packet is indistinguishable
    # from honest content; the vulnerability the digest mode closes.
    consumer, net = make_request_consumer()
    consumer._issue(n("/victim/page"), retries_left=0)
    fake = make_packet("/victim/page", key=make_key("adversary"))
    consumer.on_packet(0, fake, now=5 * MS)
    assert consumer.stats["received_valid"] == 1


def test_request_consumer_retries_then_fails_and_ignores_replaced_timer():
    a = n("/victim/page")
    lifetime = 4000 * MS
    consumer, net = make_request_consumer(names=[a], retries=1)
    consumer._fire()
    first = consumer._pending[a]
    net.run_until(lifetime - 1)
    assert consumer.stats["retries"] == 0
    net.run_until(lifetime)
    retry = consumer._pending[a]
    assert consumer.stats["retries"] == 1
    assert retry.interest.nonce != first.interest.nonce
    assert [pkt for *_, pkt in net.sent] == [first.interest, retry.interest]
    net.run_until(2 * lifetime)
    assert consumer.stats["requests_failed"] == 1
    assert a not in consumer._pending
    # Issued twice before either lifetime ends: the replaced request's
    # deadline passes without effect, the one now pending times out later.
    consumer._fire()
    replaced = consumer._pending[a]
    net.run_until(2 * lifetime + MS)
    consumer._fire()
    net.run_until(3 * lifetime)
    assert (consumer.stats["retries"], consumer.stats["requests_failed"]) == (1, 1)
    assert consumer._pending[a] is not replaced
    net.run_until(3 * lifetime + MS)
    assert (consumer.stats["retries"], consumer.stats["requests_failed"]) == (2, 1)


def test_classify_hashes_each_key_once(monkeypatch):
    """A consumer checks that a packet names the key it verifies under by
    hashing the key's DER once per (packet, key): asking a packet about a
    key again reuses the verdict."""
    consumer, _ = make_request_consumer()
    honest, other = make_key("honest"), make_key("adversary")
    packets = [make_packet("/victim/p%d" % i, key=honest) for i in range(5)]
    calls = []
    real = crypto.sha256

    def counting_sha256(data):
        calls.append(data)
        return real(data)

    monkeypatch.setattr(crypto, "sha256", counting_sha256)
    for pkt in packets * 2:
        assert consumer.classify(pkt, honest.public_der) == VALID
    for _ in range(2):
        assert consumer.classify(packets[0], other.public_der) == CORRUPTED
    assert calls.count(honest.public_der) == len(packets)
    assert calls.count(other.public_der) == 1


def test_every_status_is_a_counter_column():
    """`record_outcome` counts a status in the column it names."""
    statuses = (VALID, CORRUPTED, FAKE, HASH_MISMATCH, PENDING_KEY)
    assert set(statuses) <= set(COUNTER_COLUMNS)
    consumer, _ = make_request_consumer()
    for status in statuses:
        consumer.record_outcome(status, make_packet("/victim/page", key=make_key("honest")))
        assert consumer.stats[status] == 1


def test_key_fetch_timeout_counts_each_parked_packet_once():
    """Two delivered packets park on one key fetch that nobody answers: its
    timeout counts each as received but unverifiable exactly once, and
    each request as satisfied."""
    a, b = n("/victim/a"), n("/victim/b")
    consumer, net = make_request_consumer(names=[a, b], at_ms=[0, 0])
    consumer.start()
    net.run_until(MS)
    for name in (a, b):
        consumer.on_packet(0, _named_key_packet(str(name), "/keys/lost"), now=MS)
    assert consumer.stats["key_interests_sent"] == 1
    net.run_until(10_000 * MS)
    assert consumer.stats["key_fetch_timeouts"] == 1
    assert consumer.stats["received_unverifiable"] == 2
    assert consumer.stats["requests_satisfied"] == 2
    assert consumer.stats["received_valid"] == consumer.stats["received_corrupted"] == 0


@pytest.mark.parametrize("first,second", [("/k/sub", "/k"), ("/k", "/k/sub")])
def test_nested_key_fetches_resolve_in_fetch_order(first, second):
    """Data under both of two pending key names answers the one fetched first."""
    consumer, net = make_request_consumer()
    key = make_key("honest")
    outcomes = []
    for key_name in (first, second):
        pkt = sign_packet(n("/victim/page"), key_name.encode(), key, KeyName(n(key_name)))
        consumer.verify_delivery(pkt, None, lambda s, p: outcomes.append((s, p.payload)), 0)
    assert consumer.stats["key_interests_sent"] == 2
    consumer.on_packet(0, make_packet("/k/sub/cert", key=key, payload=key.public_der), now=1)
    assert outcomes == [(VALID, first.encode())]
    assert list(consumer._key_cache) == [n(first)]
    assert [f.name for f in consumer._key_fetches.values()] == [n(second)]


@pytest.mark.parametrize("payload, status", [
    ("own", VALID), ("garbage", CORRUPTED), ("other-key", CORRUPTED),
], ids=["own-valid", "garbage-corrupted", "other-key-corrupted"])
def test_fetched_key_payload_decides_the_parked_packet(payload, status):
    """A packet parked on a key fetch is corrupted when the key packet's
    payload is not its publisher's key: bytes that are no key, or a key
    the model built for another publisher."""
    consumer, _ = make_request_consumer()
    key = make_key("honest")
    der = {"own": key.public_der, "garbage": b"not a der key",
           "other-key": make_key("adversary").public_der}[payload]
    outcomes = []
    pkt = sign_packet(n("/victim/page"), b"body", key, KeyName(n("/k")))
    consumer.verify_delivery(pkt, None, lambda s, p: outcomes.append((s, p)), 0)
    assert consumer.stats["key_interests_sent"] == 1
    consumer.on_packet(0, make_packet("/k/cert", key=key, payload=der), now=1)
    assert outcomes == [(status, pkt)]


# ---------------------------------------------------------------------------
# Collection consumer
# ---------------------------------------------------------------------------


def chained_consumer(mode="combined", m=10, u=4, **kw):
    key = make_key("honest")
    packets = build_collection(n("/victim/file"), [b"b%d" % i for i in range(m)], u, key)
    consumer = CollectionConsumer(
        "c",
        Rng(4, "cc"),
        base=n("/victim/file"),
        fragment_count=m,
        window=u,
        mode=mode,
        trusted_key_digest=key.digest if mode in ("d-scid", "combined") else None,
        first_hash=compute_content_hash(packets[0]) if mode == "s-scid" else None,
        **kw,
    )
    consumer.attach_iface(iface_info(0))
    net = StubNet()
    net.add_node(consumer)
    consumer.start()
    net.run_until(0)  # the first window goes out
    return consumer, packets, net


def test_combined_walkthrough_retrieves_all():
    consumer, packets, net = chained_consumer(mode="combined", m=10, u=4)
    served = 0
    # Serve every outstanding interest from the prebuilt collection until done.
    for _ in range(100):
        outstanding = [(i, p) for i, p in consumer._pending.items()]
        if not outstanding:
            break
        for i, pending in outstanding:
            interest = pending.interest
            pkt = packets[i - 1]
            assert interest_matches(pkt, interest)
            if i > 1:
                # Every interest after the first carries both protections.
                assert interest.requested_hash() == compute_content_hash(pkt)
            assert interest.publisher_key_digest == make_key("honest").digest
            consumer.on_packet(0, pkt, now=net.now)
            served += 1
    assert consumer.stats["fragments_completed"] == 10
    assert consumer.stats["fragments_failed"] == 0
    assert consumer.gauges()["fragments_ok"] == 10
    assert served == 10


def test_window_bound_respected():
    consumer, packets, net = chained_consumer(mode="plain", m=10, u=4)
    assert len(consumer._pending) == 4


def test_sscid_mode_never_accepts_wrong_bytes(monkeypatch):
    consumer, packets, net = chained_consumer(mode="s-scid", m=3, u=1)
    wrong = make_packet("/victim/file/1", key=make_key("honest"), payload=b"wrong-bytes")
    # Force-feed a wrong packet as if a lazy cache served it: the request,
    # whose interest names the digest of fragment 1, claims it anyway.
    monkeypatch.setattr("ndnshield.nodes.interest_matches", lambda pkt, interest: True)
    consumer.on_packet(0, wrong, now=0)
    assert consumer.stats["received_hash_mismatch"] == 1
    assert consumer.stats["fragments_completed"] == 0


def test_corrupted_copy_triggers_exclude_retry():
    consumer, packets, net = chained_consumer(mode="plain", m=2, u=1, max_retries=3)
    key = make_key("honest")
    bad = forge_packet(n("/victim/file/1"), b"junk", key.public_der, Rng(5, "forge"))
    consumer.on_packet(0, bad, now=0)
    assert consumer.stats["received_corrupted"] == 1
    assert consumer.stats["feedback_sent"] == 1
    assert consumer.stats["retries"] == 1
    retry = consumer._pending[1].interest
    assert isinstance(retry.exclude, ExplicitExclude)
    assert bad.name.components[-1] in retry.exclude.components
    assert not interest_matches(bad, retry)  # the bad copy can never match again


def test_exclude_cap_falls_back_to_all_ones_bloom():
    consumer, packets, net = chained_consumer(mode="plain", m=1, u=1, exclude_cap=2, max_retries=10)
    pending = consumer._pending[1]
    big_exclude = frozenset(b"c%d" % k for k in range(3))
    consumer._issue(1, retries_left=5, exclude=big_exclude)
    final = consumer._pending[1].interest
    assert isinstance(final.exclude, BloomExclude)
    assert final.exclude.bits == b"\xff" * 32


def test_timeout_retries_then_fails():
    consumer, packets, net = chained_consumer(mode="plain", m=1, u=1, max_retries=2)
    for k in range(1, 4):
        assert 1 in consumer._pending
        net.run_until(k * 4000 * MS)  # one lifetime per interest
    assert 1 not in consumer._pending
    assert consumer.stats["retries"] == 2
    assert consumer.stats["requests_failed"] == 1
    assert consumer.stats["fragments_failed"] == 1


# ---------------------------------------------------------------------------
# Deadlines: one queued event per consumer, in the order of one timer each
# ---------------------------------------------------------------------------


class ScriptedNet(StubNet):
    """Answers interests for the names in `answers` (name text -> packet)
    after `delay_us`, and logs every send and every expiry with the
    (time, seq) of the event it happened in."""

    def __init__(self, answers, delay_us=500):
        super().__init__()
        self.answers = {n(name): pkt for name, pkt in answers.items()}
        self.delay_us = delay_us
        self.log = []

    def send_from(self, node_id, iface, pkt):
        super().send_from(node_id, iface, pkt)
        self.log.append((*self.current, "send", node_id, str(pkt.name), pkt.nonce))
        answer = self.answers.get(pkt.name)
        if answer is not None:
            node = self.nodes[node_id]
            self.after(self.delay_us, lambda: node.on_packet(iface, answer, self.now))


def logged(cls):
    class Logged(cls):
        def _expire(self, record):
            key = record.name if hasattr(record, "name") else record.key  # key fetch or request
            self.net.log.append((*self.net.current, "expire", self.id, str(key)))
            super()._expire(record)

    return Logged


def one_timer_per_deadline(cls):
    """The consumer with the deadline scheme it replaces: one `Network.at`
    per request or key fetch, whose event does nothing once the record has
    been answered, replaced or resolved."""

    class OneTimer(cls):
        def _arm(self, record):
            record.deadline = self.net.now + self.lifetime_ms * MS
            record.live = True
            self.net.at(record.deadline, lambda: self._reference_expiry(record))
            record.seq = self.net._seq  # the number `at` took

        def _disarm(self, record):
            record.live = False

        def _reference_expiry(self, record):
            if record.live:
                record.live = False
                self._expire(record)

    return OneTimer


KEY = make_key("honest")
PAGE = n("/victim/page")


def _named_key_packet(name: str, key_name: str):
    return sign_packet(n(name), b"body", KEY, KeyName(n(key_name)))


# Each script: the answers the network gives, then per consumer its
# constructor arguments; every consumer uses a 1 s lifetime.
DEADLINE_SCRIPTS = {
    # Unanswered requests time out and are retried from inside the expiry,
    # by two consumers whose deadlines tie in time.
    "retry_inside_expiry": ({}, [
        dict(names=[n("/x/a"), n("/x/b")], at_ms=[0, 0, 700], retries=2),
        dict(names=[n("/x/c")], at_ms=[0, 300, 1000], retries=1),
    ]),
    # Several sends in the same microsecond, some answered, some not.
    "same_microsecond": ({name: make_packet(name, key=KEY) for name in ("/x/a", "/x/c")}, [
        dict(names=[n("/x/a"), n("/x/b"), n("/x/c"), n("/x/d")], at_ms=[5, 5, 5, 5, 1005],
             retries=1),
        dict(names=[n("/x/b"), n("/x/a")], at_ms=[5, 5, 6], retries=0),
    ]),
    # A name asked for again while its request is pending replaces it.
    "replaced_while_pending": ({}, [
        dict(names=[n("/x/a")], at_ms=[0, 300, 600, 2000, 2999], retries=1),
        dict(names=[n("/x/a"), n("/x/b")], at_ms=[0, 0, 300, 300], retries=0),
    ]),
    # Data naming keys nobody serves: key fetches time out, one resolves.
    "key_fetch_timeout": ({
        "/x/a": _named_key_packet("/x/a", "/keys/lost"),
        "/x/b": _named_key_packet("/x/b", "/keys/lost"),
        "/x/c": _named_key_packet("/x/c", "/keys/gone"),
        "/x/d": _named_key_packet("/x/d", "/keys/found"),
        "/keys/found": make_packet("/keys/found/cert", key=KEY, payload=KEY.public_der),
    }, [
        dict(names=[n("/x/a"), n("/x/c"), n("/x/e"), n("/x/b"), n("/x/d")],
             at_ms=[0, 0, 200, 400, 400, 1200], retries=1),
    ]),
}


def _run_script(script, variant):
    answers, consumers = DEADLINE_SCRIPTS[script]
    net = ScriptedNet(answers)
    cls = logged(variant(RequestConsumer))
    for i, kwargs in enumerate(consumers):
        consumer = cls(f"c{i}", Rng(8, f"c{i}"), lifetime_ms=1000, **kwargs)
        net.add_node(consumer)
        consumer.attach_iface(iface_info(0))
        net.at(0, consumer.start)
    net.run_until(10_000 * MS)
    return net


@pytest.mark.parametrize("script", sorted(DEADLINE_SCRIPTS))
def test_deadlines_run_in_the_order_of_one_timer_each(script):
    net = _run_script(script, lambda cls: cls)
    reference = _run_script(script, one_timer_per_deadline)
    assert net.log == reference.log
    stats = [node.stats for node in net.nodes.values()]
    expiries = [entry for entry in net.log if entry[2] == "expire"]
    assert expiries
    if script == "retry_inside_expiry":
        assert sum(st["retries"] for st in stats) == 5
        assert sum(st["requests_failed"] for st in stats) == 3
    elif script == "same_microsecond":
        assert len([entry for entry in expiries if entry[0] == 1005 * MS]) == 2
        assert sum(st["requests_satisfied"] for st in stats) == 4
    elif script == "replaced_while_pending":
        # Nothing is answered: every request sent expires or is replaced.
        assert sum(st["interests_sent"] for st in stats) > len(expiries)
    else:
        assert stats[0]["key_interests_sent"] == 4
        assert stats[0]["key_fetch_timeouts"] == 3  # the found key resolved
    for node in net.nodes.values():
        assert node._deadlines == {} and node._queued_seq is None


def test_deadline_events_are_one_per_consumer():
    consumer, net = make_request_consumer(names=[n("/x/%d" % i) for i in range(5)], retries=0)
    for _ in range(5):
        consumer._fire()
        net.run_until(net.now + MS)
    assert len(consumer._deadlines) == 5
    assert len(net._heap) == 1  # only the earliest deadline is queued
    net.run_until(5000 * MS)
    assert consumer.stats["requests_failed"] == 5
    assert len(net._heap) == 0


def test_answered_request_is_freed_at_once():
    consumer, net = make_request_consumer()
    consumer.start()
    net.run_until(0)
    ref = weakref.ref(consumer._pending[PAGE])
    gc.disable()
    try:
        consumer.on_packet(0, make_packet("/victim/page", key=KEY), now=MS)
        assert ref() is None
    finally:
        gc.enable()
    assert consumer.stats["requests_satisfied"] == 1


def test_answered_fragment_request_is_freed_at_once():
    consumer, packets, net = chained_consumer(mode="combined", m=3, u=1)
    ref = weakref.ref(consumer._pending[1])
    gc.disable()
    try:
        consumer.on_packet(0, packets[0], now=MS)
        assert ref() is None
    finally:
        gc.enable()
    assert consumer.stats["fragments_completed"] == 0 and consumer._ok == 1


# ---------------------------------------------------------------------------
# Compromised router
# ---------------------------------------------------------------------------


def make_compromised(mode="fake"):
    honest = make_key("honest")
    node = CompromisedRouter(
        "evil",
        poison_mode=mode,
        target_prefix=n("/victim"),
        adversary_key=make_key("adversary"),
        honest_key_der=honest.public_der,
        rng=Rng(13, "evil"),
    )
    from helpers import record_sends

    for i in range(2):
        node.attach_iface(iface_info(i))
    return record_sends(node)


def test_fake_mode_packet_properties():
    node = make_compromised("fake")
    node.on_interest(0, Interest(n("/victim/x"), 1), now=0)
    ((iface, pkt),) = node.sent
    assert iface == 0
    assert verify_signature(pkt, make_key("adversary").public_der)
    assert pkt.publisher_key_digest != make_key("honest").digest
    assert pkt.poisoned


def test_corrupted_mode_packet_properties():
    node = make_compromised("corrupted")
    node.on_interest(0, Interest(n("/victim/x"), 1), now=0)
    ((iface, pkt),) = node.sent
    assert iface == 0
    assert not verify_signature(pkt, make_key("honest").public_der)
    assert not verify_signature(pkt, make_key("adversary").public_der)
    assert pkt.publisher_key_digest == make_key("honest").digest  # stolen identity
    # Its own trailing hash component is self-consistent: hash checks alone
    # cannot catch it unless the consumer knows the hash it wanted.
    assert compute_content_hash(pkt) == pkt.name.components[-1][1:]


@pytest.mark.parametrize("mode", ["fake", "corrupted"])
def test_poison_mimics_requested_hash(mode):
    node = make_compromised(mode)
    wanted_hash = b"\x17" * 32
    wanted = Interest(n("/victim/x").child(digest_component(wanted_hash)), 1)
    node.on_interest(0, wanted, now=0)
    ((iface, pkt),) = node.sent
    assert iface == 0
    assert pkt.name == wanted.name  # name matches the request...
    assert "_content_hash" not in pkt.__dict__  # (no memo of the sealed name's hash)
    assert compute_content_hash(pkt) != wanted_hash  # ...but the bytes cannot


def test_non_target_interest_forwarded_normally():
    node = make_compromised("fake")
    node.fib.add(n("/other"), [1])
    other = Interest(n("/other/x"), 1)
    node.on_interest(0, other, now=0)
    assert node.sent == [(1, other)]
    assert node.stats["poison_injected"] == 0


# ---------------------------------------------------------------------------
# Wiring
# ---------------------------------------------------------------------------


def test_every_role_is_wired_alike_and_takes_only_its_kind():
    """`add_node` wires every role the same way, and a delivery calls the
    handler of its packet's kind: an interest delivered to a consumer or a
    zombie and data delivered to a producer change no counter, and the
    producer answers through the `emit` that `add_node` bound."""
    key = make_key("honest")
    producer = Producer("p", n("/victim"), key)
    producer.add_static_item(n("/victim/page"), b"body")
    consumer = RequestConsumer("c", Rng(3, "c"), names=[n("/victim/page")], at_ms=[20])
    zombie = Zombie("z", Rng(4, "z"), [])
    evil = CompromisedRouter("x", poison_mode="fake", target_prefix=n("/evil"),
                             adversary_key=make_key("adversary"), rng=Rng(5, "x"))
    router = Router("r")
    net = Network(Rng(1, "net"))
    for node in (producer, consumer, zombie, evil, router):
        net.add_node(node)
    for peer in ("p", "c", "z", "x"):
        net.add_link(LinkSpec(endpoints=("r", peer), bandwidth_bps=1e8, delay_us=MS))
    router.fib.add(n("/victim"), [net.iface_to("r", "p")])
    answers = []
    bound = producer.emit
    producer.emit = lambda iface, pkt: (answers.append(pkt), bound(iface, pkt))

    for peer in ("c", "z"):
        net.send_from("r", net.iface_to("r", peer), Interest(n("/victim/page"), 7))
    net.send_from("r", net.iface_to("r", "p"), make_packet("/victim/page", key=key))
    fresh = dict.fromkeys(COUNTER_COLUMNS, 0)
    untouched = []
    net.at(10 * MS, lambda: untouched.extend(
        node.stats == fresh for node in (consumer, zombie, producer)))
    net.run(until_us=100 * MS)
    assert untouched == [True, True, True]
    assert [pkt.base_name() for pkt in answers] == [n("/victim/page")]
    assert consumer.stats["received_valid"] == consumer.stats["requests_satisfied"] == 1

"""Event engine: timing, FIFO links, broadcast medium, determinism."""

from __future__ import annotations

import contextlib
import gc
import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_packet, n
from ndnshield.packets import DataPacket, EmbeddedKey, Interest, Name, wire_size
from ndnshield.rand import Rng
from ndnshield.simnet import LinkSpec, Network, NodeBase

MS = 1000


class Recorder(NodeBase):
    """Sink node that logs every delivery."""

    def __init__(self, node_id):
        super().__init__(node_id)
        self.received: list[tuple[int, int, object]] = []
        self.overheard: list[tuple[int, int, object]] = []

    def role(self):
        return "consumer"

    def on_interest(self, iface, pkt, now):
        self.received.append((now, iface, pkt))

    on_data = on_interest

    def on_broadcast_data(self, iface, data, now):
        self.overheard.append((now, iface, data))


def two_nodes(bandwidth_mbps=12.0, delay_ms=1.0, broadcast=False, extra=0):
    net = Network(Rng(1, "net"))
    a, b = Recorder("a"), Recorder("b")
    net.add_node(a)
    net.add_node(b)
    others = []
    for i in range(extra):
        node = Recorder(f"x{i}")
        net.add_node(node)
        others.append(node)
    endpoints = ("a", "b") + tuple(o.id for o in others)
    net.add_link(
        LinkSpec(
            endpoints=endpoints,
            bandwidth_bps=bandwidth_mbps * 1e6,
            delay_us=int(delay_ms * 1000),
            broadcast=broadcast or extra > 0,
        )
    )
    return net, a, b, others


class FixedSize:
    """Wraps wire_size via a payload of chosen length."""


def test_serialization_plus_propagation():
    # 1500-byte packet on a 12 Mbit/s link with 1 ms propagation arrives at
    # 1 ms serialization + 1 ms propagation. Payload size is adjusted so the
    # wire size is exactly 1500 bytes.
    net, a, b, _ = two_nodes()
    pkt = make_packet("/t/x", payload=b"\0" * 100)
    from ndnshield.packets import wire_size

    pad = 1500 - wire_size(make_packet("/t/x", payload=b""))
    pkt = make_packet("/t/x", payload=b"\0" * pad)
    assert wire_size(pkt) == 1500
    net.send_from("a", 0, pkt)
    net.run(until_us=10 * MS)
    (arrival, iface, got) = b.received[0]
    assert arrival == 2 * MS  # 1500*8/12e6 = 1 ms, plus 1 ms propagation


def test_fifo_back_to_back():
    net, a, b, _ = two_nodes()
    from ndnshield.packets import wire_size

    pad = 1500 - wire_size(make_packet("/t/x", payload=b""))
    pkt = make_packet("/t/x", payload=b"\0" * pad)
    net.send_from("a", 0, pkt)
    net.send_from("a", 0, pkt)
    net.run(until_us=10 * MS)
    times = [t for t, _, _ in b.received]
    assert times == [2 * MS, 3 * MS]  # second waits one serialization slot


def test_scope_zero_never_transmitted():
    net, a, b, _ = two_nodes()
    with pytest.raises(ValueError):
        net.send_from("a", 0, Interest(n("/x"), 1, scope=1))


def test_broadcast_reaches_all_other_endpoints():
    net, a, b, others = two_nodes(extra=2)
    net.send_from("a", 0, Interest(n("/q"), 7))
    net.run(until_us=MS * 10)
    assert len(b.received) == 1
    assert all(len(o.received) == 1 for o in others)
    assert not a.received  # sender does not hear itself


def test_broadcast_data_uses_overhear_dispatch():
    net, a, b, others = two_nodes(extra=1)
    net.send_from("a", 0, make_packet("/q/x"))
    net.run(until_us=MS * 10)
    assert len(b.overheard) == 1 and not b.received


def test_broadcast_medium_serializes_with_holdoff():
    # Two stations queue frames at the same instant; the second frame's
    # delivery comes one full (serialization + propagation) slot later.
    net, a, b, others = two_nodes(extra=1)
    pkt = make_packet("/q/x")
    from ndnshield.packets import wire_size

    import math

    slot = math.ceil(wire_size(pkt) * 8 * 1e6 / 12e6) + MS
    net.send_from("a", 0, pkt)
    net.send_from("b", 0, pkt)
    net.run(until_us=MS * 100)
    x0 = others[0]
    times = sorted(t for t, _, _ in x0.overheard)
    assert len(times) == 2
    assert times[1] - times[0] == slot


def test_event_causality_and_order():
    net = Network(Rng(3, "net"))
    log = []
    net.at(5 * MS, lambda: log.append("b"))
    net.at(1 * MS, lambda: log.append("a"))
    net.at(5 * MS, lambda: log.append("c"))  # same time: scheduling order wins
    net.run(until_us=10 * MS)
    assert log == ["a", "b", "c"]


def test_parallel_links_iface_lookup_and_delivery():
    """Two links join a and b; b also has an earlier link to c. iface_to
    returns the lowest interface, and every delivery reports the receiving
    link's own interface."""
    net = Network(Rng(5, "net"))
    a, b, c = Recorder("a"), Recorder("b"), Recorder("c")
    for node in (a, b, c):
        net.add_node(node)
    for endpoints in (("b", "c"), ("a", "b"), ("b", "a")):
        net.add_link(LinkSpec(endpoints=endpoints, bandwidth_bps=1e8, delay_us=1000))
    # a: iface 0 and 1 to b. b: iface 0 to c, 1 and 2 to a.
    assert net.iface_to("a", "b") == 0
    assert net.iface_to("b", "a") == 1
    assert net.iface_to("b", "c") == 0
    with pytest.raises(KeyError):
        net.iface_to("a", "c")
    packets = [make_packet(f"/t/{i}") for i in range(4)]
    for (sender, iface), pkt in zip((("a", 0), ("a", 1), ("b", 2), ("b", 1)), packets):
        net.send_from(sender, iface, pkt)
    net.run(until_us=10 * MS)
    assert [(iface, packets.index(pkt)) for _, iface, pkt in b.received] == [(1, 0), (2, 1)]
    assert [(iface, packets.index(pkt)) for _, iface, pkt in a.received] == [(1, 2), (0, 3)]
    assert c.received == []


def test_audit_holds_every_port_from_the_start():
    """Once the links are built, both flow-balance audits have a 0 for each
    (node, iface) on a link and no other key, so a delivery or a send only
    adds to a count that is already there."""
    net = Network(Rng(5, "net"))
    for node_id in ("a", "b", "c"):
        net.add_node(Recorder(node_id))
    net.add_link(LinkSpec(endpoints=("b", "c"), bandwidth_bps=1e8, delay_us=1000))
    net.add_link(LinkSpec(endpoints=("a", "b", "c"), bandwidth_bps=1e8, delay_us=1000,
                          broadcast=True))
    ports = {(node.id, iface) for node in net.nodes.values() for iface in node.ifaces}
    assert ports == {("a", 0), ("b", 0), ("b", 1), ("c", 0), ("c", 1)}
    for audit in (net.audit_interests_in, net.audit_data_out):
        assert audit == dict.fromkeys(ports, 0)


def test_events_past_the_end_never_run():
    """Events due after until_us never run, whether queued before the run
    or scheduled during it, and dropping them leaves the order of the
    events that do run, same-time ones included, as scheduled."""
    net = Network(Rng(3, "net"))
    log = []

    def first():
        log.append("a")
        net.at(5 * MS, lambda: log.append("c"))
        net.at(10 * MS + 1, lambda: log.append("late"))
        net.at(10 * MS, lambda: log.append("d"))

    net.at(5 * MS, first)
    net.at(11 * MS, lambda: log.append("queued-late"))
    net.at(5 * MS, lambda: log.append("b"))
    ticks = []
    net.every(4 * MS, ticks.append)
    net.run(until_us=10 * MS)
    assert log == ["a", "b", "c", "d"]
    assert ticks == [4 * MS, 8 * MS]
    assert net.now == 10 * MS and net._heap == []


def _periodic_run(lazy: bool) -> tuple[list, int, int]:
    """Three periodic sources, some of whose fires tie with each other and
    with `at` events scheduled after them, run to 9 ms with fires planned
    to 20 ms; through `periodic` (lazy) or one `at` per fire (eager).
    Returns the executed (time, label) log, the next sequence number and
    the heap size once the sources are set up."""
    net = Network(Rng(3, "net"))
    log = []
    queued = []

    def source(label, start, period):
        def fire(k):
            log.append((net.now, f"{label}{k}"))
            if label == "a" and k == 0:
                # Ties with a1 (2.5 ms later), whose number is older.
                net.after(2500, lambda: log.append((net.now, "after-a0")))

        if lazy:
            net.periodic(start, period, 20 * MS, fire)
        else:
            t, k = start, 0
            while t < 20 * MS:
                net.at(int(t), lambda k=k: fire(k))
                k, t = k + 1, t + period

    def setup():
        source("a", 1000.0, 2500.0)
        source("b", 1000.0, 1250.0)
        source("c", 250.5, 1e6 / 3000)  # float accumulation, truncated times
        net.at(3500, lambda: log.append((net.now, "at-3500")))
        net.at(6000, lambda: log.append((net.now, "at-6000")))
        queued.append(len(net._heap))

    net.at(0, setup)
    net.run(until_us=9 * MS)
    return log, net._seq, queued[0]


def test_periodic_keeps_the_eager_order():
    lazy_log, lazy_seq, lazy_queued = _periodic_run(lazy=True)
    eager_log, eager_seq, eager_queued = _periodic_run(lazy=False)
    assert lazy_log == eager_log
    assert lazy_seq == eager_seq  # every fire's number is reserved, run or not
    times = [t for t, _ in lazy_log]
    assert times == sorted(times) and max(times) <= 9 * MS
    at_3500 = [label for t, label in lazy_log if t == 3500]
    assert at_3500 == ["a1", "b2", "at-3500", "after-a0"]
    assert lazy_queued == 5 < eager_queued  # one pending fire per source


def test_reserved_push_runs_where_at_would_have():
    """An event pushed under a number reserved earlier runs where one `at`
    call made at the reservation would, ahead of later same-time events;
    a push into the past raises and one after the end is dropped."""
    net = Network(Rng(3, "net"))
    log = []

    def setup():
        seq = net.reserve()
        net.at(2 * MS, lambda: log.append("at-after-reserve"))
        block = net.reserve(2)
        assert block == seq + 2
        net.push(2 * MS, block + 1, lambda: log.append("second-of-block"))
        net.push(2 * MS, seq, lambda: log.append("reserved"))
        net.push(2 * MS, block, lambda: log.append("first-of-block"))
        net.push(20 * MS, net.reserve(), lambda: log.append("late"))

    net.at(MS, setup)
    net.at(2 * MS, lambda: log.append("at-later"))
    net.run(until_us=10 * MS)
    assert log == ["at-later", "reserved", "at-after-reserve", "first-of-block", "second-of-block"]
    with pytest.raises(ValueError):
        net.push(MS, net.reserve(), lambda: None)


def test_cannot_schedule_into_past():
    net = Network(Rng(3, "net"))
    net.at(5 * MS, lambda: None)
    net.run(until_us=10 * MS)
    with pytest.raises(ValueError):
        net.at(5 * MS, lambda: None)


def test_second_run_rejected():
    net, a, b, _ = two_nodes()
    starts = []
    a.start = lambda: starts.append(net.now)
    net.run(until_us=10 * MS)
    with pytest.raises(RuntimeError):
        net.run(until_us=20 * MS)
    assert starts == [0]  # the node was started once, by the first run


@pytest.mark.parametrize("raises", [False, True], ids=["returns", "raises"])
@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_run_pauses_the_collector_and_restores_it(enabled, raises):
    """Events run with the cyclic collector off; afterwards it is as the
    caller had it, also when an event raises."""
    net = Network(Rng(3, "net"))
    during = []

    def event():
        during.append(gc.isenabled())
        if raises:
            raise RuntimeError("event failed")

    net.at(5 * MS, event)
    (gc.enable if enabled else gc.disable)()
    try:
        with pytest.raises(RuntimeError) if raises else contextlib.nullcontext():
            net.run(until_us=10 * MS)
        assert during == [False]
        assert gc.isenabled() == enabled
    finally:
        gc.enable()


def test_rng_streams_independent():
    root = Rng(42)
    a1 = root.spawn("a")
    _ = root.spawn("b").u64()  # drawing from b must not affect a
    a2 = Rng(42).spawn("a")
    assert [a1.u64() for _ in range(4)] == [a2.u64() for _ in range(4)]


def test_rng_uniformity_smoke():
    rng = Rng(7, "u")
    buckets = [0] * 8
    for _ in range(8000):
        buckets[rng.randrange(8)] += 1
    assert min(buckets) > 800  # crude sanity: no bucket starved


# ---------------------------------------------------------------------------
# Send timing against an oracle
# ---------------------------------------------------------------------------


class _Reserve:
    """The medium reservation `send_from` must reproduce, stated plainly:
    a point-to-point link queues each sender's frames behind its own
    earlier ones; a shared segment is held from a frame's start until
    every endpoint has heard it."""

    def __init__(self, spec: LinkSpec):
        self.spec = spec
        self.busy: dict[str, int] = {}  # per sender, point-to-point
        self.busy_shared = 0

    def arrival(self, sender: str, size: int, now: int) -> int:
        ser_us = math.ceil(size * 8 * 1e6 / self.spec.bandwidth_bps)
        if self.spec.broadcast:
            start = max(now, self.busy_shared)
            self.busy_shared = start + ser_us + self.spec.delay_us
            return self.busy_shared
        start = max(now, self.busy.get(sender, now))
        self.busy[sender] = start + ser_us
        return start + ser_us + self.spec.delay_us


class _Logger(NodeBase):
    def __init__(self, node_id, log):
        super().__init__(node_id)
        self.log = log

    def role(self):
        return "router"

    def on_interest(self, iface, pkt, now):
        self.log.append((now, self.id, iface, "interest", pkt.nonce))

    def on_data(self, iface, pkt, now):
        self.log.append((now, self.id, iface, "data", pkt.payload))

    def on_broadcast_data(self, iface, pkt, now):
        self.log.append((now, self.id, iface, "overheard", pkt.payload))


_NODES = ("n0", "n1", "n2", "n3")


@st.composite
def _topologies(draw):
    specs = []
    for _ in range(draw(st.integers(1, 4))):
        broadcast = draw(st.booleans())
        count = draw(st.integers(2, 4)) if broadcast else 2
        endpoints = tuple(draw(st.permutations(_NODES))[:count])
        bandwidth = draw(st.one_of(st.integers(1_001, 99_999_999).map(lambda b: float(b | 1)),
                                   st.floats(1e4, 1e9)))
        specs.append(LinkSpec(endpoints, bandwidth, draw(st.integers(0, 3 * MS)), broadcast))
    return specs


@given(
    specs=_topologies(),
    sends=st.lists(
        st.tuples(st.integers(0, 40), st.integers(0, 20), st.booleans(), st.integers(0, 400),
                  st.integers(0, 6 * MS)),
        min_size=1, max_size=30,
    ),
    until=st.integers(1 * MS, 12 * MS),
)
@settings(max_examples=150, deadline=None)
def test_arrivals_and_delivery_order_equal_the_reservation_oracle(specs, sends, until):
    """Whatever the links and the sends, every frame arrives when the
    plain reservation above puts it, deliveries run in (arrival, send
    order), each receiver in sorted order, and the flow-balance audit
    counts every interest delivered and every data packet sent."""
    log = []
    net = Network(Rng(1, "net"))
    for node_id in _NODES:
        net.add_node(_Logger(node_id, log))
    ports = []  # (node, iface, link index) in the order the network numbers them
    next_iface = dict.fromkeys(_NODES, 0)
    for index, spec in enumerate(specs):
        net.add_link(spec)
        for node_id in spec.endpoints:
            ports.append((node_id, next_iface[node_id], index))
            next_iface[node_id] += 1
    oracles = [_Reserve(spec) for spec in specs]
    expected, interests_in, data_out = [], Counter(), Counter()
    order = sorted(range(len(sends)), key=lambda i: (sends[i][4], i))
    for rank, i in enumerate(order):
        pick, extra, is_interest, length, at = sends[i]
        node_id, iface, index = ports[pick % len(ports)]
        spec = specs[index]
        if is_interest:
            pkt = Interest(Name((b"x" * (1 + extra),)), nonce=i)
            kind, tag = "interest", i
        else:
            pkt = DataPacket(Name((b"d",)), bytes([i]) * length, b"s" * (1 + extra),
                             EmbeddedKey(b"k"), bytes(32))
            kind, tag = ("overheard" if spec.broadcast else "data"), pkt.payload
        net.at(at, lambda n=node_id, f=iface, p=pkt: net.send_from(n, f, p))
        if at > until:
            continue  # the send itself never runs
        if not is_interest:
            data_out[(node_id, iface)] += 1
        arrival = oracles[index].arrival(node_id, wire_size(pkt), at)
        for receiver in sorted(spec.endpoints):
            if receiver != node_id and arrival <= until:
                own = next(f for r, f, x in ports if r == receiver and x == index)
                expected.append(((arrival, rank), (arrival, receiver, own, kind, tag)))
                if is_interest:
                    interests_in[(receiver, own)] += 1
    net.run(until_us=until)
    assert log == [entry for _, entry in sorted(expected, key=lambda e: e[0])]
    for audit, counts in ((net.audit_interests_in, interests_in), (net.audit_data_out, data_out)):
        assert audit == {(node_id, iface): counts[(node_id, iface)] for node_id, iface, _ in ports}

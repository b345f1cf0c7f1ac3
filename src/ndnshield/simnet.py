"""Deterministic discrete-event network engine.

Time is integer microseconds. Events execute in (time, sequence) order
where sequence is a global scheduling counter, so a (scenario, seed) pair
fully determines the trace. The heap holds plain (time, seq, fn) tuples;
an event due after the end of the run is never queued (its sequence
number is still taken, so the order of the events that run is the same).
A sequence number may also be taken now (`reserve`) and its event queued
later (`push`): the event then runs where one `at` call made at the
reservation would have put it. A periodic source (`periodic`) reserves
the numbers of all its fires when it is set up but queues one fire at a
time, and a consumer reserves one number per request deadline but queues
only its earliest live deadline, so the heap holds one pending event per
source while the (time, seq) order of every event is that of the eager
schedule.
Links are lossless store-and-forward queues; on shared segments
transmissions serialize and every other endpoint hears each frame, which
is what the overhear-suppression rule needs.

Every party, host or router, is a `NodeBase`. `add_node` binds each
node's `emit(iface, pkt)` to `send_from` and its `after` to the clock,
the same way for every node, and every node sends through its `emit`;
`send_from` is the one seam a test double overrides. `close` undoes the
binding once the run is over. `send_from` only reserves the link and
schedules the delivery; it never calls a handler, so a node may send at
the point it decides to without another node's handler running in
between. A delivery calls the receiving node's handler and nothing else.

What stays fixed per port is resolved once: `add_link` builds one
`_Port` per (node, iface), and a send reads only that record (see
`_Port`). A send takes a sequence number and queues its delivery
directly, as `at` would, without the past-time check (an arrival is
never before now); every other event goes through `at`, `push` or
`periodic`. A point-to-point sender queues behind its own earlier
frames on the port; a shared segment is reserved on its link. The
flow-balance audits are views of the ports' counts.

Dispatch on the packet kind happens once per send: `send_from` tests
whether the packet is an interest and queues the matching delivery
function. `_deliver_interest` counts the interest into the receiving
port's audit and calls `on_interest`; `_deliver_data` calls `on_data`,
or `on_broadcast_data` on a shared segment for a node that has it. No
handler tests the kind again.
"""

from __future__ import annotations

import gc
import heapq
import math
from functools import partial
from typing import Callable

from .metrics import COUNTER_COLUMNS
from .packets import DataPacket, Interest, wire_size
from .schema import Record


class IfaceInfo(Record):
    iface: int
    bandwidth_bps: float
    link_key: bytes


def _never(delay_us: int, fn: Callable[[], None]) -> None:
    pass


def _discard(iface: int, pkt) -> None:
    pass


class NodeBase:
    """A party on the network: it receives interests and data on its
    interfaces, and sends through `emit(iface, pkt)` and schedules through
    `after(delay_us, fn)`. `Network.add_node` binds both; a node built
    without a network, or detached from one, discards what it sends and
    never runs what it schedules, and tests substitute ones that record."""

    def __init__(self, node_id: str):
        self.id = node_id
        self.stats = dict.fromkeys(COUNTER_COLUMNS, 0)
        self.ifaces: dict[int, IfaceInfo] = {}
        NodeBase.detach(self)

    def detach(self) -> None:
        """Drop every reference to the network: from now on the node
        discards what it sends and never runs what it schedules."""
        self.net: Network | None = None
        self.after: Callable[[int, Callable[[], None]], None] = _never
        self.emit: Callable[[int, object], None] = _discard

    def attach_iface(self, info: IfaceInfo) -> None:
        self.ifaces[info.iface] = info
        self._default_iface = min(self.ifaces)

    def role(self) -> str:
        raise NotImplementedError

    def on_interest(self, iface: int, interest: Interest, now: int) -> None:
        pass

    def on_data(self, iface: int, data: DataPacket, now: int) -> None:
        pass

    def start(self) -> None:
        pass

    def gauges(self) -> dict[str, float]:
        return {}

    def default_iface(self) -> int:
        """The lowest-numbered interface."""
        return self._default_iface


class LinkSpec(Record):
    endpoints: tuple[str, ...]
    bandwidth_bps: float
    delay_us: int
    broadcast: bool = False


class Link:
    def __init__(self, spec: LinkSpec, key: bytes):
        if spec.broadcast:
            if len(spec.endpoints) < 2:
                raise ValueError("broadcast link needs at least 2 endpoints")
        elif len(spec.endpoints) != 2:
            raise ValueError("point-to-point link needs exactly 2 endpoints")
        self.spec = spec
        self.key = key
        # A shared segment is held from a frame's start until everyone has
        # heard it, so a deferred sender only starts after that.
        self.busy_until = 0


class _Port:
    """What a send from one (node, iface) needs, resolved when the link is
    built: the link, the receivers (each as (node, its own iface on the
    link, whether it takes data through `on_broadcast_data`, its port)),
    the link's rate and delay, when this sender's own queue onto a
    point-to-point link drains, the link's serialization time per wire
    size, and the port's two flow-balance counts."""

    __slots__ = (
        "link", "receivers", "bandwidth_bps", "delay_us", "broadcast", "busy_until",
        "ser_us", "interests_in", "data_out",
    )

    def __init__(self, link: Link, ser_us: dict[int, int]):
        spec = link.spec
        self.link = link
        self.receivers: tuple = ()
        self.bandwidth_bps = spec.bandwidth_bps
        self.delay_us = spec.delay_us
        self.broadcast = spec.broadcast
        self.busy_until = 0
        self.ser_us = ser_us  # wire size -> microseconds, shared by the link's ports
        self.interests_in = 0
        self.data_out = 0


class _Periodic:
    """One `Network.periodic` source, queued one fire at a time: each fire
    calls fn(k) and queues the next under its reserved number. It refers
    to itself only through the queue, which a finished run has emptied."""

    __slots__ = ("net", "fn", "seq", "count", "period", "k", "t")

    def __init__(self, net: "Network", fn: Callable[[int], None], seq: int, count: int,
                 start: float, period: float):
        self.net, self.fn, self.seq, self.count = net, fn, seq, count
        self.period, self.k, self.t = period, 0, start

    def __call__(self) -> None:
        k = self.k
        self.fn(k)
        self.k = k = k + 1
        self.t = t = self.t + self.period
        if k < self.count:
            self.net.push(int(t), self.seq + k, self)


class _Every:
    """One `Network.every` source: each tick calls fn(now) and queues the
    next `interval_us` later."""

    __slots__ = ("net", "interval_us", "fn")

    def __init__(self, net: "Network", interval_us: int, fn: Callable[[int], None]):
        self.net, self.interval_us, self.fn = net, interval_us, fn

    def __call__(self) -> None:
        self.fn(self.net.now)
        self.net.after(self.interval_us, self)


class Network:
    """One simulation instance: topology, clock, event queue, audit trail."""

    def __init__(self, rng):
        self.rng = rng
        self.now = 0
        self._seq = 0
        self._heap: list[tuple[int, int, Callable[[], None]]] = []
        self._until: float = math.inf  # end of the run; later events are never queued
        self.nodes: dict[str, NodeBase] = {}
        self.links: list[Link] = []
        self._ports: dict[str, dict[int, _Port]] = {}  # node -> iface -> port
        self._iface_to: dict[tuple[str, str], int] = {}  # (node, peer) -> lowest iface
        self._started = False

    # -- topology wiring -------------------------------------------------------

    def add_node(self, node: NodeBase) -> None:
        if node.id in self.nodes:
            raise ValueError(f"duplicate node id {node.id!r}")
        self.nodes[node.id] = node
        node.net = self
        node.after = self.after
        node.emit = partial(self.send_from, node.id)
        self._ports[node.id] = {}

    def add_link(self, spec: LinkSpec) -> Link:
        link = Link(spec, key=self.rng.spawn(f"link:{len(self.links)}").bytes(32))
        self.links.append(link)
        ser_us: dict[int, int] = {}
        ports = []
        own: dict[str, tuple[int, _Port]] = {}  # an endpoint's first iface on this link
        for endpoint in spec.endpoints:
            node_ports = self._ports[endpoint]
            iface = len(node_ports)
            port = node_ports[iface] = _Port(link, ser_us)
            ports.append((endpoint, port))
            own.setdefault(endpoint, (iface, port))
            for peer in spec.endpoints:
                self._iface_to.setdefault((endpoint, peer), iface)
            self.nodes[endpoint].attach_iface(IfaceInfo(iface, spec.bandwidth_bps, link.key))
        receivers_of = []  # every endpoint, in sorted order
        for r in sorted(spec.endpoints):
            node = self.nodes[r]
            iface, port = own[r]
            on_broadcast = spec.broadcast and hasattr(node, "on_broadcast_data")
            receivers_of.append((r, (node, iface, on_broadcast, port)))
        for sender, port in ports:
            port.receivers = tuple(receiver for r, receiver in receivers_of if r != sender)
        return link

    @property
    def audit_interests_in(self) -> dict[tuple[str, int], int]:
        """Flow-balance audit: interests delivered per (node, iface)."""
        return {(node_id, iface): port.interests_in
                for node_id, ports in self._ports.items() for iface, port in ports.items()}

    @property
    def audit_data_out(self) -> dict[tuple[str, int], int]:
        """Flow-balance audit: data packets sent per (node, iface)."""
        return {(node_id, iface): port.data_out
                for node_id, ports in self._ports.items() for iface, port in ports.items()}

    def iface_to(self, node_id: str, peer_id: str) -> int:
        """The lowest-numbered interface of node_id on a link shared with peer."""
        iface = self._iface_to.get((node_id, peer_id))
        if iface is None:
            raise KeyError(f"{node_id} has no link to {peer_id}")
        return iface

    # -- clock -------------------------------------------------------------------

    def at(self, time_us: int, fn: Callable[[], None]) -> None:
        """Schedule fn at time_us; the single entry point of every event."""
        if time_us < self.now:
            raise ValueError("cannot schedule into the past")
        self._seq += 1
        if time_us <= self._until:
            heapq.heappush(self._heap, (time_us, self._seq, fn))

    def after(self, delay_us: int, fn: Callable[[], None]) -> None:
        self.at(self.now + delay_us, fn)

    def reserve(self, count: int = 1) -> int:
        """Take `count` consecutive sequence numbers now, for events queued
        later with `push`; returns the first."""
        seq = self._seq + 1
        self._seq += count
        return seq

    def push(self, time_us: int, seq: int, fn: Callable[[], None]) -> None:
        """Queue fn at time_us under a sequence number taken by `reserve`."""
        if time_us < self.now:
            raise ValueError("cannot schedule into the past")
        if time_us <= self._until:
            heapq.heappush(self._heap, (time_us, seq, fn))

    def periodic(
        self, start: float, period: float, stop_us: int, fn: Callable[[int], None]
    ) -> None:
        """Call fn(k) at int(t_k) for t_0 = start, t_{k+1} = t_k + period
        and every t_k < stop_us, with the times and sequence numbers that
        one `at` call per fire, made now, would give."""
        if int(start) < self.now:
            raise ValueError("cannot schedule into the past")
        count = 0
        t = start
        while t < stop_us:
            count += 1
            t += period
        if count:
            seq = self.reserve(count)
            self.push(int(start), seq, _Periodic(self, fn, seq, count, start, period))

    def every(self, interval_us: int, fn: Callable[[int], None]) -> None:
        """Call fn(now) every `interval_us`, the first time `interval_us` from now."""
        self.after(interval_us, _Every(self, interval_us, fn))

    # -- transmission ---------------------------------------------------------------

    def send_from(self, sender: str, iface: int, pkt) -> None:
        """Queue the delivery of `pkt` from `sender`'s interface `iface` to
        every other endpoint of its link, at the time the frame has been
        serialized behind the frames before it and has crossed the link.
        Like an `at` call, it takes a sequence number even when the arrival
        falls after the end of the run and nothing is queued."""
        try:
            port = self._ports[sender][iface]
        except KeyError:
            raise KeyError(f"node {sender!r} has no interface {iface}") from None
        if isinstance(pkt, Interest):
            if pkt.scope is not None and pkt.scope <= 1:
                raise ValueError("scope 0/1 interests never leave the originating host")
            deliver = self._deliver_interest
        else:
            port.data_out += 1
            deliver = self._deliver_data
        size = wire_size(pkt)
        try:
            ser_us = port.ser_us[size]
        except KeyError:
            ser_us = port.ser_us[size] = math.ceil(size * 8 * 1e6 / port.bandwidth_bps)
        now = self.now
        if port.broadcast:
            link = port.link
            start = link.busy_until if link.busy_until > now else now
            arrival = link.busy_until = start + ser_us + port.delay_us
        else:
            start = port.busy_until if port.busy_until > now else now
            port.busy_until = start + ser_us
            arrival = start + ser_us + port.delay_us
        self._seq = seq = self._seq + 1
        if arrival <= self._until:
            heapq.heappush(self._heap, (arrival, seq, partial(deliver, port.receivers, pkt)))

    def _deliver_interest(self, receivers: tuple, interest: Interest) -> None:
        now = self.now
        for node, iface, _, port in receivers:
            port.interests_in += 1
            node.on_interest(iface, interest, now)

    def _deliver_data(self, receivers: tuple, data: DataPacket) -> None:
        """Every receiver of a data frame; on a shared segment, through the
        broadcast handler of those that have one."""
        now = self.now
        for node, iface, on_broadcast, _ in receivers:
            if on_broadcast:
                node.on_broadcast_data(iface, data, now)
            else:
                node.on_data(iface, data, now)

    # -- main loop -------------------------------------------------------------------------

    def run(self, until_us: int) -> None:
        """Start every node and process events up to `until_us`. A network
        runs once: a second call would start every node again. Events due
        after `until_us` are dropped: those already queued now, later ones
        as they are scheduled. The cyclic garbage collector is paused while
        events run, so it never re-scans a large, long-lived PIT, and left
        as the caller had it. No event makes a reference cycle, so
        reference counting frees whatever the run discards; once `close`
        has run, it frees the whole network too."""
        if self._started:
            raise RuntimeError("Network.run called twice; build a new network instead")
        self._started = True
        self._until = until_us
        heap = self._heap = [event for event in self._heap if event[0] <= until_us]
        heapq.heapify(heap)
        for node_id in sorted(self.nodes):
            self.at(self.now, self.nodes[node_id].start)
        pop = heapq.heappop
        collecting = gc.isenabled()
        gc.disable()
        try:
            while heap:
                self.now, _, fn = pop(heap)
                fn()
        finally:
            if collecting:
                gc.enable()
        self.now = until_us

    def close(self) -> None:
        """Break the reference cycles through a network that has run and
        been sampled for the last time: each node drops its references to
        the network (`detach`), and each port its receivers, which refer
        to the ports of the link's other ends. The nodes, their stats and
        the ports' audit counts stay readable. Then dropping the last
        reference to the network frees it and every node without the
        cyclic collector."""
        for node in self.nodes.values():
            node.detach()
        for ports in self._ports.values():
            for port in ports.values():
                port.receivers = ()

    # -- invariants -------------------------------------------------------------------------

    def flow_balance_violations(self) -> list[tuple[str, int, int, int]]:
        """(node, iface, data_out, interests_in) wherever a router or
        producer pushed more data out an interface than it was asked for."""
        bad = []
        for node_id in sorted(self._ports):
            if self.nodes[node_id].role() in ("router", "compromised-router", "producer"):
                for iface, port in sorted(self._ports[node_id].items()):
                    if port.data_out > port.interests_in:
                        bad.append((node_id, iface, port.data_out, port.interests_in))
        return bad

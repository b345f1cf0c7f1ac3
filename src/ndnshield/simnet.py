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
the same way for every node, and every node sends through its `emit`.
`send_from` only reserves the link and schedules the delivery;
it never calls a handler, so a node may send at the point it decides to
without another node's handler running in between. A delivery calls the
receiving node's handler and nothing else.

Dispatch on the packet kind happens once per send: `send_from` tests
whether the packet is an interest and queues the matching delivery
function. `_deliver_interest` counts the interest into the flow-balance
audit and calls `on_interest`; `_deliver_data` calls `on_data`, or
`on_broadcast_data` on a shared segment for a node that has it. No
handler tests the kind again. Every send still goes through `at`, the one
entry point of every event.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

from .metrics import COUNTER_COLUMNS
from .packets import DataPacket, Interest, wire_size


@dataclass
class IfaceInfo:
    iface: int
    bandwidth_bps: float
    link_key: bytes


class NodeBase:
    """A party on the network: it receives interests and data on its
    interfaces, and sends through `emit(iface, pkt)` and schedules through
    `after(delay_us, fn)`. `Network.add_node` binds both; a node built
    without a network discards what it sends and never runs what it
    schedules, and tests substitute ones that record."""

    def __init__(self, node_id: str):
        self.id = node_id
        self.stats = dict.fromkeys(COUNTER_COLUMNS, 0)
        self.ifaces: dict[int, IfaceInfo] = {}
        self.net: Network | None = None
        self.after: Callable[[int, Callable[[], None]], None] = lambda delay_us, fn: None
        self.emit: Callable[[int, object], None] = lambda iface, pkt: None

    def attach_iface(self, info: IfaceInfo) -> None:
        self.ifaces[info.iface] = info

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
        return min(self.ifaces)


@dataclass
class LinkSpec:
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
        self._busy: dict[str, int] = {}  # per-sender for p2p
        self._busy_shared = 0  # whole medium for broadcast

    def reserve(self, sender: str, ser_us: int, now: int) -> int:
        """Reserve the medium for one frame; returns its arrival time at
        the receivers."""
        spec = self.spec
        if spec.broadcast:
            # The medium is held through propagation so a deferred sender
            # only starts after everyone has heard the previous frame.
            start = max(now, self._busy_shared)
            arrival = self._busy_shared = start + ser_us + spec.delay_us
        else:
            busy = self._busy
            start = busy.get(sender, now)
            if start < now:
                start = now
            busy[sender] = start + ser_us
            arrival = start + ser_us + spec.delay_us
        return arrival


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
        # (node, iface) -> (link, receivers): every other endpoint of the
        # link in sorted order, as (node id, node, its own iface on the link,
        # whether it takes data through `on_broadcast_data`).
        self._ports: dict[tuple[str, int], tuple[Link, tuple]] = {}
        self._iface_to: dict[tuple[str, str], int] = {}  # (node, peer) -> lowest iface
        self._iface_count: dict[str, int] = {}
        self._started = False
        # Flow-balance audit: per (node, iface) interests in and data out.
        self.audit_interests_in: dict[tuple[str, int], int] = {}
        self.audit_data_out: dict[tuple[str, int], int] = {}

    # -- topology wiring -------------------------------------------------------

    def add_node(self, node: NodeBase) -> None:
        if node.id in self.nodes:
            raise ValueError(f"duplicate node id {node.id!r}")
        self.nodes[node.id] = node
        node.net = self
        node.after = self.after
        node.emit = partial(self.send_from, node.id)
        self._iface_count[node.id] = 0

    def add_link(self, spec: LinkSpec) -> Link:
        link = Link(spec, key=self.rng.spawn(f"link:{len(self.links)}").bytes(32))
        self.links.append(link)
        ifaces = []
        own_iface: dict[str, int] = {}  # an endpoint's first iface on this link
        for endpoint in spec.endpoints:
            node = self.nodes[endpoint]
            iface = self._iface_count[endpoint]
            self._iface_count[endpoint] = iface + 1
            ifaces.append(iface)
            own_iface.setdefault(endpoint, iface)
            for peer in spec.endpoints:
                self._iface_to.setdefault((endpoint, peer), iface)
            node.attach_iface(IfaceInfo(iface, spec.bandwidth_bps, link.key))
        receivers_of = [
            (r, self.nodes[r], own_iface[r],
             spec.broadcast and hasattr(self.nodes[r], "on_broadcast_data"))
            for r in sorted(spec.endpoints)
        ]
        for sender, iface in zip(spec.endpoints, ifaces):
            receivers = tuple(receiver for receiver in receivers_of if receiver[0] != sender)
            self._ports[(sender, iface)] = (link, receivers)
            self.audit_interests_in[(sender, iface)] = self.audit_data_out[(sender, iface)] = 0
        return link

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
        seq = self.reserve(count)
        k = 0
        t = start

        def fire() -> None:
            nonlocal k, t
            fn(k)
            k += 1
            t += period
            if k < count:
                self.push(int(t), seq + k, fire)

        if count:
            self.push(int(start), seq, fire)

    def every(self, interval_us: int, fn: Callable[[int], None]) -> None:
        def tick():
            fn(self.now)
            self.after(interval_us, tick)

        self.after(interval_us, tick)

    # -- transmission ---------------------------------------------------------------

    def send_from(self, sender: str, iface: int, pkt) -> None:
        port = self._ports.get((sender, iface))
        if port is None:
            raise KeyError(f"node {sender!r} has no interface {iface}")
        link, receivers = port
        if isinstance(pkt, Interest):
            if pkt.scope is not None and pkt.scope <= 1:
                raise ValueError("scope 0/1 interests never leave the originating host")
            deliver = self._deliver_interest
        else:
            self.audit_data_out[(sender, iface)] += 1
            deliver = self._deliver_data
        ser_us = math.ceil(wire_size(pkt) * 8 * 1e6 / link.spec.bandwidth_bps)
        self.at(link.reserve(sender, ser_us, self.now), partial(deliver, receivers, pkt))

    def _deliver_interest(self, receivers: tuple, interest: Interest) -> None:
        now = self.now
        audit = self.audit_interests_in
        for receiver, node, iface, _ in receivers:
            audit[(receiver, iface)] += 1
            node.on_interest(iface, interest, now)

    def _deliver_data(self, receivers: tuple, data: DataPacket) -> None:
        """Every receiver of a data frame; on a shared segment, through the
        broadcast handler of those that have one."""
        now = self.now
        for _, node, iface, on_broadcast in receivers:
            if on_broadcast:
                node.on_broadcast_data(iface, data, now)
            else:
                node.on_data(iface, data, now)

    # -- main loop -------------------------------------------------------------------------

    def run(self, until_us: int) -> None:
        """Start every node and process events up to `until_us`. A network
        runs once: a second call would start every node again. Events due
        after `until_us` are dropped: those already queued now, later ones
        as they are scheduled."""
        if self._started:
            raise RuntimeError("Network.run called twice; build a new network instead")
        self._started = True
        self._until = until_us
        heap = self._heap = [event for event in self._heap if event[0] <= until_us]
        heapq.heapify(heap)
        for node_id in sorted(self.nodes):
            self.at(self.now, self.nodes[node_id].start)
        pop = heapq.heappop
        while heap:
            self.now, _, fn = pop(heap)
            fn()
        self.now = until_us

    # -- invariants -------------------------------------------------------------------------

    def flow_balance_violations(self) -> list[tuple[str, int, int, int]]:
        """(node, iface, data_out, interests_in) wherever a router or
        producer pushed more data out an interface than it was asked for."""
        bad = []
        for (node_id, iface), data_out in sorted(self.audit_data_out.items()):
            node = self.nodes[node_id]
            if node.role() in ("router", "compromised-router", "producer"):
                asked = self.audit_interests_in[(node_id, iface)]
                if data_out > asked:
                    bad.append((node_id, iface, data_out, asked))
        return bad

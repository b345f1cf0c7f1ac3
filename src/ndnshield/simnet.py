"""Deterministic discrete-event network engine.

Time is integer microseconds. Events execute in (time, sequence) order
where sequence is a global scheduling counter, so a (scenario, seed) pair
fully determines the trace. Links are lossless store-and-forward queues;
on shared segments transmissions serialize and every other endpoint hears
each frame, which is what the overhear-suppression rule needs.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Optional

from .packets import DataPacket, Interest, wire_size
from .router import CancelSends, Drop, IfaceInfo, Router, SendData, SendInterest

MS = 1000


@dataclass(order=True)
class Event:
    time: int
    seq: int
    kind: str = field(compare=False)
    fn: Callable[[], None] = field(compare=False)


@dataclass
class LinkSpec:
    endpoints: tuple[str, ...]
    bandwidth_bps: float
    delay_us: int
    broadcast: bool = False


class Link:
    def __init__(self, link_id: int, spec: LinkSpec, key: bytes):
        if spec.broadcast:
            if len(spec.endpoints) < 2:
                raise ValueError("broadcast link needs at least 2 endpoints")
        elif len(spec.endpoints) != 2:
            raise ValueError("point-to-point link needs exactly 2 endpoints")
        self.id = link_id
        self.spec = spec
        self.key = key
        self._busy: dict[str, int] = {}  # per-sender for p2p
        self._busy_shared = 0  # whole medium for broadcast

    def reserve(self, sender: str, ser_us: int, now: int) -> tuple[int, int]:
        """Returns (transmission start, arrival time at receivers)."""
        if self.spec.broadcast:
            # The medium is held through propagation so a deferred sender
            # only starts after everyone has heard the previous frame.
            start = max(now, self._busy_shared)
            arrival = start + ser_us + self.spec.delay_us
            self._busy_shared = arrival
        else:
            start = max(now, self._busy.get(sender, 0))
            self._busy[sender] = start + ser_us
            arrival = start + ser_us + self.spec.delay_us
        return start, arrival


class SendHandle:
    __slots__ = ("cancelled", "delivered")

    def __init__(self):
        self.cancelled = False
        self.delivered = False


class Network:
    """One simulation instance: topology, clock, event queue, audit trail."""

    def __init__(self, rng):
        self.rng = rng
        self.now = 0
        self._seq = 0
        self._heap: list[Event] = []
        self.nodes: dict[str, object] = {}
        self.links: list[Link] = []
        self._ifaces: dict[tuple[str, int], Link] = {}
        self._iface_count: dict[str, int] = {}
        self._cancel_registry: dict[tuple[str, tuple], list[SendHandle]] = {}
        self._started = False
        # Flow-balance audit: per (node, iface) interests in and data out.
        self.audit_interests_in: Counter = Counter()
        self.audit_data_out: Counter = Counter()

    # -- topology wiring -------------------------------------------------------

    def add_node(self, node) -> None:
        if node.id in self.nodes:
            raise ValueError(f"duplicate node id {node.id!r}")
        self.nodes[node.id] = node
        node.net = self
        self._iface_count[node.id] = 0
        if isinstance(node, Router):
            node.after = self.after
            node.emit = lambda iface, pkt, _id=node.id: self.send_from(_id, iface, pkt)

    def add_link(self, spec: LinkSpec) -> Link:
        link = Link(len(self.links), spec, key=self.rng.spawn(f"link:{len(self.links)}").bytes(32))
        self.links.append(link)
        for endpoint in spec.endpoints:
            node = self.nodes[endpoint]
            iface = self._iface_count[endpoint]
            self._iface_count[endpoint] = iface + 1
            self._ifaces[(endpoint, iface)] = link
            info = IfaceInfo(
                iface=iface,
                link_id=link.id,
                bandwidth_bps=spec.bandwidth_bps,
                delay_us=spec.delay_us,
                broadcast=spec.broadcast,
                link_key=link.key,
                peers=tuple(e for e in spec.endpoints if e != endpoint),
            )
            node.attach_iface(info)
        return link

    def iface_to(self, node_id: str, peer_id: str) -> int:
        """The lowest-numbered interface of node_id on a link shared with peer."""
        for (nid, iface), link in self._ifaces.items():
            if nid == node_id and peer_id in link.spec.endpoints:
                return iface
        raise KeyError(f"{node_id} has no link to {peer_id}")

    # -- clock -------------------------------------------------------------------

    def at(self, time_us: int, fn: Callable[[], None], kind: str = "timer") -> None:
        if time_us < self.now:
            raise ValueError("cannot schedule into the past")
        self._seq += 1
        heapq.heappush(self._heap, Event(time_us, self._seq, kind, fn))

    def after(self, delay_us: int, fn: Callable[[], None], kind: str = "timer") -> None:
        self.at(self.now + delay_us, fn, kind)

    def every(self, interval_us: int, fn: Callable[[int], None], kind: str = "wakeup") -> None:
        def tick():
            fn(self.now)
            self.after(interval_us, tick, kind)

        self.after(interval_us, tick, kind)

    # -- transmission ---------------------------------------------------------------

    def send_from(self, sender: str, iface: int, pkt) -> Optional[SendHandle]:
        link = self._ifaces.get((sender, iface))
        if link is None:
            raise KeyError(f"node {sender!r} has no interface {iface}")
        if isinstance(pkt, Interest) and pkt.scope is not None and pkt.scope <= 1:
            raise ValueError("scope 0/1 interests never leave the originating host")
        ser_us = int(math.ceil(wire_size(pkt) * 8 * 1e6 / link.spec.bandwidth_bps))
        _, arrival = link.reserve(sender, ser_us, self.now)
        handle = SendHandle()
        if isinstance(pkt, DataPacket):
            self.audit_data_out[(sender, iface)] += 1
        receivers = tuple(e for e in sorted(link.spec.endpoints) if e != sender)
        self.at(arrival, lambda: self._deliver(link, sender, receivers, pkt, handle), "deliver")
        return handle

    def _deliver(self, link: Link, sender: str, receivers: tuple[str, ...], pkt, handle) -> None:
        if handle.cancelled:
            return
        handle.delivered = True
        for receiver in receivers:
            node = self.nodes[receiver]
            iface = self._iface_of(receiver, link)
            if isinstance(pkt, Interest):
                self.audit_interests_in[(receiver, iface)] += 1
                actions = node.on_packet(iface, pkt, self.now)
            elif link.spec.broadcast and hasattr(node, "on_broadcast_packet"):
                actions = node.on_broadcast_packet(iface, pkt, self.now)
            else:
                actions = node.on_packet(iface, pkt, self.now)
            self.apply(receiver, actions)

    def _iface_of(self, node_id: str, link: Link) -> int:
        for (nid, iface), lk in self._ifaces.items():
            if nid == node_id and lk is link:
                return iface
        raise KeyError(f"{node_id} not on link {link.id}")

    # -- actions -----------------------------------------------------------------------

    def apply(self, node_id: str, actions) -> None:
        if not actions:
            return
        for action in actions:
            if isinstance(action, SendInterest):
                self.send_from(node_id, action.iface, action.interest)
            elif isinstance(action, SendData):
                handle = self.send_from(node_id, action.iface, action.data)
                link = self._ifaces[(node_id, action.iface)]
                if action.entry_key is not None and link.spec.broadcast and handle:
                    self._cancel_registry.setdefault(
                        (node_id, action.entry_key), []
                    ).append(handle)
            elif isinstance(action, CancelSends):
                for handle in self._cancel_registry.pop((node_id, action.entry_key), []):
                    if not handle.delivered:
                        handle.cancelled = True
            elif isinstance(action, Drop):
                pass  # already counted by the node that dropped it
            else:
                raise TypeError(f"unknown action {action!r}")

    # -- main loop -------------------------------------------------------------------------

    def run(self, until_us: int) -> None:
        """Start every node and process events up to `until_us`. A network
        runs once: a second call would start every node again."""
        if self._started:
            raise RuntimeError("Network.run called twice; build a new network instead")
        self._started = True
        for node_id in sorted(self.nodes):
            node = self.nodes[node_id]
            if hasattr(node, "start"):
                self.at(self.now, node.start, "wakeup")
        while self._heap and self._heap[0].time <= until_us:
            event = heapq.heappop(self._heap)
            self.now = event.time
            event.fn()
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

"""The scenario sections that have no config type of their own.

Links, FIB routes, pre-seeded cache entries and producers' catalogs are
read (by `schema.Reader`, see `scenario`) into the dataclasses below:
their fields are the sections' keys, and their own checks raise
`schema.Invalid` at the key that fails. Node ids are annotated with the
roles they may name, and checked once every node's role is known.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Annotated, Optional

from .attacks import build_keylocator_abuse_content
from .crypto import KeyPair
from .nodes import Producer, StaticCollection
from .packets import Name, is_control_name
from .schema import Invalid, NonNegative, Reader
from .simnet import LinkSpec


@dataclass(frozen=True)
class NodeRef:
    """Type metadata for node ids: each must name a node in one of `roles`
    (any node, when no role is given)."""

    roles: tuple[str, ...] = ()

    def check(self, chk: "Check", ids, path: str) -> None:
        for node_id in [ids] if isinstance(ids, str) else ids:
            role = chk.roles.get(node_id)
            if role is None:
                chk.fail(path, f"unknown node {node_id!r}")
            elif self.roles and role not in self.roles:
                chk.fail(path, f"{node_id!r} is not a {' or '.join(self.roles)} node")


ANY_NODE = NodeRef()
PRODUCER = NodeRef(("producer",))
ZOMBIE = NodeRef(("zombie",))
ROUTER = NodeRef(("router",))
ANY_ROUTER = NodeRef(("router", "compromised-router"))


class Check(Reader):
    """A Reader that knows each node's role (id -> role), for NodeRef checks."""

    def __init__(self):
        super().__init__()
        self.roles: dict[str, str] = {}


@dataclass
class LinkEntry:
    endpoints: Annotated[list[str], ANY_NODE]
    bandwidth_mbps: float
    delay_ms: float
    kind: str = "p2p"

    def __post_init__(self):
        if self.kind not in ("p2p", "broadcast"):
            raise Invalid("kind", "kind is p2p or broadcast")
        if self.kind == "p2p" and len(self.endpoints) != 2:
            raise Invalid("endpoints", "p2p links have exactly 2 endpoints")
        if len(self.endpoints) < 2:
            raise Invalid("endpoints", "broadcast links have at least 2 endpoints")
        if len(set(self.endpoints)) != len(self.endpoints):
            raise Invalid("endpoints", "must list each node once")
        if self.bandwidth_mbps <= 0:
            raise Invalid("bandwidth_mbps", "must be positive")
        if self.delay_ms < 0:
            raise Invalid("delay_ms", "must be non-negative")

    def spec(self) -> LinkSpec:
        return LinkSpec(
            endpoints=tuple(self.endpoints),
            bandwidth_bps=float(self.bandwidth_mbps) * 1e6,
            delay_us=int(round(float(self.delay_ms) * 1000)),
            broadcast=self.kind == "broadcast",
        )


@dataclass
class RouteEntry:
    prefix: Name
    next_hops: Annotated[list[str], ANY_NODE]

    def __post_init__(self):
        if is_control_name(self.prefix):
            raise Invalid("prefix", "reserved namespaces are never routed")
        if not self.next_hops:
            raise Invalid("next_hops", "must not be empty")


@dataclass
class PreseedEntry:
    routers: Annotated[list[str], ANY_ROUTER]
    producer: Annotated[str, PRODUCER]
    name: str
    corrupt: bool = False
    trust: Optional[float] = None  # None: the content store's default

    def __post_init__(self):
        self.parsed = Name.parse(self.name)


@dataclass
class CollectionEntry:
    name: str
    fragments: int
    window: int
    payload_size_bytes: Optional[Annotated[int, NonNegative]] = None  # None: the producer's

    def __post_init__(self):
        for key in ("fragments", "window"):
            if getattr(self, key) < 1:
                raise Invalid(key, "must be >= 1")


@dataclass
class AbuseEntry:
    target_producer: Annotated[str, PRODUCER]
    count: int
    collection: str

    def __post_init__(self):
        if self.count < 1:
            raise Invalid("count", "must be >= 1")


@dataclass
class ProducerEntry:
    id: str
    role: str
    prefix: Name
    collections: tuple[CollectionEntry, ...] = ()
    static_names: tuple[str, ...] = ()
    dynamic_prefix: Optional[str] = None  # relative to prefix
    payload_size_bytes: Optional[Annotated[int, NonNegative]] = None
    abuse: Optional[AbuseEntry] = None

    def __post_init__(self):
        if is_control_name(self.prefix):
            raise Invalid("prefix", "reserved namespace")
        self.static = [self.prefix.child(item) for item in self.static_names]
        self.kwargs = {}  # for Producer, over the defaults block's
        if self.dynamic_prefix is not None:
            self.kwargs["dynamic_prefix"] = self.prefix.join(Name.parse("/" + self.dynamic_prefix))
        if self.payload_size_bytes is not None:
            self.kwargs["payload_size"] = self.payload_size_bytes

    def serves(self, collection: str) -> bool:
        return collection in [c.name for c in self.collections] or (
            self.abuse is not None and collection == self.abuse.collection
        )

    def build(self, key: KeyPair, kwargs: dict) -> Producer:
        """The producer, with its collections and static names signed."""
        producer = Producer(self.id, self.prefix, key, **kwargs)
        for col in self.collections:
            size = col.payload_size_bytes
            body = b"\x00" * (producer.payload_size if size is None else size)
            producer.add_collection(col.name.encode(), [body] * col.fragments, col.window)
        for name in self.static:
            producer.add_static_item(name, b"\x00" * producer.payload_size)
        return producer

    def add_abuse_catalog(self, producer: Producer, victim: Producer) -> None:
        """Content naming keys under the victim's prefix that do not exist."""
        collection = self.abuse.collection.encode()
        base = producer.prefix.child(collection)
        packets = build_keylocator_abuse_content(
            base, victim.prefix, self.abuse.count, producer.key, payload_size=producer.payload_size
        )
        producer.collections[collection] = StaticCollection(base, window=1, packets=packets)
        for pkt in packets:
            producer.add_static_packet(pkt)

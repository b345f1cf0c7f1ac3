"""Attack traffic generators.

Covers the three interest-flooding families (existing/static content,
dynamically generated content, and three constructions of unsatisfiable
interests), the key-locator abuse that turns honest consumers into
unwitting zombies, and the two content-poisoning postures (live injection
by a compromised router, and anticipation of predictable names to
pre-poison caches).
"""

from __future__ import annotations

from typing import Annotated, Optional

from .crypto import KeyPair, sign_packet
from .nodes import encode_fragment_payload
from .packets import INTEREST_LIFETIME_MS, MS, BloomExclude, DataPacket, Interest, KeyName, Name
from .schema import Invalid, NonNegative, OneOf, Positive, Record
from .simnet import NodeBase

FLOOD_STATIC = "flood-static"
FLOOD_DYNAMIC = "flood-dynamic"
FLOOD_UNSAT_NONCE = "flood-unsat-nonce"
FLOOD_UNSAT_KEYDIGEST = "flood-unsat-keydigest"
FLOOD_UNSAT_EXCLUDE = "flood-unsat-exclude"
KEYLOCATOR_ABUSE = "keylocator-abuse"
POISON_INJECT = "poison-inject"
POISON_ANTICIPATE = "poison-anticipate"

FLOOD_KINDS = (
    FLOOD_STATIC,
    FLOOD_DYNAMIC,
    FLOOD_UNSAT_NONCE,
    FLOOD_UNSAT_KEYDIGEST,
    FLOOD_UNSAT_EXCLUDE,
)
ATTACK_KINDS = FLOOD_KINDS + (KEYLOCATOR_ABUSE, POISON_INJECT, POISON_ANTICIPATE)


class AttackSpec(Record, frozen=True):
    kind: Annotated[str, OneOf(*ATTACK_KINDS)]
    zombies: tuple[str, ...]
    target_prefix: Name
    rate_per_s: Annotated[float, Positive] = 1.0
    start_ms: Annotated[int, NonNegative] = 0
    stop_ms: int = 1
    name_pool: tuple[Name, ...] = ()  # flood-static / flood-unsat-keydigest
    dynamic_under: Optional[Name] = None  # flood-dynamic
    content_names: tuple[Name, ...] = ()  # poison-anticipate
    jitter_ms: Annotated[int, NonNegative] = 50
    lifetime_ms: Annotated[int, Positive] = INTEREST_LIFETIME_MS

    def __post_init__(self):
        if self.start_ms >= self.stop_ms:
            raise Invalid("stop_ms", "attack start must precede stop")
        if self.kind == FLOOD_STATIC and not self.name_pool:
            raise ValueError("flood-static needs a pool of existing content names")
        if self.kind == FLOOD_DYNAMIC and self.dynamic_under is None:
            raise ValueError("flood-dynamic needs the dynamic namespace")
        if self.kind == POISON_ANTICIPATE and not self.content_names:
            raise ValueError("poison-anticipate needs the anticipated content names")


def gen_flood_interest(spec: AttackSpec, rng, seq: int, zombie_id: str = "z") -> Interest:
    """The seq-th interest a zombie emits for a flooding spec."""
    lifetime = spec.lifetime_ms
    nonce = rng.u64()
    if spec.kind == FLOOD_STATIC:
        name = spec.name_pool[seq % len(spec.name_pool)]
        return Interest(name, nonce, lifetime_ms=lifetime, attack=True)
    if spec.kind == FLOOD_DYNAMIC:
        name = spec.dynamic_under.child(f"{zombie_id}-{seq}".encode())
        return Interest(name, nonce, lifetime_ms=lifetime, attack=True)
    if spec.kind == FLOOD_UNSAT_NONCE:
        name = spec.target_prefix.child(rng.bytes(16).hex().encode())
        return Interest(name, nonce, lifetime_ms=lifetime, attack=True)
    if spec.kind == FLOOD_UNSAT_KEYDIGEST:
        pool = spec.name_pool or (spec.target_prefix,)
        name = pool[seq % len(pool)]
        return Interest(
            name, nonce, publisher_key_digest=rng.bytes(32), lifetime_ms=lifetime, attack=True
        )
    if spec.kind == FLOOD_UNSAT_EXCLUDE:
        return Interest(
            spec.target_prefix,
            nonce,
            exclude=BloomExclude.all_ones(),
            lifetime_ms=lifetime,
            attack=True,
        )
    raise ValueError(f"{spec.kind} is not a flooding kind")


def build_keylocator_abuse_content(
    base: Name,
    target_producer_prefix: Name,
    n_packets: int,
    adversary_key: KeyPair,
    payload_size: int = 1024,
) -> list[DataPacket]:
    """Validly-signed content whose packets each name a distinct
    non-existent verification key under the victim's prefix. Consumers that
    fetch this content emit key interests that converge on the victim; the
    pool size bounds the PIT state they can ever occupy there."""
    if n_packets < 1:
        raise ValueError("need at least one packet")
    packets = []
    body = b"\x00" * payload_size
    for j in range(1, n_packets + 1):
        locator = KeyName(target_producer_prefix.child(b"keys").child(b"%d" % j))
        payload = encode_fragment_payload([], body)
        packets.append(sign_packet(base.child(b"%d" % j), payload, adversary_key, locator))
    return packets


class Zombie(NodeBase):
    """An adversary-controlled host emitting interests per attack spec.

    Flood interests leave at exact 1/rate spacing (with a random phase) so
    steady-state PIT occupancy tracks rate x lifetime; anticipation
    interests go out near-simultaneously inside the jitter window.
    """

    def __init__(self, node_id: str, rng, specs: list[AttackSpec]):
        super().__init__(node_id)
        self.rng = rng
        self.specs = specs

    def role(self) -> str:
        return "zombie"

    def start(self) -> None:
        for spec in self.specs:
            if spec.kind in FLOOD_KINDS:
                self._schedule_flood(spec)
            elif spec.kind == POISON_ANTICIPATE:
                self._schedule_anticipate(spec)
            # poison-inject has no zombie-side traffic: the compromised
            # router answers interests that already exist.

    def _schedule_flood(self, spec: AttackSpec) -> None:
        period = 1e6 / spec.rate_per_s
        phase = self.rng.uniform(0, period)
        # Resolved once per spec: a zombie's links are fixed before it starts.
        rng, node_id, stats = self.rng, self.id, self.stats
        emit, iface = self.emit, self.default_iface()

        def send(seq: int) -> None:
            interest = gen_flood_interest(spec, rng, seq, zombie_id=node_id)
            stats["interests_sent"] += 1
            emit(iface, interest)

        self.net.periodic(spec.start_ms * MS + phase, period, spec.stop_ms * MS, send)

    def _schedule_anticipate(self, spec: AttackSpec) -> None:
        for name in spec.content_names:
            delay = self.rng.uniform(0, spec.jitter_ms * MS)

            def send(name=name):
                interest = Interest(
                    name,
                    self.rng.u64(),
                    lifetime_ms=spec.lifetime_ms,
                    attack=True,
                )
                self.stats["interests_sent"] += 1
                self.emit(self.default_iface(), interest)

            self.net.at(spec.start_ms * MS + int(delay), send)

    def on_data(self, iface: int, data: DataPacket, now: int) -> None:
        self.stats["data_received"] += 1

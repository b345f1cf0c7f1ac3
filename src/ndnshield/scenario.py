"""Scenario ingestion: strict schema validation and network construction.

Scenarios are JSON documents (or already-parsed dicts). Every section is
validated once, by a `schema.Reader`, into the objects it configures: the
config types (`RouterConfig`, `FloodingConfig`, `PoisoningConfig`,
`AttackSpec`, ...), the node constructors' arguments, and the types in
`sections` for the sections that have neither. Their fields are the
section's keys and their defaults the only defaults; `build_sim` builds
from those objects alone. A scenario may define named *arms* (JSON merge
patches over the base document), which is how defended/undefended
comparisons stay in one file.
"""

from __future__ import annotations

import copy
import json
import typing
from typing import Annotated, Any, Optional

from .attacks import KEYLOCATOR_ABUSE, POISON_INJECT, AttackSpec, Zombie
from .crypto import KeyPair, forge_packet, sign_packet
from .flooding import FloodingConfig, FloodingDefense
from .metrics import MetricsCollector
from .nodes import (
    MODE_COMBINED,
    MODE_DSCID,
    MODE_SSCID,
    CollectionConsumer,
    CompromisedRouter,
    Producer,
    RequestConsumer,
)
from .packets import MS
from .poisoning import (
    MODE_DISJOINT_HMAC,
    MODE_OFF,
    ConsumerFeedbackConfig,
    NeighborFeedbackConfig,
    PoisoningConfig,
    PoisoningGuard,
    VerifierConfig,
)
from .rand import MAX_SEED, Rng
from .router import Router, RouterConfig
from .schema import BAD, AtMost, Factory, NonNegative, Positive, Record, fields_of
from .sections import (
    ANY_ROUTER,
    PRODUCER,
    ROUTER,
    ZOMBIE,
    Check,
    LinkEntry,
    PreseedEntry,
    ProducerEntry,
    RouteEntry,
)
from .simnet import LinkSpec, Network

ROLES = ("consumer", "producer", "router", "zombie", "compromised-router")

# Each key of the scenario-wide `defaults` block, and the fields (of config
# types and node constructors) whose default it overrides.
DEFAULTS = {
    "interest_lifetime_ms": ("lifetime_ms", "interest_timeout_ms"),
    "payload_size_bytes": ("payload_size",),
    "avg_content_size_bytes": ("avg_content_size_bytes",),
    "verify_service_us": ("verify_service_us",),
    "sign_service_us": ("sign_service_us",),
    "static_service_us": ("static_service_us",),
    "pit_sweep_interval_ms": ("pit_sweep_interval_ms",),
    "pit_capacity": ("pit_capacity",),
    "cs_capacity": ("cs_capacity",),
}
PIT_SWEEP_INTERVAL_MS = 100  # no config type holds this one
# The types whose fields the `defaults` block overrides (through `_inherit`).
_INHERITORS = (RouterConfig, Producer, RequestConsumer, CollectionConsumer, AttackSpec,
               FloodingConfig, PoisoningConfig)
# The bound of the one `defaults` key that overrides no field.
_DEFAULT_BOUNDS = {"pit_sweep_interval_ms": (Positive,)}


def _default_bounds(key: str) -> tuple:
    """The checks a `defaults` key must pass: those annotated on the fields
    it overrides, or its entry in `_DEFAULT_BOUNDS`."""
    hints = [fields_of(target)[0].get(name) for target in _INHERITORS for name in DEFAULTS[key]]
    checks = [c for h in hints if typing.get_origin(h) is Annotated for c in h.__metadata__]
    return tuple(dict.fromkeys(checks)) or _DEFAULT_BOUNDS.get(key, ())


class ScenarioError(ValueError):
    def __init__(self, violations: list[str]):
        self.violations = violations
        super().__init__("; ".join(violations))


def _inherit(inherited: dict, target) -> dict:
    """The `defaults` block's values for the fields of `target`."""
    return {name: value for name, value in inherited.items() if name in fields_of(target)[0]}


def _merge_patch(base: Any, patch: Any) -> Any:
    if isinstance(base, dict) and isinstance(patch, dict):
        merged = dict(base)
        for key, value in patch.items():
            if value is None:
                merged.pop(key, None)
            else:
                merged[key] = _merge_patch(base.get(key), value)
        return merged
    return copy.deepcopy(patch)


class _Plan(Record):
    """One validated document: the objects build_sim builds from."""

    duration_ms: int
    metrics_tick_ms: int
    sweep_ms: int
    producers: dict[str, tuple[ProducerEntry, dict]]  # with Producer's keyword arguments
    nodes: list[tuple[str, str, Any]]  # (id, role, what the role builds from)
    links: list[LinkSpec]
    fib: dict[str, list[RouteEntry]]
    preseed: list[PreseedEntry]
    attacks: list[AttackSpec]


class Scenario(Record, not_shown=("plans",)):
    doc: dict
    name: str
    duration_ms: Annotated[int, Positive]
    metrics_tick_ms: Annotated[int, Positive] = 100
    seed: Annotated[int, NonNegative, AtMost(MAX_SEED)] = 1
    arms: dict[str, dict] = Factory(dict)
    # The base document (None) and each arm, validated.
    plans: dict[Optional[str], _Plan] = Factory(dict)

    def arm_doc(self, arm: Optional[str]) -> dict:
        if arm is None:
            return self.doc
        if arm not in self.arms:
            raise KeyError(f"scenario has no arm {arm!r}")
        merged = _merge_patch(self.doc, self.arms[arm])
        merged.pop("arms", None)
        return merged

    def arm_names(self) -> list[str]:
        return sorted(self.arms)


_SECTIONS = {
    "defaults": dict[str, int],
    "nodes": Any,
    "links": list[LinkEntry],
    "fib": dict[Annotated[str, ANY_ROUTER], list[RouteEntry]],
    "preseed_cache": list[PreseedEntry],
    "attacks": Any,
    "flooding_defense": Any,
    "poisoning_defense": Any,
}


def load_scenario(document) -> Scenario:
    """Validate a JSON text or dict; raises ScenarioError listing every
    violation found, not just the first."""
    if isinstance(document, str):
        try:
            doc = json.loads(document)
        except json.JSONDecodeError as exc:
            raise ScenarioError([f"$: invalid JSON ({exc})"]) from None
    else:
        doc = copy.deepcopy(document)
    if not isinstance(doc, dict):
        raise ScenarioError(["$: scenario must be an object"])
    scenario = _validate(doc)
    # Every arm must itself merge into a valid scenario.
    for arm_name in scenario.arm_names():
        try:
            scenario.plans[arm_name] = _validate(scenario.arm_doc(arm_name)).plans[None]
        except ScenarioError as exc:
            raise ScenarioError([f"$.arms.{arm_name}{v[1:]}" for v in exc.violations]) from None
    return scenario


def _validate(doc: dict) -> Scenario:
    chk = Check()
    nodes = _identify(chk, doc.get("nodes", []))
    top = chk.fields(doc, "$", Scenario, hidden=("doc", "plans"), extra=_SECTIONS,
                     required=("name", "duration_ms", "nodes", "links"))
    sections = {key: top.pop(key) for key in _SECTIONS if key in top}
    block = sections.get("defaults", {})
    chk.keys(block, "$.defaults", DEFAULTS)
    for key in DEFAULTS:
        if key in block:
            for bound in _default_bounds(key):
                bound.check(chk, block[key], f"$.defaults.{key}")
    inherited = {name: block[key] for key in DEFAULTS if key in block for name in DEFAULTS[key]}
    links = [link.spec() for link in sections.get("links", [])]
    fib = sections.get("fib", {})
    for router, routes in fib.items():
        for idx, route in enumerate(routes):
            if route.prefix in [earlier.prefix for earlier in routes[:idx]]:
                chk.fail(f"$.fib.{router}[{idx}].prefix", "repeats an earlier route's prefix")
            for hop in route.next_hops if "links" in sections else ():
                if not any({router, hop} <= set(link.endpoints) for link in links):
                    path = f"$.fib.{router}[{idx}].next_hops"
                    chk.fail(path, f"no link joins {router!r} to {hop!r}")
    for path, node_id, role, _ in nodes if "links" in sections else ():
        # Consumers and zombies send on the interface their first link gives them.
        if role in ("consumer", "zombie") and not any(node_id in link.endpoints for link in links):
            chk.fail(path, f"no link joins {node_id!r} to the network")
    defenses = (
        _flooding(chk, doc.get("flooding_defense"), inherited),
        _poisoning(chk, doc.get("poisoning_defense"), inherited),
    )
    producers, nodes = _nodes(chk, nodes, inherited, defenses)
    attacks = _attacks(chk, doc.get("attacks", []), producers, inherited)
    if chk.errors:
        raise ScenarioError(chk.errors)
    scenario = Scenario(doc=doc, **top)
    scenario.plans[None] = _Plan(
        duration_ms=scenario.duration_ms,
        metrics_tick_ms=scenario.metrics_tick_ms,
        sweep_ms=inherited.get("pit_sweep_interval_ms", PIT_SWEEP_INTERVAL_MS),
        producers=producers,
        nodes=nodes,
        links=links,
        fib=fib,
        preseed=sections.get("preseed_cache", []),
        attacks=attacks,
    )
    return scenario


def _identify(chk: Check, nodes) -> list[tuple[str, str, str, dict]]:
    """(path, id, role, node) of each node with a valid id and role."""
    valid = []
    for path, node in chk.items(nodes, "$.nodes"):
        node_id, role = chk.get(node, path, "id", str), chk.get(node, path, "role", str)
        if node_id is None or role is None:
            chk.fail(path, "id and role are required")
            continue
        if not node_id.replace("-", "").replace("_", "").isalnum():
            chk.fail(f"{path}.id", "ids are alphanumeric plus - and _")
        if node_id in chk.roles:
            chk.fail(f"{path}.id", f"duplicate node id {node_id!r}")
        if role not in ROLES:
            chk.fail(f"{path}.role", f"unknown role {role!r}")
            continue
        chk.roles[node_id] = role
        valid.append((path, node_id, role, node))
    return valid


def _nodes(chk: Check, nodes: list, inherited: dict, defenses: tuple):
    """Producers, by id, and what every node builds from, in document order."""
    producers = {}
    for path, node_id, role, node in nodes:
        if role == "producer" and (spec := chk.parse(node, path, ProducerEntry)):
            producers[node_id] = spec, {**_inherit(inherited, Producer), **spec.kwargs}
    plans = []
    for path, node_id, role, node in nodes:
        spec = None  # producers and zombies: their specs live elsewhere
        if role == "zombie":
            chk.keys(node, path, ("id", "role"))
        elif role == "consumer":
            spec = _consumer(chk, node, path, producers, inherited)
        elif role != "producer":
            spec = _router(chk, node, path, node_id, role, inherited, defenses)
        plans.append((node_id, role, spec))
    return producers, plans


def _router(chk: Check, node: dict, path: str, node_id: str, role: str, inherited: dict,
            defenses: tuple):
    own, required = {"id": Any, "role": Any}, ()
    if role == "compromised-router":
        hints = fields_of(CompromisedRouter)[0]
        own.update(poison_mode=hints["poison_mode"], target_prefix=hints["target_prefix"],
                   impersonate=Annotated[str, PRODUCER])
        required = ("poison_mode", "target_prefix")
    kwargs = chk.fields(node, path, RouterConfig, extra=own, required=required,
                        base=_inherit(inherited, RouterConfig))
    spec = {key: kwargs.pop(key) for key in own if key in kwargs}
    config = RouterConfig(**kwargs)
    if role == "router":
        return config, *(None if select is None else select(node_id) for select in defenses)
    if spec.get("poison_mode") == "corrupted" and "impersonate" not in spec:
        chk.fail(path, "corrupted mode requires impersonate")
    return {**spec, "config": config}


def _consumer(chk: Check, node: dict, path: str, producers: dict, inherited: dict):
    """(producer id, collection name or None for requests, keyword arguments)."""
    chk.keys(node, path, ("id", "role", "collection", "requests"))
    if ("collection" in node) == ("requests" in node):
        chk.fail(path, "consumer needs exactly one of collection / requests")
        return None
    if "collection" in node:
        cpath = f"{path}.collection"
        kwargs = chk.fields(
            node["collection"], cpath, CollectionConsumer,
            hidden=("node_id", "base", "fragment_count", "trusted_key_digest", "first_hash"),
            extra={"producer": Annotated[str, PRODUCER], "collection": str},
            required=("producer", "collection"), base=_inherit(inherited, CollectionConsumer),
        ) or {}
        producer, collection = kwargs.pop("producer", None), kwargs.pop("collection", None)
        served = producers.get(producer)
        if served and collection is not None and not served[0].serves(collection):
            message = f"producer {producer!r} has no collection {collection!r}"
            chk.fail(f"{cpath}.collection", message)
        return producer, collection, kwargs
    req, rpath = node.get("requests"), f"{path}.requests"
    kwargs = chk.fields(req, rpath, RequestConsumer, hidden=("node_id", "trusted_key_digest"),
                        extra={"trusted_producer": Annotated[str, PRODUCER]},
                        base=_inherit(inherited, RequestConsumer))
    if kwargs is None:
        return None
    for one, other in (("names", "unique_under"), ("at_ms", "rate_per_s")):
        if (one in req) == (other in req):
            chk.fail(rpath, f"needs exactly one of {one} / {other}")
    if "rate_per_s" in req and "stop_ms" not in req:
        chk.fail(rpath, "rate_per_s needs stop_ms")
    elif "rate_per_s" in req and kwargs.get("stop_ms", 0) <= kwargs.get("start_ms", 0):
        # An empty window would load and send nothing.
        chk.fail(f"{rpath}.stop_ms", "request start must precede stop")
    if kwargs.get("mode") == MODE_DSCID and "trusted_producer" not in req:
        chk.fail(rpath, "d-scid mode requires trusted_producer")
    return kwargs.pop("trusted_producer", None), None, kwargs


def _attacks(chk: Check, attacks, producers: dict, inherited: dict) -> list[AttackSpec]:
    specs = []
    for path, attack in chk.items(attacks, "$.attacks"):
        kind = attack.get("kind")
        if kind not in (POISON_INJECT, KEYLOCATOR_ABUSE) and not attack.get("zombies"):
            chk.fail(f"{path}.zombies", "attack needs at least one zombie")
        # These two kinds are enacted by node configuration, not zombie
        # traffic; declaring them without the enacting node is a no-op.
        if kind == POISON_INJECT and "compromised-router" not in chk.roles.values():
            chk.fail(path, "poison-inject needs a compromised-router node")
        if kind == KEYLOCATOR_ABUSE and not any(spec.abuse for spec, _ in producers.values()):
            chk.fail(path, "keylocator-abuse needs a producer with an abuse catalog")
        specs.append(chk.parse(attack, path, AttackSpec,
                               base={"zombies": (), **_inherit(inherited, AttackSpec)},
                               extra={"zombies": Annotated[tuple[str, ...], ZOMBIE]}))
    return specs


def _selector(chk: Check, kwargs: dict, path: str, key: str) -> Optional[frozenset]:
    """The routers a defense's `key` selects; None when it selects them all."""
    chosen = kwargs.pop(key, "all")
    if chosen == "all":
        return None
    if not isinstance(chosen, list):
        chk.fail(f"{path}.{key}", 'must be "all" or a list of router ids')
        return frozenset()
    ids = chk.typed(chosen, Annotated[list[str], ROUTER], f"{path}.{key}")
    return frozenset(() if ids is BAD else ids)


def _flooding(chk: Check, block, inherited: dict):
    """node id -> the FloodingConfig that router runs, or None."""
    path = "$.flooding_defense"
    kwargs = None if block is None else chk.fields(
        block, path, FloodingConfig, hidden=("watched_prefixes",),
        extra={"routers": Any, "quota_routers": Any}, base=_inherit(inherited, FloodingConfig),
    )
    if kwargs is None:
        return None
    routers = _selector(chk, kwargs, path, "routers")
    quota_routers = _selector(chk, kwargs, path, "quota_routers")
    quotas = kwargs.get("namespace_quotas", {})
    config = FloodingConfig(**kwargs, watched_prefixes=tuple(quotas))
    watch_only = config.replace(namespace_quotas={})

    def select(node_id: str) -> Optional[FloodingConfig]:
        if routers is not None and node_id not in routers:
            return None
        return config if quota_routers is None or node_id in quota_routers else watch_only

    return select


def _poisoning(chk: Check, block, inherited: dict):
    """node id -> the PoisoningConfig that router runs, or None."""
    path = "$.poisoning_defense"
    feedback = {"neighbor_feedback": "neighbor", "consumer_feedback": "consumer"}
    kwargs = None if block is None else chk.fields(
        block, path, PoisoningConfig, hidden=("verifier", *feedback.values(), "verify_service_us"),
        extra={"routers": Any, "verification": Any, "neighbor_feedback": NeighborFeedbackConfig,
               "consumer_feedback": ConsumerFeedbackConfig},
        base=_inherit(inherited, PoisoningConfig),
    )
    if kwargs is None:
        return None
    routers = _selector(chk, kwargs, path, "routers")
    for key, name in feedback.items():
        if key in kwargs:
            kwargs[name] = kwargs.pop(key)
    if "verification" in kwargs:
        ver = kwargs.pop("verification")
        # The keyed mode's group key is drawn per run (see build_sim); a
        # stand-in lets the rest of the configuration be checked here.
        keyed = isinstance(ver, dict) and ver.get("mode") == MODE_DISJOINT_HMAC
        kwargs["verifier"] = chk.parse(
            ver, f"{path}.verification", VerifierConfig, hidden=("group_key",), required=("mode",),
            extra={"group": Annotated[tuple[str, ...], ROUTER]},
            base={"group_key": b"\x00"} if keyed else {},
        )
        if kwargs["verifier"] is None:
            return None
    config = PoisoningConfig(**kwargs)
    unverified = config.replace(verifier=VerifierConfig())

    def select(node_id: str) -> Optional[PoisoningConfig]:
        if routers is not None and node_id not in routers:
            return None
        verifier = config.verifier
        if verifier.group and node_id not in verifier.group and verifier.mode != MODE_OFF:
            return unverified
        return config

    return select


class Sim(Record):
    """A built, runnable simulation instance."""

    net: Network
    collector: MetricsCollector
    scenario_name: str
    seed: int
    arm: Optional[str]
    duration_ms: int

    def run(self) -> "Sim":
        """Run the network and take the closing sample; then close the
        network, so that dropping the Sim frees it by reference counting."""
        self.net.run(self.duration_ms * MS)
        self.collector.sample(self.net.now)  # closing sample at end time
        self.net.close()
        return self

    def node(self, node_id: str):
        return self.net.nodes[node_id]


def build_sim(scenario: Scenario, seed: int, arm: Optional[str] = None) -> Sim:
    if arm not in scenario.plans:
        raise KeyError(f"scenario has no arm {arm!r}")
    plan = scenario.plans[arm]
    rng = Rng(seed, f"scenario:{scenario.name}")
    net = Network(rng.spawn("net"))

    # Producers first: consumers and compromised routers reference their keys.
    producers = {
        node_id: spec.build(KeyPair.generate(rng.spawn(f"key:{node_id}")), kwargs)
        for node_id, (spec, kwargs) in plan.producers.items()
    }
    for node_id, (spec, _) in plan.producers.items():
        if spec.abuse is not None:
            spec.add_abuse_catalog(producers[node_id], producers[spec.abuse.target_producer])

    def guard(config: PoisoningConfig, node_id: str) -> PoisoningGuard:
        if config.verifier.mode == MODE_DISJOINT_HMAC:
            group_key = rng.spawn("verifier-group").bytes(32)
            config = config.replace(verifier=config.verifier.replace(group_key=group_key))
        return PoisoningGuard(config, rng.spawn(f"poison:{node_id}"))

    # Build every node in document order.
    for node_id, role, spec in plan.nodes:
        if role == "producer":
            node = producers[node_id]
        elif role == "router":
            config, flooding, poisoning = spec
            node = Router(
                node_id,
                config=config,
                flooding=flooding and FloodingDefense(flooding, rng.spawn(f"flood:{node_id}")),
                poisoning=poisoning and guard(poisoning, node_id),
            )
        elif role == "compromised-router":
            honest = producers.get(spec.get("impersonate"))
            # Only fake mode signs; corrupted mode forges the honest key.
            fake = spec["poison_mode"] == "fake"
            node = CompromisedRouter(
                node_id,
                poison_mode=spec["poison_mode"],
                target_prefix=spec["target_prefix"],
                adversary_key=KeyPair.generate(rng.spawn(f"key:{node_id}")) if fake else None,
                **({"honest_key_der": honest.key.public_der} if honest else {}),
                rng=rng.spawn(f"router:{node_id}"),
                config=spec["config"],
            )
        elif role == "zombie":
            specs = [attack for attack in plan.attacks if node_id in attack.zombies]
            node = Zombie(node_id, rng.spawn(f"zombie:{node_id}"), specs)
        else:
            node = _consumer_node(node_id, spec, producers, rng.spawn(f"consumer:{node_id}"))
        net.add_node(node)

    for link in plan.links:
        net.add_link(link)

    for router_id, routes in plan.fib.items():
        for route in routes:
            ifaces = [net.iface_to(router_id, hop) for hop in route.next_hops]
            net.nodes[router_id].fib.add(route.prefix, ifaces)

    for entry in plan.preseed:
        pkt = _preseed_packet(entry, producers[entry.producer], rng)
        trust = {} if entry.trust is None else {"trust": entry.trust}
        for router_id in entry.routers:
            net.nodes[router_id].cs.insert(pkt, now=0, **trust)

    # Periodic router maintenance.
    sweep_us = plan.sweep_ms * MS
    for node_id in sorted(net.nodes):
        node = net.nodes[node_id]
        if isinstance(node, Router):
            net.every(sweep_us, node.pit_sweep)
            poisoning = node.poisoning
            if poisoning is not None and poisoning.config.verifier.mode != MODE_OFF:
                net.every(
                    poisoning.config.verifier.scan_interval_ms * MS,
                    lambda now, g=poisoning: g.scan(now),
                )

    collector = MetricsCollector(net, plan.metrics_tick_ms)
    collector.install()
    return Sim(net, collector, scenario.name, seed, arm, plan.duration_ms)


def _consumer_node(node_id: str, spec: tuple, producers: dict[str, Producer], rng: Rng):
    source, collection, kwargs = spec
    if collection is None:
        trusted = producers[source].key.digest if source else None
        return RequestConsumer(node_id, rng, trusted_key_digest=trusted, **kwargs)
    producer = producers[source]
    col = producer.collections[collection.encode()]
    mode = kwargs.get("mode")
    return CollectionConsumer(
        node_id,
        rng,
        base=col.base,
        fragment_count=col.fragment_count,
        trusted_key_digest=producer.key.digest if mode in (MODE_DSCID, MODE_COMBINED) else None,
        first_hash=col.first_hash() if mode == MODE_SSCID else None,
        **{"window": col.window, **kwargs},
    )


def _preseed_packet(entry: PreseedEntry, producer: Producer, rng: Rng):
    payload = b"\x00" * producer.payload_size
    if not entry.corrupt:
        return sign_packet(entry.parsed, payload, producer.key)
    return forge_packet(entry.parsed, payload, producer.key.public_der,
                        rng.spawn(f"preseed:{entry.name}"))

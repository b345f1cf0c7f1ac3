"""Scenario ingestion: strict schema validation and network construction.

Scenarios are JSON documents (or already-parsed dicts). Validation is
strict: unknown keys, dangling node references, and inconsistent defense
configuration are all collected and reported together. A scenario may
define named *arms* (JSON merge patches over the base document), which is
how defended/undefended comparisons stay in one file.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field
from typing import Any, Optional

from .attacks import ATTACK_KINDS, AttackSpec, Zombie, build_keylocator_abuse_content
from .crypto import KeyPair, assemble_packet, encode_for_hash, sha256, sign_packet
from .flooding import FloodingConfig, FloodingDefense
from .metrics import MetricsCollector
from .nodes import (
    StaticCollection,
    CONSUMER_MODES,
    CollectionConsumer,
    CompromisedRouter,
    Producer,
    RequestConsumer,
)
from .packets import EmbeddedKey, Name, NameParseError, digest_component
from .poisoning import (
    ConsumerFeedbackConfig,
    NeighborFeedbackConfig,
    PoisoningConfig,
    PoisoningGuard,
    VERIFIER_MODES,
    VerifierConfig,
)
from .rand import Rng
from .router import Router, RouterConfig
from .simnet import LinkSpec, Network

RESERVED_PREFIXES = (
    Name((b"ndn", b"warning")),
    Name((b"ndn", b"feedback")),
    Name((b"ndn", b"pushback")),
)

ROLES = ("consumer", "producer", "router", "zombie", "compromised-router")


class ScenarioError(ValueError):
    def __init__(self, violations: list[str]):
        self.violations = violations
        super().__init__("; ".join(violations))


DEFAULTS = {
    "interest_lifetime_ms": 4000,
    "payload_size_bytes": 1024,
    "avg_content_size_bytes": 1500,
    "verify_service_us": 80,
    "sign_service_us": 800,
    "static_service_us": 10,
    "pit_sweep_interval_ms": 100,
    "pit_capacity": 0,
    "cs_capacity": 256,
}


class _Check:
    """Accumulates violations instead of failing fast."""

    def __init__(self):
        self.errors: list[str] = []

    def fail(self, path: str, message: str) -> None:
        self.errors.append(f"{path}: {message}")

    def keys(self, obj: dict, path: str, allowed: set[str], required: set[str] = frozenset()):
        for key in obj:
            if key not in allowed:
                self.fail(f"{path}.{key}", "unknown key")
        for key in required:
            if key not in obj:
                self.fail(path, f"missing required key {key!r}")

    def typed(self, obj: dict, path: str, key: str, types, default=None):
        if key not in obj:
            return default
        value = obj[key]
        if not isinstance(value, types) or isinstance(value, bool) and bool not in (
            types if isinstance(types, tuple) else (types,)
        ):
            self.fail(f"{path}.{key}", f"expected {types}, got {type(value).__name__}")
            return default
        return value

    def name(self, obj: dict, path: str, key: str, default=None) -> Optional[Name]:
        text = self.typed(obj, path, key, str, None)
        if text is None:
            return default
        try:
            return Name.parse(text)
        except NameParseError as exc:
            self.fail(f"{path}.{key}", str(exc))
            return default


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


@dataclass
class Scenario:
    doc: dict
    name: str
    duration_ms: int
    metrics_tick_ms: int
    seed: int
    arms: dict[str, dict] = field(default_factory=dict)

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
    chk = _Check()
    if not isinstance(doc, dict):
        raise ScenarioError(["$: scenario must be an object"])

    chk.keys(
        doc,
        "$",
        {
            "name",
            "duration_ms",
            "metrics_tick_ms",
            "seed",
            "defaults",
            "nodes",
            "links",
            "fib",
            "preseed_cache",
            "attacks",
            "flooding_defense",
            "poisoning_defense",
            "arms",
        },
        required={"name", "duration_ms", "nodes", "links"},
    )
    name = chk.typed(doc, "$", "name", str, "unnamed")
    duration = chk.typed(doc, "$", "duration_ms", int, 0)
    tick = chk.typed(doc, "$", "metrics_tick_ms", int, 100)
    seed = chk.typed(doc, "$", "seed", int, 1)
    if duration is not None and duration <= 0:
        chk.fail("$.duration_ms", "must be positive")
    if tick is not None and tick <= 0:
        chk.fail("$.metrics_tick_ms", "must be positive")

    defaults = dict(DEFAULTS)
    block = chk.typed(doc, "$", "defaults", dict, {})
    if block:
        chk.keys(block, "$.defaults", set(DEFAULTS))
        for key in block:
            if key in DEFAULTS:
                value = chk.typed(block, "$.defaults", key, (int, float))
                if value is not None:
                    defaults[key] = value

    node_roles = _validate_nodes(chk, doc.get("nodes", []))
    _validate_links(chk, doc.get("links", []), node_roles)
    _validate_fib(chk, doc.get("fib", {}), node_roles)
    _validate_preseed(chk, doc.get("preseed_cache", []), node_roles)
    _validate_attacks(chk, doc.get("attacks", []), node_roles, doc.get("nodes", []))
    _validate_flooding(chk, doc.get("flooding_defense"), node_roles)
    _validate_poisoning(chk, doc.get("poisoning_defense"), node_roles)
    _validate_consumer_refs(chk, doc.get("nodes", []), node_roles)

    arms = chk.typed(doc, "$", "arms", dict, {}) or {}
    for arm_name, patch in arms.items():
        if not isinstance(patch, dict):
            chk.fail(f"$.arms.{arm_name}", "arm patch must be an object")

    if chk.errors:
        raise ScenarioError(chk.errors)

    scenario = Scenario(
        doc=doc, name=name, duration_ms=duration, metrics_tick_ms=tick, seed=seed, arms=arms
    )
    # Every arm must itself merge into a valid scenario.
    for arm_name in scenario.arm_names():
        merged = scenario.arm_doc(arm_name)
        try:
            load_scenario({k: v for k, v in merged.items() if k != "arms"})
        except ScenarioError as exc:
            raise ScenarioError([f"$.arms.{arm_name}{v[1:]}" for v in exc.violations]) from None
    return scenario


# ---------------------------------------------------------------------------
# Section validators
# ---------------------------------------------------------------------------


def _validate_nodes(chk: _Check, nodes) -> dict[str, str]:
    roles: dict[str, str] = {}
    if not isinstance(nodes, list):
        chk.fail("$.nodes", "must be a list")
        return roles
    for idx, node in enumerate(nodes):
        path = f"$.nodes[{idx}]"
        if not isinstance(node, dict):
            chk.fail(path, "must be an object")
            continue
        node_id = chk.typed(node, path, "id", str)
        role = chk.typed(node, path, "role", str)
        if node_id is None or role is None:
            chk.fail(path, "id and role are required")
            continue
        if not node_id.replace("-", "").replace("_", "").isalnum():
            chk.fail(f"{path}.id", "ids are alphanumeric plus - and _")
        if node_id in roles:
            chk.fail(f"{path}.id", f"duplicate node id {node_id!r}")
        if role not in ROLES:
            chk.fail(f"{path}.role", f"unknown role {role!r}")
            continue
        roles[node_id] = role
        common = {"id", "role"}
        if role == "producer":
            chk.keys(
                node,
                path,
                common
                | {
                    "prefix",
                    "collections",
                    "static_names",
                    "dynamic_prefix",
                    "payload_size_bytes",
                    "abuse",
                },
                required={"prefix"},
            )
            prefix = chk.name(node, path, "prefix")
            if prefix is not None and any(r.is_prefix_of(prefix) for r in RESERVED_PREFIXES):
                chk.fail(f"{path}.prefix", "reserved namespace")
            for cidx, col in enumerate(node.get("collections", [])):
                cpath = f"{path}.collections[{cidx}]"
                if not isinstance(col, dict):
                    chk.fail(cpath, "must be an object")
                    continue
                chk.keys(
                    col,
                    cpath,
                    {"name", "fragments", "window", "payload_size_bytes"},
                    required={"name", "fragments", "window"},
                )
                frags = chk.typed(col, cpath, "fragments", int, 0)
                window = chk.typed(col, cpath, "window", int, 0)
                if frags is not None and frags < 1:
                    chk.fail(f"{cpath}.fragments", "must be >= 1")
                if window is not None and window < 1:
                    chk.fail(f"{cpath}.window", "must be >= 1")
            abuse = chk.typed(node, path, "abuse", dict)
            if abuse:
                chk.keys(
                    abuse,
                    f"{path}.abuse",
                    {"target_producer", "count", "collection"},
                    required={"target_producer", "count", "collection"},
                )
        elif role in ("router",):
            chk.keys(node, path, common | {"pit_capacity", "cs_capacity"})
        elif role == "zombie":
            chk.keys(node, path, common)
        elif role == "compromised-router":
            chk.keys(
                node,
                path,
                common | {"poison_mode", "target_prefix", "impersonate", "pit_capacity", "cs_capacity"},
                required={"poison_mode", "target_prefix"},
            )
            mode = chk.typed(node, path, "poison_mode", str)
            if mode not in ("corrupted", "fake"):
                chk.fail(f"{path}.poison_mode", "must be corrupted or fake")
            if mode == "corrupted" and "impersonate" not in node:
                chk.fail(path, "corrupted mode requires impersonate")
        elif role == "consumer":
            chk.keys(node, path, common | {"collection", "requests"})
            if ("collection" in node) == ("requests" in node):
                chk.fail(path, "consumer needs exactly one of collection / requests")
    return roles


def _validate_consumer_refs(chk: _Check, nodes, roles: dict[str, str]) -> None:
    for idx, node in enumerate(nodes):
        if not isinstance(node, dict) or node.get("role") != "consumer":
            continue
        path = f"$.nodes[{idx}]"
        col = node.get("collection")
        if isinstance(col, dict):
            cpath = f"{path}.collection"
            chk.keys(
                col,
                cpath,
                {
                    "producer",
                    "collection",
                    "mode",
                    "window",
                    "start_ms",
                    "max_retries",
                    "lifetime_ms",
                    "emit_feedback",
                    "exclude_cap",
                },
                required={"producer", "collection"},
            )
            producer = chk.typed(col, cpath, "producer", str)
            if producer is not None and roles.get(producer) != "producer":
                chk.fail(f"{cpath}.producer", f"{producer!r} is not a producer node")
            mode = chk.typed(col, cpath, "mode", str, "plain")
            if mode not in CONSUMER_MODES:
                chk.fail(f"{cpath}.mode", f"unknown mode {mode!r}")
        elif col is not None:
            chk.fail(f"{path}.collection", "must be an object")
        req = node.get("requests")
        if isinstance(req, dict):
            rpath = f"{path}.requests"
            chk.keys(
                req,
                rpath,
                {
                    "names",
                    "unique_under",
                    "rate_per_s",
                    "start_ms",
                    "stop_ms",
                    "at_ms",
                    "retries",
                    "mode",
                    "trusted_producer",
                    "lifetime_ms",
                    "send_on_all_interfaces",
                    "emit_feedback",
                },
            )
            if ("names" in req) == ("unique_under" in req):
                chk.fail(rpath, "needs exactly one of names / unique_under")
            if ("at_ms" in req) == ("rate_per_s" in req):
                chk.fail(rpath, "needs exactly one of at_ms / rate_per_s")
            if "rate_per_s" in req and "stop_ms" not in req:
                chk.fail(rpath, "rate_per_s needs stop_ms")
            mode = chk.typed(req, rpath, "mode", str, "plain")
            if mode not in ("plain", "d-scid"):
                chk.fail(f"{rpath}.mode", "request mode is plain or d-scid")
            if mode == "d-scid" and "trusted_producer" not in req:
                chk.fail(rpath, "d-scid mode requires trusted_producer")
            trusted = chk.typed(req, rpath, "trusted_producer", str)
            if trusted is not None and roles.get(trusted) != "producer":
                chk.fail(f"{rpath}.trusted_producer", f"{trusted!r} is not a producer node")
            for key in ("names",):
                for nidx, text in enumerate(req.get(key, [])):
                    try:
                        Name.parse(text)
                    except (NameParseError, TypeError) as exc:
                        chk.fail(f"{rpath}.{key}[{nidx}]", str(exc))
        elif req is not None:
            chk.fail(f"{path}.requests", "must be an object")


def _validate_links(chk: _Check, links, roles: dict[str, str]) -> None:
    if not isinstance(links, list):
        chk.fail("$.links", "must be a list")
        return
    for idx, link in enumerate(links):
        path = f"$.links[{idx}]"
        if not isinstance(link, dict):
            chk.fail(path, "must be an object")
            continue
        chk.keys(
            link,
            path,
            {"endpoints", "bandwidth_mbps", "delay_ms", "kind"},
            required={"endpoints", "bandwidth_mbps", "delay_ms"},
        )
        endpoints = chk.typed(link, path, "endpoints", list, [])
        for ep in endpoints or []:
            if ep not in roles:
                chk.fail(f"{path}.endpoints", f"unknown node {ep!r}")
        kind = chk.typed(link, path, "kind", str, "p2p")
        if kind not in ("p2p", "broadcast"):
            chk.fail(f"{path}.kind", "kind is p2p or broadcast")
        if kind == "p2p" and endpoints is not None and len(endpoints) != 2:
            chk.fail(f"{path}.endpoints", "p2p links have exactly 2 endpoints")
        if kind == "broadcast" and endpoints is not None and len(endpoints) < 2:
            chk.fail(f"{path}.endpoints", "broadcast links have at least 2 endpoints")
        bw = chk.typed(link, path, "bandwidth_mbps", (int, float), 0)
        if bw is not None and bw <= 0:
            chk.fail(f"{path}.bandwidth_mbps", "must be positive")
        delay = chk.typed(link, path, "delay_ms", (int, float), 0)
        if delay is not None and delay < 0:
            chk.fail(f"{path}.delay_ms", "must be non-negative")


def _validate_fib(chk: _Check, fib, roles: dict[str, str]) -> None:
    if not isinstance(fib, dict):
        chk.fail("$.fib", "must be an object")
        return
    for node_id, entries in fib.items():
        path = f"$.fib.{node_id}"
        if roles.get(node_id) not in ("router", "compromised-router"):
            chk.fail(path, f"{node_id!r} is not a router")
            continue
        if not isinstance(entries, list):
            chk.fail(path, "must be a list")
            continue
        for eidx, entry in enumerate(entries):
            epath = f"{path}[{eidx}]"
            if not isinstance(entry, dict):
                chk.fail(epath, "must be an object")
                continue
            chk.keys(entry, epath, {"prefix", "next_hops"}, required={"prefix", "next_hops"})
            prefix = chk.name(entry, epath, "prefix")
            if prefix is not None and any(r.is_prefix_of(prefix) for r in RESERVED_PREFIXES):
                chk.fail(f"{epath}.prefix", "reserved namespaces are never routed")
            hops = chk.typed(entry, epath, "next_hops", list, [])
            if hops is not None and not hops:
                chk.fail(f"{epath}.next_hops", "must not be empty")
            for hop in hops or []:
                if hop not in roles:
                    chk.fail(f"{epath}.next_hops", f"unknown node {hop!r}")


def _validate_preseed(chk: _Check, entries, roles: dict[str, str]) -> None:
    if not isinstance(entries, list):
        chk.fail("$.preseed_cache", "must be a list")
        return
    for idx, entry in enumerate(entries):
        path = f"$.preseed_cache[{idx}]"
        if not isinstance(entry, dict):
            chk.fail(path, "must be an object")
            continue
        chk.keys(
            entry,
            path,
            {"routers", "producer", "name", "corrupt", "trust"},
            required={"routers", "producer", "name"},
        )
        for router in chk.typed(entry, path, "routers", list, []) or []:
            if roles.get(router) not in ("router", "compromised-router"):
                chk.fail(f"{path}.routers", f"{router!r} is not a router")
        producer = chk.typed(entry, path, "producer", str)
        if producer is not None and roles.get(producer) != "producer":
            chk.fail(f"{path}.producer", f"{producer!r} is not a producer node")
        chk.name(entry, path, "name")


def _validate_attacks(chk: _Check, attacks, roles: dict[str, str], nodes) -> None:
    if not isinstance(attacks, list):
        chk.fail("$.attacks", "must be a list")
        return
    for idx, attack in enumerate(attacks):
        path = f"$.attacks[{idx}]"
        if not isinstance(attack, dict):
            chk.fail(path, "must be an object")
            continue
        chk.keys(
            attack,
            path,
            {
                "kind",
                "zombies",
                "target_prefix",
                "rate_per_s",
                "start_ms",
                "stop_ms",
                "name_pool",
                "dynamic_under",
                "content_names",
                "jitter_ms",
                "lifetime_ms",
            },
            required={"kind", "target_prefix"},
        )
        kind = chk.typed(attack, path, "kind", str)
        if kind is not None and kind not in ATTACK_KINDS:
            chk.fail(f"{path}.kind", f"unknown attack kind {kind!r}")
        zombies = chk.typed(attack, path, "zombies", list, []) or []
        for z in zombies:
            if roles.get(z) != "zombie":
                chk.fail(f"{path}.zombies", f"{z!r} is not a zombie node")
        if kind not in ("poison-inject", "keylocator-abuse") and not zombies:
            chk.fail(f"{path}.zombies", "attack needs at least one zombie")
        # These two kinds are enacted by node configuration, not zombie
        # traffic; declaring them without the enacting node is a no-op.
        if kind == "poison-inject" and "compromised-router" not in roles.values():
            chk.fail(path, "poison-inject needs a compromised-router node")
        if kind == "keylocator-abuse" and not any(
            isinstance(n, dict) and "abuse" in n for n in nodes if isinstance(nodes, list)
        ):
            chk.fail(path, "keylocator-abuse needs a producer with an abuse catalog")
        chk.name(attack, path, "target_prefix")
        try:
            _attack_spec(attack)
        except (ValueError, NameParseError) as exc:
            chk.fail(path, str(exc))


def _validate_flooding(chk: _Check, block, roles: dict[str, str]) -> None:
    if block is None:
        return
    if not isinstance(block, dict):
        chk.fail("$.flooding_defense", "must be an object")
        return
    path = "$.flooding_defense"
    chk.keys(
        block,
        path,
        {
            "routers",
            "quota_routers",
            "window_ms",
            "min_throttle",
            "pushback_cooldown_ms",
            "pushback_ttl",
            "fair_share_factor",
            "namespace_quotas",
            "interest_timeout_ms",
            "avg_content_size_bytes",
            "outgoing_quota_override",
            "incoming_limit_override",
            "min_advised_rate",
        },
    )
    for selector in ("routers", "quota_routers"):
        chosen = block.get(selector, "all")
        if chosen != "all":
            for r in chosen if isinstance(chosen, list) else []:
                if roles.get(r) != "router":
                    chk.fail(f"{path}.{selector}", f"{r!r} is not a router")
    quotas = chk.typed(block, path, "namespace_quotas", dict, {}) or {}
    for prefix, quota in quotas.items():
        try:
            Name.parse(prefix)
        except NameParseError as exc:
            chk.fail(f"{path}.namespace_quotas.{prefix}", str(exc))
        if not isinstance(quota, int) or quota < 1:
            chk.fail(f"{path}.namespace_quotas.{prefix}", "quota must be a positive integer")


def _validate_poisoning(chk: _Check, block, roles: dict[str, str]) -> None:
    if block is None:
        return
    if not isinstance(block, dict):
        chk.fail("$.poisoning_defense", "must be an object")
        return
    path = "$.poisoning_defense"
    chk.keys(
        block,
        path,
        {
            "routers",
            "enforce_dscid",
            "enforce_sscid",
            "verification",
            "neighbor_feedback",
            "consumer_feedback",
        },
    )
    routers = block.get("routers", "all")
    if routers != "all":
        for r in routers if isinstance(routers, list) else []:
            if roles.get(r) != "router":
                chk.fail(f"{path}.routers", f"{r!r} is not a router")
    ver = chk.typed(block, path, "verification", dict)
    if ver is not None:
        vpath = f"{path}.verification"
        chk.keys(ver, vpath, {"mode", "v", "group", "scan_interval_ms"}, required={"mode"})
        mode = chk.typed(ver, vpath, "mode", str)
        if mode is not None and mode not in VERIFIER_MODES:
            chk.fail(f"{vpath}.mode", f"unknown mode {mode!r}")
        group = chk.typed(ver, vpath, "group", list, []) or []
        for r in group:
            if roles.get(r) != "router":
                chk.fail(f"{vpath}.group", f"{r!r} is not a router")
        if mode in ("disjoint-plain", "disjoint-hmac"):
            if not group:
                chk.fail(vpath, "disjoint modes require a group")
            v = chk.typed(ver, vpath, "v", (int, float), 0)
            if v is not None and group and v < len(group):
                chk.fail(f"{vpath}.v", "disjoint modes require v >= group size")
    nb = chk.typed(block, path, "neighbor_feedback", dict)
    if nb is not None:
        chk.keys(nb, f"{path}.neighbor_feedback", {"enabled", "p", "cooldown_ms"})
    cf = chk.typed(block, path, "consumer_feedback", dict)
    if cf is not None:
        chk.keys(
            cf,
            f"{path}.consumer_feedback",
            {"enabled", "alpha", "beta", "threshold", "window_ms"},
        )


def _attack_spec(attack: dict) -> AttackSpec:
    return AttackSpec(
        kind=attack["kind"],
        zombies=tuple(attack.get("zombies", [])),
        target_prefix=Name.parse(attack["target_prefix"]),
        rate_per_s=attack.get("rate_per_s", 1.0),
        start_ms=attack.get("start_ms", 0),
        stop_ms=attack.get("stop_ms", 1),
        name_pool=tuple(Name.parse(n) for n in attack.get("name_pool", [])),
        dynamic_under=(
            Name.parse(attack["dynamic_under"]) if "dynamic_under" in attack else None
        ),
        content_names=tuple(Name.parse(n) for n in attack.get("content_names", [])),
        jitter_ms=attack.get("jitter_ms", 50),
        lifetime_ms=attack.get("lifetime_ms"),
    )


# ---------------------------------------------------------------------------
# Building
# ---------------------------------------------------------------------------


@dataclass
class Sim:
    """A built, runnable simulation instance."""

    net: Network
    collector: MetricsCollector
    scenario_name: str
    seed: int
    arm: Optional[str]
    duration_ms: int

    def run(self) -> "Sim":
        self.net.run(self.duration_ms * 1000)
        self.collector.sample(self.net.now)  # closing sample at end time
        return self

    def node(self, node_id: str):
        return self.net.nodes[node_id]


def build_sim(scenario: Scenario, seed: int, arm: Optional[str] = None) -> Sim:
    doc = scenario.arm_doc(arm)
    defaults = dict(DEFAULTS)
    defaults.update(doc.get("defaults", {}))
    rng = Rng(seed, f"scenario:{scenario.name}")
    net = Network(rng.spawn("net"))
    lifetime_ms = int(defaults["interest_lifetime_ms"])

    flooding_doc = doc.get("flooding_defense")
    poisoning_doc = doc.get("poisoning_defense")
    node_docs = {n["id"]: n for n in doc["nodes"]}

    # Producers first: consumers and compromised routers reference their keys.
    producers: dict[str, Producer] = {}
    for node in doc["nodes"]:
        if node["role"] != "producer":
            continue
        node_id = node["id"]
        key = KeyPair.generate(rng.spawn(f"key:{node_id}"))
        prefix = Name.parse(node["prefix"])
        dynamic_prefix = None
        if "dynamic_prefix" in node and node["dynamic_prefix"] is not None:
            sub = node["dynamic_prefix"]
            dynamic_prefix = prefix if sub == "" else prefix.join(Name.parse("/" + sub))
        producer = Producer(
            node_id,
            prefix,
            key,
            dynamic_prefix=dynamic_prefix,
            payload_size=int(node.get("payload_size_bytes", defaults["payload_size_bytes"])),
            sign_service_us=int(defaults["sign_service_us"]),
            static_service_us=int(defaults["static_service_us"]),
        )
        body = b"\x00" * producer.payload_size
        for col in node.get("collections", []):
            size = int(col.get("payload_size_bytes", producer.payload_size))
            producer.add_collection(
                col["name"].encode(), [b"\x00" * size] * col["fragments"], col["window"]
            )
        for item in node.get("static_names", []):
            producer.add_static_item(prefix.child(item.encode()), body)
        producers[node_id] = producer

    for node in doc["nodes"]:
        if node["role"] == "producer" and "abuse" in node:
            producer = producers[node["id"]]
            abuse = node["abuse"]
            victim = producers[abuse["target_producer"]]
            collection = abuse["collection"].encode()
            packets = build_keylocator_abuse_content(
                producer.prefix.child(collection),
                victim.prefix,
                abuse["count"],
                producer.key,
                payload_size=producer.payload_size,
            )
            producer.collections[collection] = StaticCollection(
                producer.prefix.child(collection), window=1, packets=packets
            )
            for pkt in packets:
                producer.add_static_packet(pkt)

    def flooding_for(node_id: str) -> Optional[FloodingDefense]:
        if flooding_doc is None:
            return None
        selected = flooding_doc.get("routers", "all")
        if selected != "all" and node_id not in selected:
            return None
        all_quotas = {
            Name.parse(p): q for p, q in flooding_doc.get("namespace_quotas", {}).items()
        }
        quota_routers = flooding_doc.get("quota_routers", "all")
        enforce_here = quota_routers == "all" or node_id in quota_routers
        config = FloodingConfig(
            namespace_quotas=all_quotas if enforce_here else {},
            watched_prefixes=tuple(all_quotas),
            window_ms=flooding_doc.get("window_ms", 10_000),
            min_throttle=flooding_doc.get("min_throttle", 0.05),
            pushback_cooldown_ms=flooding_doc.get("pushback_cooldown_ms", 1000),
            pushback_ttl=flooding_doc.get("pushback_ttl", 8),
            fair_share_factor=flooding_doc.get("fair_share_factor", 2.0),
            interest_timeout_ms=flooding_doc.get("interest_timeout_ms", lifetime_ms),
            avg_content_size_bytes=flooding_doc.get(
                "avg_content_size_bytes", int(defaults["avg_content_size_bytes"])
            ),
            min_advised_rate=flooding_doc.get("min_advised_rate", 1.0),
            outgoing_quota_override=flooding_doc.get("outgoing_quota_override"),
            incoming_limit_override=flooding_doc.get("incoming_limit_override"),
        )
        return FloodingDefense(config, rng.spawn(f"flood:{node_id}"))

    def poisoning_for(node_id: str) -> Optional[PoisoningGuard]:
        if poisoning_doc is None:
            return None
        selected = poisoning_doc.get("routers", "all")
        if selected != "all" and node_id not in selected:
            return None
        ver = poisoning_doc.get("verification", {"mode": "off"})
        group = tuple(ver.get("group", ()))
        if group and node_id not in group and ver.get("mode", "off") != "off":
            verifier = VerifierConfig(mode="off")
        else:
            verifier = VerifierConfig(
                mode=ver.get("mode", "off"),
                v=ver.get("v", 1.0),
                group=group,
                group_key=(
                    rng.spawn("verifier-group").bytes(32)
                    if ver.get("mode") == "disjoint-hmac"
                    else b""
                ),
                scan_interval_ms=ver.get("scan_interval_ms", 1000),
            )
        nb = poisoning_doc.get("neighbor_feedback", {})
        cf = poisoning_doc.get("consumer_feedback", {})
        config = PoisoningConfig(
            enforce_dscid=poisoning_doc.get("enforce_dscid", False),
            enforce_sscid=poisoning_doc.get("enforce_sscid", False),
            verifier=verifier,
            neighbor=NeighborFeedbackConfig(
                enabled=nb.get("enabled", False),
                p=nb.get("p", 0.5),
                cooldown_ms=nb.get("cooldown_ms", 10_000),
            ),
            consumer=ConsumerFeedbackConfig(
                enabled=cf.get("enabled", False),
                alpha=cf.get("alpha", 0.05),
                beta=cf.get("beta", 0.5),
                threshold=cf.get("threshold", 3),
                window_ms=cf.get("window_ms", 10_000),
            ),
            verify_service_us=int(defaults["verify_service_us"]),
        )
        return PoisoningGuard(config, rng.spawn(f"poison:{node_id}"))

    # Build every node in document order.
    for node in doc["nodes"]:
        node_id, role = node["id"], node["role"]
        if role == "producer":
            net.add_node(producers[node_id])
        elif role == "router":
            router = Router(
                node_id,
                config=RouterConfig(
                    pit_capacity=int(node.get("pit_capacity", defaults["pit_capacity"])),
                    cs_capacity=int(node.get("cs_capacity", defaults["cs_capacity"])),
                    interest_lifetime_ms=lifetime_ms,
                ),
                flooding=flooding_for(node_id),
                poisoning=poisoning_for(node_id),
                rng=rng.spawn(f"router:{node_id}"),
            )
            net.add_node(router)
        elif role == "compromised-router":
            impersonated = node.get("impersonate")
            honest = producers.get(impersonated) if impersonated else None
            net.add_node(
                CompromisedRouter(
                    node_id,
                    poison_mode=node["poison_mode"],
                    target_prefix=Name.parse(node["target_prefix"]),
                    adversary_key=KeyPair.generate(rng.spawn(f"key:{node_id}")),
                    honest_key_der=honest.key.public_der if honest else b"",
                    honest_key_digest=honest.key.digest if honest else b"",
                    rng=rng.spawn(f"router:{node_id}"),
                    config=RouterConfig(
                        pit_capacity=int(node.get("pit_capacity", defaults["pit_capacity"])),
                        cs_capacity=int(node.get("cs_capacity", defaults["cs_capacity"])),
                        interest_lifetime_ms=lifetime_ms,
                    ),
                )
            )
        elif role == "zombie":
            specs = [
                _attack_spec(attack)
                for attack in doc.get("attacks", [])
                if node_id in attack.get("zombies", [])
            ]
            net.add_node(Zombie(node_id, rng.spawn(f"zombie:{node_id}"), specs, lifetime_ms))
        elif role == "consumer":
            net.add_node(_build_consumer(node, producers, rng, lifetime_ms))

    for link in doc["links"]:
        net.add_link(
            LinkSpec(
                endpoints=tuple(link["endpoints"]),
                bandwidth_bps=float(link["bandwidth_mbps"]) * 1e6,
                delay_us=int(round(float(link["delay_ms"]) * 1000)),
                broadcast=link.get("kind", "p2p") == "broadcast",
            )
        )

    for node_id, entries in doc.get("fib", {}).items():
        router = net.nodes[node_id]
        for entry in entries:
            ifaces = [net.iface_to(node_id, hop) for hop in entry["next_hops"]]
            router.fib.add(Name.parse(entry["prefix"]), ifaces)

    for entry in doc.get("preseed_cache", []):
        pkt = _preseed_packet(entry, producers, rng)
        for router_id in entry["routers"]:
            net.nodes[router_id].cs.insert(pkt, now=0, trust=entry.get("trust", 0.5))

    # Periodic router maintenance.
    sweep_us = int(defaults["pit_sweep_interval_ms"]) * 1000
    for node_id in sorted(net.nodes):
        node = net.nodes[node_id]
        if isinstance(node, Router):
            net.every(sweep_us, lambda now, r=node: net.apply(r.id, r.pit_sweep(now)))
            guard = node.poisoning
            if guard is not None and guard.config.verifier.mode != "off":
                net.every(
                    guard.config.verifier.scan_interval_ms * 1000,
                    lambda now, g=guard: g.scan(now),
                )

    collector = MetricsCollector(net, doc.get("metrics_tick_ms", scenario.metrics_tick_ms))
    collector.install()
    return Sim(
        net=net,
        collector=collector,
        scenario_name=scenario.name,
        seed=seed,
        arm=arm,
        duration_ms=doc["duration_ms"],
    )


def _build_consumer(node: dict, producers: dict[str, Producer], rng: Rng, lifetime_ms: int):
    node_id = node["id"]
    crng = rng.spawn(f"consumer:{node_id}")
    if "collection" in node:
        conf = node["collection"]
        producer = producers[conf["producer"]]
        col = producer.collections[conf["collection"].encode()]
        mode = conf.get("mode", "plain")
        return CollectionConsumer(
            node_id,
            crng,
            base=col.base,
            fragment_count=col.fragment_count,
            window=conf.get("window", col.window),
            mode=mode,
            trusted_key_digest=(
                producer.key.digest if mode in ("d-scid", "combined") else None
            ),
            first_hash=col.first_hash() if mode == "s-scid" else None,
            start_ms=conf.get("start_ms", 0),
            lifetime_ms=conf.get("lifetime_ms", lifetime_ms),
            max_retries=conf.get("max_retries", 3),
            exclude_cap=conf.get("exclude_cap", 16),
            emit_feedback=conf.get("emit_feedback", True),
        )
    conf = node["requests"]
    trusted = conf.get("trusted_producer")
    return RequestConsumer(
        node_id,
        crng,
        names=[Name.parse(n) for n in conf["names"]] if "names" in conf else None,
        unique_under=Name.parse(conf["unique_under"]) if "unique_under" in conf else None,
        rate_per_s=conf.get("rate_per_s", 0.0),
        start_ms=conf.get("start_ms", 0),
        stop_ms=conf.get("stop_ms", 0),
        at_ms=conf.get("at_ms"),
        retries=conf.get("retries", 0),
        mode=conf.get("mode", "plain"),
        trusted_key_digest=producers[trusted].key.digest if trusted else None,
        lifetime_ms=conf.get("lifetime_ms", lifetime_ms),
        send_on_all_interfaces=conf.get("send_on_all_interfaces", False),
        emit_feedback=conf.get("emit_feedback", True),
    )


def _preseed_packet(entry: dict, producers: dict[str, Producer], rng: Rng):
    producer = producers[entry["producer"]]
    name = Name.parse(entry["name"])
    payload = b"\x00" * producer.payload_size
    if not entry.get("corrupt", False):
        return sign_packet(name, payload, producer.key)
    prng = rng.spawn(f"preseed:{entry['name']}")
    draft = assemble_packet(
        name,
        payload,
        signature=prng.bytes(128),
        key_locator=EmbeddedKey(producer.key.public_der),
        publisher_key_digest=producer.key.digest,
        poisoned=True,
    )
    return assemble_packet(
        name.child(digest_component(sha256(encode_for_hash(draft)))),
        draft.payload,
        draft.signature,
        draft.key_locator,
        draft.publisher_key_digest,
        poisoned=True,
    )

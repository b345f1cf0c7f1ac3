"""Scenario schema validation and the canonical fixture."""

from __future__ import annotations

import copy
import importlib.util
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ndnshield import crypto
from ndnshield.attacks import ATTACK_KINDS
from ndnshield.crypto import KeyPair, verify_signature
from ndnshield.nodes import CompromisedRouter
from ndnshield.packets import Interest, Name
from ndnshield.rand import Rng
from ndnshield.scenario import ScenarioError, build_sim, load_scenario
from test_golden import DOCS

FIXTURES = Path(__file__).parent.parent / "src" / "ndnshield" / "scenarios"


def minimal_doc(**overrides):
    doc = {
        "name": "t",
        "duration_ms": 100,
        "nodes": [
            {"id": "p", "role": "producer", "prefix": "/v", "static_names": ["a"]},
            {"id": "r", "role": "router"},
            {"id": "c", "role": "consumer", "requests": {"names": ["/v/a"], "at_ms": [1]}},
        ],
        "links": [
            {"endpoints": ["c", "r"], "bandwidth_mbps": 100, "delay_ms": 1},
            {"endpoints": ["r", "p"], "bandwidth_mbps": 100, "delay_ms": 1},
        ],
        "fib": {"r": [{"prefix": "/v", "next_hops": ["p"]}]},
    }
    doc.update(overrides)
    return doc


def violations(doc) -> list[str]:
    with pytest.raises(ScenarioError) as err:
        load_scenario(doc)
    return err.value.violations


def test_canonical_chain_fixture_loads():
    scenario = load_scenario((FIXTURES / "chain_flood.json").read_text())
    assert len(scenario.doc["nodes"]) == 6
    assert scenario.arm_names() == ["defended", "undefended"]


def test_minimal_doc_valid():
    assert load_scenario(minimal_doc()).name == "t"


def test_unknown_keys_rejected():
    errs = violations(minimal_doc(bogus_key=1))
    assert any("bogus_key" in e and "unknown key" in e for e in errs)


def test_attack_referencing_missing_node():
    doc = minimal_doc(
        attacks=[
            {
                "kind": "flood-unsat-nonce",
                "zombies": ["ghost"],
                "target_prefix": "/v",
                "rate_per_s": 10,
                "start_ms": 0,
                "stop_ms": 50,
            }
        ]
    )
    errs = violations(doc)
    assert any("ghost" in e for e in errs)


def test_disjoint_hmac_without_group_rejected():
    doc = minimal_doc(
        poisoning_defense={"verification": {"mode": "disjoint-hmac", "v": 8}}
    )
    errs = violations(doc)
    assert any("group" in e for e in errs)


def test_link_endpoint_must_exist():
    doc = minimal_doc()
    doc["links"].append({"endpoints": ["r", "nobody"], "bandwidth_mbps": 1, "delay_ms": 1})
    assert any("nobody" in e for e in violations(doc))


@pytest.mark.parametrize("link", [{"endpoints": ["r", "r"]},
                                  {"endpoints": ["c", "r", "c"], "kind": "broadcast"}],
                         ids=["p2p", "broadcast"])
def test_link_lists_each_node_once(link):
    """A node listed twice on one link would get interfaces that nothing
    hears."""
    doc = minimal_doc()
    doc["links"].append({"bandwidth_mbps": 1, "delay_ms": 1, **link})
    assert violations(doc) == ["$.links[2].endpoints: must list each node once"]


def test_consumer_needs_exactly_one_workload():
    doc = minimal_doc()
    doc["nodes"][2] = {"id": "c", "role": "consumer"}
    assert any("exactly one" in e for e in violations(doc))


def test_duplicate_node_ids_rejected():
    doc = minimal_doc()
    doc["nodes"].append({"id": "r", "role": "router"})
    assert any("duplicate" in e for e in violations(doc))


def test_reserved_namespace_rejected_in_fib():
    doc = minimal_doc()
    doc["fib"]["r"].append({"prefix": "/ndn/warning", "next_hops": ["p"]})
    assert any("reserved" in e for e in violations(doc))


def test_multiple_violations_all_reported():
    doc = minimal_doc(bogus=1)
    doc["nodes"].append({"id": "x!", "role": "router"})
    doc["links"][0]["kind"] = "quantum"
    errs = violations(doc)
    assert len(errs) >= 3


def test_bad_arm_patch_reported_with_arm_path():
    doc = minimal_doc(arms={"broken": {"duration_ms": -5}})
    errs = violations(doc)
    assert any(e.startswith("$.arms.broken") for e in errs)


def test_invalid_json_text():
    with pytest.raises(ScenarioError):
        load_scenario("{not json")


def test_arm_merge_patch_semantics():
    doc = minimal_doc(
        defaults={"cs_capacity": 64},
        arms={"big": {"defaults": {"cs_capacity": 512}}},
    )
    scenario = load_scenario(doc)
    assert scenario.arm_doc("big")["defaults"]["cs_capacity"] == 512
    assert scenario.arm_doc(None)["defaults"]["cs_capacity"] == 64


def test_build_and_run_minimal():
    sim = build_sim(load_scenario(minimal_doc()), seed=3).run()
    assert sim.node("c").stats["received_valid"] == 1


def _compromised_doc(mode: str) -> dict:
    doc = minimal_doc()
    doc["nodes"].append({"id": "cx", "role": "compromised-router", "poison_mode": mode,
                         "target_prefix": "/v/hot", "impersonate": "p"})
    doc["links"].append({"endpoints": ["r", "cx"], "bandwidth_mbps": 100, "delay_ms": 1})
    return doc


@pytest.mark.parametrize("mode, signers", [("corrupted", ["p"]), ("fake", ["p", "cx"])])
def test_build_generates_keys_only_for_nodes_that_sign(monkeypatch, mode, signers):
    """A corrupted-mode compromised router forges with the producer's key,
    so only producers get a key built; a fake-mode one gets its own."""
    built = []
    build = KeyPair._build.__func__

    def counted(cls, rng):
        built.append(rng.state()[0])
        return build(cls, rng)

    monkeypatch.setattr(crypto, "_FRESH_KEYS", {})  # no key built earlier is reused
    monkeypatch.setattr(KeyPair, "_build", classmethod(counted))
    sim = build_sim(load_scenario(_compromised_doc(mode)), seed=3)
    streams = Rng(3, "scenario:t")
    assert built == [streams.spawn(f"key:{node_id}").state()[0] for node_id in signers]
    assert (sim.node("cx").adversary_key is None) == (mode == "corrupted")


def test_fake_mode_poison_verifies_under_the_adversary_key():
    sim = build_sim(load_scenario(_compromised_doc("fake")), seed=3)
    adversary = sim.node("cx").adversary_key
    assert adversary.public_der != sim.node("p").key.public_der
    poison = sim.node("cx").make_poison(Interest(Name.parse("/v/hot/x"), 1))
    assert poison.poisoned and verify_signature(poison, adversary.public_der)
    assert not verify_signature(poison, sim.node("p").key.public_der)


def test_fake_mode_needs_an_adversary_key():
    with pytest.raises(ValueError, match="adversary key"):
        CompromisedRouter("cx", poison_mode="fake", target_prefix=Name.parse("/v"))


def test_empty_scenario_terminates_with_header_only():
    doc = {"name": "empty", "duration_ms": 100, "nodes": [], "links": []}
    sim = build_sim(load_scenario(doc), seed=1).run()
    csv = sim.collector.csv_bytes().decode().strip().splitlines()
    assert len(csv) == 1  # header only: no nodes, no rows


@pytest.mark.parametrize(
    "section, selector",
    [
        ("flooding_defense", "routers"),
        ("flooding_defense", "quota_routers"),
        ("poisoning_defense", "routers"),
    ],
)
def test_router_selector_is_all_or_a_list(section, selector):
    # A string other than "all" must not select routers by substring.
    errs = violations(minimal_doc(**{section: {selector: "rr"}}))
    assert errs == [f"$.{section}.{selector}: must be \"all\" or a list of router ids"]
    assert load_scenario(minimal_doc(**{section: {selector: ["r"]}}))


def _with_node(index, **keys):
    doc = minimal_doc()
    doc["nodes"][index].update(keys)
    return doc


def _with_nodes(*nodes, links=()):
    doc = minimal_doc()
    doc["nodes"].extend(nodes)
    doc["links"].extend({"endpoints": list(ends), "bandwidth_mbps": 1, "delay_ms": 1}
                        for ends in links)
    return doc


def _with_attack(**keys):
    attack = {"kind": "flood-static", "zombies": ["z"], "target_prefix": "/v",
              "name_pool": ["/v/a"], "rate_per_s": 5, "start_ms": 0, "stop_ms": 50}
    doc = _with_nodes({"id": "z", "role": "zombie"}, links=[("z", "r")])
    doc["attacks"] = [{**attack, **keys}]
    return doc


def _consumer_of(collection, **keys):
    doc = _with_node(0, collections=[{"name": "file", "fragments": 2, "window": 1}])
    doc["nodes"][2] = {"id": "c", "role": "consumer",
                       "collection": {"producer": "p", "collection": collection, **keys}}
    return doc


@pytest.mark.parametrize(
    "doc, path",
    [
        (minimal_doc(poisoning_defense={"verification": {"mode": "independent", "v": 0.5}}),
         "$.poisoning_defense.verification.v"),
        (minimal_doc(poisoning_defense={"verification": {"mode": "disjoint-plain", "v": 0.5,
                                                         "group": ["r"]}}),
         "$.poisoning_defense.verification.v"),
        (minimal_doc(poisoning_defense={"verification": {"mode": "disjoint-plain", "v": 2}}),
         "$.poisoning_defense.verification.group"),
        (_with_attack(start_ms=50, stop_ms=50), "$.attacks[0].stop_ms"),
        (_consumer_of("nope"), "$.nodes[2].collection.collection"),
        (_with_nodes({"id": "x", "role": "compromised-router", "poison_mode": "corrupted",
                      "target_prefix": "/v", "impersonate": "ghost"}), "$.nodes[3].impersonate"),
        (_with_node(0, abuse={"target_producer": "ghost", "count": 3, "collection": "k"}),
         "$.nodes[0].abuse.target_producer"),
        (_with_node(0, dynamic_prefix=5), "$.nodes[0].dynamic_prefix"),
        (_with_attack(name_pool=[5]), "$.attacks[0].name_pool[0]"),
        (_with_attack(rate_per_s="9"), "$.attacks[0].rate_per_s"),
        (minimal_doc(flooding_defense={"window_ms": "10"}), "$.flooding_defense.window_ms"),
        (_with_node(1, pit_capacity="10"), "$.nodes[1].pit_capacity"),
        (minimal_doc(preseed_cache=[{"routers": ["r"], "producer": "p", "name": "/v/a",
                                     "trust": "high"}]), "$.preseed_cache[0].trust"),
        (minimal_doc(defaults={"cs_capacity": "big"}), "$.defaults.cs_capacity"),
        (_with_nodes({"id": "q", "role": "router"},
                     links=[("q", "r")]) | {"fib": {"q": [{"prefix": "/v", "next_hops": ["p"]}]}},
         "$.fib.q[0].next_hops"),
        # A lifetime that is not positive is refused at every key that sets
        # one, as are the sweep interval and the content size quotas divide by.
        (minimal_doc(defaults={"interest_lifetime_ms": 0}), "$.defaults.interest_lifetime_ms"),
        (minimal_doc(flooding_defense={"interest_timeout_ms": 0}),
         "$.flooding_defense.interest_timeout_ms"),
        (minimal_doc(defaults={"pit_sweep_interval_ms": 0}), "$.defaults.pit_sweep_interval_ms"),
        (minimal_doc(defaults={"avg_content_size_bytes": -5}),
         "$.defaults.avg_content_size_bytes"),
        (minimal_doc(flooding_defense={"avg_content_size_bytes": 0}),
         "$.flooding_defense.avg_content_size_bytes"),
        (_with_node(2, requests={"names": ["/v/a"], "at_ms": [1], "lifetime_ms": -5}),
         "$.nodes[2].requests.lifetime_ms"),
        (_consumer_of("file", lifetime_ms=0), "$.nodes[2].collection.lifetime_ms"),
        (_with_attack(lifetime_ms=-5), "$.attacks[0].lifetime_ms"),
        # A consumer cycles through its names: it needs at least one.
        (_with_node(2, requests={"names": [], "at_ms": [1]}), "$.nodes[2].requests.names"),
        # A zero scan interval requeued its tick at the same instant forever.
        (minimal_doc(poisoning_defense={"verification": {"mode": "independent",
                                                         "scan_interval_ms": 0}}),
         "$.poisoning_defense.verification.scan_interval_ms"),
        # A zero window turned the flooding defense into a bare quota.
        (minimal_doc(flooding_defense={"window_ms": 0}), "$.flooding_defense.window_ms"),
        (_with_node(2, requests={"names": ["/v/a"], "rate_per_s": -1, "stop_ms": 50}),
         "$.nodes[2].requests.rate_per_s"),
    ],
    ids=["verifier-v", "verifier-v-group", "verifier-group", "attack-window", "missing-collection", "impersonate", "abuse-target", "dynamic-prefix",
         "name-pool", "attack-rate", "window-ms", "pit-capacity", "trust", "defaults",
         "fib-hop-unlinked", "default-lifetime", "flooding-timeout", "sweep-interval",
         "default-content-size", "flooding-content-size", "request-lifetime",
         "collection-lifetime", "attack-lifetime", "empty-request-names", "scan-interval",
         "window-ms-zero", "request-rate"],
)
def test_bad_input_rejected_at_its_path(doc, path):
    errs = violations(doc)
    assert [e.split(": ")[0] for e in errs] == [path], errs


def _with_link(**keys):
    doc = minimal_doc()
    doc["links"][0].update(keys)
    return doc


@pytest.mark.parametrize(
    "doc, violation",
    [
        (_with_node(2, requests={"names": ["/v/a"], "at_ms": [1], "mode": "s-scid"}),
         "$.nodes[2].requests.mode: must be one of plain, d-scid"),
        (_consumer_of("file", mode="bogus"),
         "$.nodes[2].collection.mode: must be one of plain, s-scid, d-scid, combined"),
        (_with_nodes({"id": "x", "role": "compromised-router", "poison_mode": "evil",
                      "target_prefix": "/v"}),
         "$.nodes[3].poison_mode: must be one of corrupted, fake"),
        (_with_link(kind="quantum"), "$.links[0].kind: must be one of p2p, broadcast"),
        (_with_link(bandwidth_mbps=0), "$.links[0].bandwidth_mbps: must be positive"),
        (_with_link(delay_ms=-1), "$.links[0].delay_ms: must not be negative"),
        (minimal_doc(fib={"r": [{"prefix": "/v", "next_hops": []}]}),
         "$.fib.r[0].next_hops: must not be empty"),
        (_with_node(0, collections=[{"name": "file", "fragments": 0, "window": 1}]),
         "$.nodes[0].collections[0].fragments: must be positive"),
        (_with_node(0, collections=[{"name": "file", "fragments": 2, "window": 0}]),
         "$.nodes[0].collections[0].window: must be positive"),
        (_with_node(0, abuse={"target_producer": "p", "count": 0, "collection": "k"}),
         "$.nodes[0].abuse.count: must be positive"),
        (minimal_doc(flooding_defense={"namespace_quotas": {"/v": 0}}),
         "$.flooding_defense.namespace_quotas./v: must be positive"),
        (minimal_doc(seed=-1), "$.seed: must not be negative"),
        (minimal_doc(seed=2 ** 64), "$.seed: must be at most 18446744073709551615"),
        (minimal_doc(fib={"r": [{"prefix": "/v", "next_hops": ["p"]},
                                {"prefix": "/%76", "next_hops": ["c"]}]}),
         "$.fib.r[1].prefix: repeats an earlier route's prefix"),
        (minimal_doc(flooding_defense={"namespace_quotas": {"/v": 5, "/%76": 6}}),
         "$.flooding_defense.namespace_quotas./%76: repeats the key '/v'"),
        (_with_attack(kind="bogus"), f"$.attacks[0].kind: must be one of {', '.join(ATTACK_KINDS)}"),
        (_with_attack(rate_per_s=0), "$.attacks[0].rate_per_s: must be positive"),
        (_with_attack(target_prefix="/ndn/warning"), "$.attacks[0].target_prefix: reserved namespace"),
        (_with_attack(name_pool=["/v/a", "/ndn/pushback/x"]),
         "$.attacks[0].name_pool[1]: reserved namespace"),
        (_with_attack(kind="flood-dynamic", dynamic_under="/ndn/feedback/live"),
         "$.attacks[0].dynamic_under: reserved namespace"),
        (_with_attack(kind="poison-anticipate", content_names=["/v/a", "/ndn/warning"]),
         "$.attacks[0].content_names[1]: reserved namespace"),
        (minimal_doc(poisoning_defense={"verification": {"mode": "bogus"}}),
         "$.poisoning_defense.verification.mode: "
         "must be one of off, independent, disjoint-plain, disjoint-hmac"),
        (minimal_doc(poisoning_defense={"neighbor_feedback": {"p": 7}}),
         "$.poisoning_defense.neighbor_feedback.p: must be at most 1"),
        (minimal_doc(poisoning_defense={"neighbor_feedback": {"p": -0.5}}),
         "$.poisoning_defense.neighbor_feedback.p: must not be negative"),
        (minimal_doc(poisoning_defense={"neighbor_feedback": {"cooldown_ms": -3}}),
         "$.poisoning_defense.neighbor_feedback.cooldown_ms: must not be negative"),
        (minimal_doc(poisoning_defense={"consumer_feedback": {"alpha": 1.5}}),
         "$.poisoning_defense.consumer_feedback.alpha: must be at most 1"),
        (minimal_doc(poisoning_defense={"consumer_feedback": {"beta": -2}}),
         "$.poisoning_defense.consumer_feedback.beta: must not be negative"),
        (minimal_doc(poisoning_defense={"consumer_feedback": {"threshold": -1}}),
         "$.poisoning_defense.consumer_feedback.threshold: must be positive"),
        (minimal_doc(poisoning_defense={"consumer_feedback": {"window_ms": 0}}),
         "$.poisoning_defense.consumer_feedback.window_ms: must be positive"),
        (_consumer_of("file", max_retries=-1),
         "$.nodes[2].collection.max_retries: must not be negative"),
        (_consumer_of("file", exclude_cap=-1),
         "$.nodes[2].collection.exclude_cap: must not be negative"),
        (minimal_doc(flooding_defense={"outgoing_quota_override": 0}),
         "$.flooding_defense.outgoing_quota_override: must be positive"),
        (minimal_doc(flooding_defense={"incoming_limit_override": -4}),
         "$.flooding_defense.incoming_limit_override: must be positive"),
    ],
    ids=["request-mode", "collection-mode", "poison-mode", "link-kind", "link-bandwidth",
         "link-delay", "empty-next-hops", "fragments", "window", "abuse-count",
         "namespace-quota", "seed", "huge-seed", "repeated-route", "repeated-quota",
         "attack-kind", "attack-rate-zero", "attack-control-target", "attack-control-pool",
         "attack-control-dynamic", "attack-control-content", "verifier-mode", "neighbor-p-above-one",
         "neighbor-p-negative", "neighbor-cooldown", "consumer-alpha", "consumer-beta",
         "consumer-threshold", "consumer-window", "collection-retries", "collection-exclude-cap",
         "outgoing-quota-override", "incoming-limit-override"],
)
def test_each_rule_refused_once_with_its_message(doc, violation):
    """Each rule is type metadata on the field or parameter it bounds, and
    is reported once, at the value's path. A seed outside 0..2**64-1
    loaded, and then failed in `Rng` at build time; a second route or
    quota for one prefix silently replaced the first."""
    assert violations(doc) == [violation]


def test_an_entry_reports_each_bad_bound():
    assert violations(_with_link(bandwidth_mbps=0, delay_ms=-1)) == [
        "$.links[0].bandwidth_mbps: must be positive", "$.links[0].delay_ms: must not be negative"]


@pytest.mark.parametrize("key", ["sign_service_us", "static_service_us", "verify_service_us"])
def test_service_times_must_not_be_negative(key):
    """A negative service time would schedule into the past, so it is
    refused at load; zero, a free service, loads and runs."""
    assert violations(minimal_doc(defaults={key: -1})) == [
        f"$.defaults.{key}: must not be negative"]
    doc = minimal_doc(defaults={key: 0}, poisoning_defense={"verification": {"mode": "independent"}})
    build_sim(load_scenario(doc), seed=1).run()


def _chain_flood(**changes):
    """The canonical fixture with `changes` laid over it, each a dotted
    path into the document (list indexes as digits) and its new value."""
    doc = json.loads((FIXTURES / "chain_flood.json").read_text())
    for dotted, value in changes.items():
        *parents, last = dotted.split(".")
        target = doc
        for part in parents:
            target = target[int(part)] if part.isdigit() else target[part]
        target[last] = value
    return doc


_SCHEDULED = {"unique_under": "/victim/live", "at_ms": [-5]}


@pytest.mark.parametrize(
    "doc, path",
    [
        (_chain_flood(**{"defaults.cs_capacity": -1}), "$.defaults.cs_capacity"),
        (_chain_flood(**{"defaults.pit_capacity": -1}), "$.defaults.pit_capacity"),
        (_chain_flood(**{"nodes.1.cs_capacity": -1}), "$.nodes[1].cs_capacity"),
        (_chain_flood(**{"nodes.4.requests": _SCHEDULED}), "$.nodes[4].requests.at_ms[0]"),
        (_chain_flood(**{"nodes.4.requests.start_ms": -50}), "$.nodes[4].requests.start_ms"),
        (_chain_flood(**{"attacks.0.start_ms": -5}), "$.attacks[0].start_ms"),
        (_consumer_of("file", start_ms=-1), "$.nodes[2].collection.start_ms"),
        (_chain_flood(**{"defaults.payload_size_bytes": -1}), "$.defaults.payload_size_bytes"),
        (_with_node(0, payload_size_bytes=-1), "$.nodes[0].payload_size_bytes"),
        (_with_node(0, collections=[{"name": "file", "fragments": 2, "window": 1,
                                     "payload_size_bytes": -1}]),
         "$.nodes[0].collections[0].payload_size_bytes"),
        (_chain_flood(**{"nodes.4.requests.retries": -1}), "$.nodes[4].requests.retries"),
        (_chain_flood(**{"attacks.0.jitter_ms": -1}), "$.attacks[0].jitter_ms"),
    ],
    ids=["default-cs-capacity", "default-pit-capacity", "router-cs-capacity", "request-at-ms",
         "request-start", "attack-start", "collection-start", "default-payload-size",
         "producer-payload-size", "collection-payload-size", "request-retries", "attack-jitter"],
)
def test_negative_capacities_and_times_rejected_at_their_path(doc, path):
    """A negative capacity or send time loaded and then failed inside the
    run (an `IndexError` in CS eviction, every interest dropped as PIT
    overflow, or an event scheduled into the past), and a negative size,
    retry count or jitter loaded and ran as something else (empty payloads,
    no retry, no spread); each is refused at the key that sets it."""
    assert violations(doc) == [f"{path}: must not be negative"]


@pytest.mark.parametrize(
    "key, bad, message, least",
    [
        ("pushback_cooldown_ms", -1, "must not be negative", 0),
        ("pushback_ttl", -1, "must be positive", 1),
        ("min_throttle", -1.0, "must not be negative", 0.0),
    ],
)
def test_pushback_knobs_are_bounded(key, bad, message, least):
    """A negative push-back cooldown or TTL loaded and multiplied the
    push-backs a defended router sends (on the 2 s chain fixture r1's
    namespace-quota rejects rose from 171 to 800); each knob is refused
    below its least sensible value, which loads."""
    assert violations(minimal_doc(flooding_defense={key: bad})) == [
        f"$.flooding_defense.{key}: {message}"]
    load_scenario(minimal_doc(flooding_defense={key: least}))


@pytest.mark.parametrize(
    "doc, path",
    [
        (_with_node(2, requests={"names": ["/v/a"], "rate_per_s": 5, "start_ms": 10,
                                 "stop_ms": 10}), "$.nodes[2].requests.stop_ms"),
        (_chain_flood(**{"nodes.4.requests.stop_ms": -5}), "$.nodes[4].requests.stop_ms"),
    ],
    ids=["empty-window", "chain-stop-before-start"],
)
def test_rate_consumer_start_must_precede_stop(doc, path):
    """A rate-driven consumer whose window is empty loaded and silently
    sent nothing; it is refused at its stop time, as an attack is."""
    assert violations(doc) == [f"{path}: request start must precede stop"]


@pytest.mark.parametrize(
    "doc, violation",
    [
        (minimal_doc(links=minimal_doc()["links"][1:]),
         "$.nodes[2]: no link joins 'c' to the network"),
        (_with_nodes({"id": "z", "role": "zombie"}), "$.nodes[3]: no link joins 'z' to the network"),
    ],
    ids=["consumer", "zombie"],
)
def test_consumer_or_zombie_on_no_link_is_refused(doc, violation):
    """A consumer or zombie that no link joins loaded and built, and then
    `Sim.run` raised `AttributeError` when it first sent."""
    assert violations(doc) == [violation]


_DELETE = object()
_MUTATIONS = (_DELETE, "x", 0, -1, [], {}, math.nan, math.inf, -math.inf)


def _positions(value, at=()):
    """The path of every value inside `value`, containers included."""
    if isinstance(value, (dict, list)):
        for key, child in value.items() if isinstance(value, dict) else enumerate(value):
            yield at + (key,)
            yield from _positions(child, at + (key,))


def _mutant(doc: dict, at: tuple, new) -> dict:
    doc = copy.deepcopy(doc)
    *parents, last = at
    target = doc
    for key in parents:
        target = target[key]
    if new is _DELETE:
        del target[last]
    else:
        target[last] = copy.deepcopy(new)
    return doc


def _refused_at_a_path_or_runs(doc: dict) -> None:
    """Either the loader refuses `doc` with every violation at a `$` path,
    or every arm builds and runs its first 300 ms."""
    try:
        scenario = load_scenario(doc)
    except ScenarioError as exc:
        assert exc.violations and all(v.startswith(("$.", "$:")) for v in exc.violations), exc
        return
    for arm in scenario.arm_names() or [None]:
        sim = build_sim(scenario, scenario.seed, arm)
        sim.duration_ms = min(sim.duration_ms, 300)
        sim.run()


def test_every_mutant_of_the_fixture_is_refused_or_runs():
    """Every value in the canonical fixture, containers included, deleted or
    replaced by a string, zero, -1, an empty list or object, a NaN or an
    infinity of either sign. Huge finite values are left out: they need
    stated upper limits first."""
    doc = json.loads((FIXTURES / "chain_flood.json").read_text())
    failed = []
    for at in _positions(doc):
        for new in _MUTATIONS:
            try:
                _refused_at_a_path_or_runs(_mutant(doc, at, new))
            except Exception as exc:  # each failing mutant is listed
                failed.append((at, "delete" if new is _DELETE else new, repr(exc)))
    assert not failed


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_mutants_of_the_golden_documents_are_refused_or_run(data):
    """A fixed sample of the same mutations over every golden document."""
    doc = DOCS[data.draw(st.sampled_from(sorted(DOCS)))]()
    at = data.draw(st.sampled_from(list(_positions(doc))))
    _refused_at_a_path_or_runs(_mutant(doc, at, data.draw(st.sampled_from(_MUTATIONS))))


def _benchmark_workloads() -> dict:
    """perfbench's workload builders, by name, from its `workloads.py`,
    loaded from the file (read only) so that nothing joins `sys.path`."""
    path = FIXTURES.parent.parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


WORKLOADS = _benchmark_workloads()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data())
def test_mutants_of_the_benchmark_workloads_are_refused_or_run(data):
    """A fixed sample of the same mutations over the three benchmark
    workload documents, which are larger than the golden ones."""
    doc = WORKLOADS[data.draw(st.sampled_from(sorted(WORKLOADS)))]()
    at = data.draw(st.sampled_from(list(_positions(doc))))
    _refused_at_a_path_or_runs(_mutant(doc, at, data.draw(st.sampled_from(_MUTATIONS))))

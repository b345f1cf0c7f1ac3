"""Golden digests: behaviour pinned across versions, not only across reruns.

Each scenario is run the way `ndnshield run` runs it, and the SHA-256 of
every file it writes (one metrics CSV per arm plus summary.json) must
equal the digest recorded here. The digests were taken before the content
store's eviction was reworked and are never regenerated to make a change
pass: a mismatch means the simulator's behaviour changed.

  * chain_flood: the committed fixture, both arms, cut to 5 s.
  * dynamic_flood: a short c05-style flood whose 48-entry caches evict on
    every insert once full.
  * poisoned_cs: corrupted content read through 24-entry caches, where
    evictions coincide with verification, consumer feedback and positive
    retrieval changing the trust of cached entries. This is the scenario
    that catches a wrong victim order.
  * broadcast: two shared segments whose endpoints are listed out of
    sorted order, a consumer and a router on both, a slow upstream and
    2-entry caches, so each receiver's own interface on the segment and
    overhear suppression shape the output. Two routers on one segment
    forward each interest to one shared router, which drops the later
    copy as a duplicate nonce, so which of them is served and which
    overhears depends on the order the segment delivers to them.
  * keydigest_flood, exclude_flood: the fixture cut to 5 s, both arms,
    with the paper's other two unsatisfiable-interest floods in place of
    the nonce flood. A router that does not enforce D-SCID answers a
    key-digest interest for /victim from any cached /victim content. The
    exclude interests all carry one name and one filter, so the first
    router collapses them into one pending entry, and each makes a CS
    lookup test every cached entry under /victim against the filter.
    Neither flood fills a PIT, so the defended arm's CSV equals the
    undefended one's. Their digests were taken before finished runs were
    freed without the cyclic collector.
  * pushback: two zombies and two honest consumers whose interests live
    700, 1500 and 2500 ms, so PIT entries expire out of insertion order
    while the namespace quota trips and push-back travels up the chain.

The digests of the last two were taken from the code as it was before
the event loop, the delivery path and the PIT's expiry index were
reworked.

Short versions of four acceptance scenarios pin the consumer deadline
and the poisoning defense paths (their digests were taken before
consumers shared one expiry event and cached entries kept their
verifier residue):

  * keylocator_abuse (c06): consumers chase fake named keys that never
    resolve, so every key fetch times out.
  * chained_retries (c09): hash-chained collection reads through a router
    whose first choice answers with fake copies of anticipated fragments,
    so fragment interests time out and are retried.
  * hmac_partition (c11): catalog, collection and corrupted reads under
    keyed disjoint verification with warnings and consumer feedback; one
    consumer asks for names nobody serves, so its requests time out, retry
    and are replaced by newer requests for the same name.
  * neighbor_warnings (c12): the corrupted ring purged by MAC'd warnings.

That no byte depends on the string hash seed is checked in
`test_equivalence.py`, on the fixture at its full length.

Two invariants are checked while the documents run: after every PIT sweep
the flooding defense's pending counts equal what the live PIT entries
imply (also over an unpinned document, shared_names, in which interests
collapse on defended routers), and at every metrics tick a node's stats
are the counter columns in order and each gauge it reports has a CSV
column or is one of the few known to have none yet. A collection
consumer settles its fetch at most once.

`Network.run` pauses the cyclic garbage collector, so a finished run must
be freed by reference counting alone: once the `Sim` of any arm is
dropped, its network and every node are gone without a collection.
"""

from __future__ import annotations

import gc
import hashlib
import json
import weakref
from collections import Counter
from pathlib import Path

import pytest
from cryptography.hazmat.primitives import serialization

from helpers import FIXTURE
from ndnshield import crypto
from ndnshield.experiment import run_experiment, run_simulation
from ndnshield.flooding import FloodingDefense
from ndnshield.metrics import COLUMNS, COUNTER_COLUMNS, MetricsCollector, load_csv
from ndnshield.nodes import CollectionConsumer
from ndnshield.router import Router
from ndnshield.scenario import build_sim, load_scenario

LINK = {"bandwidth_mbps": 100, "delay_ms": 1}


def _link(a: str, b: str) -> dict:
    return {"endpoints": [a, b], **LINK}


def chain_flood_doc() -> dict:
    doc = json.loads(FIXTURE.read_text())
    doc["duration_ms"] = 5000
    return doc


def _chain_flood_of_kind(tag: str) -> dict:
    """The fixture cut to 5 s, both arms, with its zombie's flood kind
    changed to `flood-unsat-<tag>`."""
    doc = chain_flood_doc()
    doc["name"] = f"golden-{tag}-flood"
    doc["attacks"][0]["kind"] = f"flood-unsat-{tag}"
    return doc


def keydigest_flood_doc() -> dict:
    return _chain_flood_of_kind("keydigest")


def exclude_flood_doc() -> dict:
    return _chain_flood_of_kind("exclude")


def dynamic_flood_doc() -> dict:
    leaves = ["r2a", "r2b", "r2c", "r2d"]
    zombies = [f"z{i}" for i in range(8)]
    upstream = {"r1a": "r0", "r1b": "r0", "r2a": "r1a", "r2b": "r1a", "r2c": "r1b", "r2d": "r1b"}
    return {
        "name": "golden-dynamic-flood", "duration_ms": 600, "seed": 105,
        "defaults": {"sign_service_us": 250, "cs_capacity": 48},
        "nodes": ([{"id": "p", "role": "producer", "prefix": "/victim",
                    "dynamic_prefix": "live"},
                   {"id": "r0", "role": "router"}]
                  + [{"id": r, "role": "router"} for r in upstream]
                  + [{"id": z, "role": "zombie"} for z in zombies]),
        "links": ([_link("r0", "p")] + [_link(r, up) for r, up in upstream.items()]
                  + [_link(z, leaves[i // 2]) for i, z in enumerate(zombies)]),
        "fib": {"r0": [{"prefix": "/victim", "next_hops": ["p"]}],
                **{r: [{"prefix": "/victim", "next_hops": [up]}] for r, up in upstream.items()}},
        "attacks": [{"kind": "flood-dynamic", "zombies": zombies, "target_prefix": "/victim",
                     "dynamic_under": "/victim/live", "rate_per_s": 250,
                     "start_ms": 0, "stop_ms": 600}],
    }


def _poisoned_names(consumer: int) -> list[str]:
    """Every 5th request is for /shop/hot, which the compromised router answers."""
    return [f"/shop/hot/h{(consumer + k) % 6}" if k % 5 == 4
            else f"/shop/s{(consumer * 11 + k * 7) % 64}"
            for k in range(40)]


def poisoned_cs_doc() -> dict:
    leaves = ["r1", "r2"]
    consumers = [f"q{i}" for i in range(6)]
    nodes = [
        {"id": "p", "role": "producer", "prefix": "/shop",
         "static_names": [f"s{i}" for i in range(64)]},
        {"id": "r0", "role": "router"},
        *({"id": r, "role": "router"} for r in leaves),
        {"id": "cx", "role": "compromised-router", "poison_mode": "corrupted",
         "target_prefix": "/shop/hot", "impersonate": "p"},
    ]
    nodes += [{"id": q, "role": "consumer",
               "requests": {"names": _poisoned_names(i), "rate_per_s": 25, "start_ms": 0,
                            "stop_ms": 3500, "retries": 0, "mode": "d-scid",
                            "trusted_producer": "p"}}
              for i, q in enumerate(consumers)]
    return {
        "name": "golden-poisoned-cs", "duration_ms": 4000, "seed": 21,
        "defaults": {"cs_capacity": 24},
        "nodes": nodes,
        "links": ([_link("r0", "p"), _link("r0", "cx")] + [_link(r, "r0") for r in leaves]
                  + [_link(q, leaves[i % 2]) for i, q in enumerate(consumers)]),
        "fib": {"r0": [{"prefix": "/shop", "next_hops": ["p"]},
                       {"prefix": "/shop/hot", "next_hops": ["cx"]}],
                **{r: [{"prefix": "/shop", "next_hops": ["r0"]}] for r in leaves}},
        "poisoning_defense": {
            "enforce_dscid": True,
            "verification": {"mode": "independent", "v": 4, "scan_interval_ms": 500},
            "neighbor_feedback": {"enabled": True},
            "consumer_feedback": {"enabled": True, "threshold": 2},
        },
    }


def broadcast_doc() -> dict:
    names = [f"/victim/s{i}" for i in range(12)]
    segment = {"bandwidth_mbps": 20, "delay_ms": 1, "kind": "broadcast"}
    return {
        "name": "golden-broadcast", "duration_ms": 1500, "seed": 202,
        "defaults": {"cs_capacity": 2},
        "nodes": [
            {"id": "p", "role": "producer", "prefix": "/victim",
             "static_names": [f"s{i}" for i in range(12)]},
            *({"id": r, "role": "router"} for r in ("a1", "a2", "b1", "b2", "x")),
            {"id": "v1", "role": "consumer",
             "requests": {"names": names, "rate_per_s": 40, "start_ms": 0, "stop_ms": 1200,
                          "retries": 1, "send_on_all_interfaces": True}},
            {"id": "v2", "role": "consumer",
             "requests": {"names": names[::-1], "rate_per_s": 30, "start_ms": 5,
                          "stop_ms": 1200, "retries": 0}},
            {"id": "v3", "role": "consumer",
             "requests": {"names": names[3:], "rate_per_s": 25, "start_ms": 0,
                          "stop_ms": 1200, "retries": 0}},
        ],
        "links": [
            {"endpoints": ["v2", "a2", "v1", "a1"], **segment},
            {"endpoints": ["b2", "v1", "v3", "b1", "a1"], **segment, "delay_ms": 2},
            _link("a1", "p"),
            {"endpoints": ["a2", "p"], "bandwidth_mbps": 100, "delay_ms": 4},
            _link("b1", "x"),
            _link("x", "b2"),
            _link("x", "p"),
        ],
        "fib": {r: [{"prefix": "/victim", "next_hops": [up]}]
                for r, up in (("a1", "p"), ("a2", "p"), ("b1", "x"), ("b2", "x"), ("x", "p"))},
    }


def pushback_doc() -> dict:
    def consumer(rate: int, retries: int, lifetime_ms: int) -> dict:
        return {"unique_under": "/victim/live", "rate_per_s": rate, "start_ms": 0,
                "stop_ms": 5000, "retries": retries, "lifetime_ms": lifetime_ms}

    chain = {"r3": "r2", "r2": "r1", "r1": "p"}
    return {
        "name": "golden-pushback", "duration_ms": 5000, "seed": 303,
        "defaults": {"pit_capacity": 400, "interest_lifetime_ms": 1500},
        "nodes": [
            {"id": "p", "role": "producer", "prefix": "/victim", "dynamic_prefix": "live"},
            *({"id": r, "role": "router"} for r in chain),
            {"id": "h1", "role": "consumer", "requests": consumer(20, 1, 700)},
            {"id": "h2", "role": "consumer", "requests": consumer(15, 0, 2500)},
            {"id": "z1", "role": "zombie"},
            {"id": "z2", "role": "zombie"},
        ],
        "links": ([_link("z1", "r3"), _link("h1", "r3"), _link("z2", "r2"), _link("h2", "r2")]
                  + [_link(r, up) for r, up in chain.items()]),
        "fib": {r: [{"prefix": "/victim", "next_hops": [up]}] for r, up in chain.items()},
        "attacks": [
            {"kind": "flood-unsat-nonce", "zombies": ["z1"], "target_prefix": "/victim",
             "rate_per_s": 300, "start_ms": 0, "stop_ms": 5000},
            {"kind": "flood-unsat-nonce", "zombies": ["z2"], "target_prefix": "/victim",
             "rate_per_s": 200, "start_ms": 200, "stop_ms": 4000},
        ],
        "flooding_defense": {"namespace_quotas": {"/victim": 150}, "quota_routers": ["r1"],
                             "window_ms": 2000, "pushback_cooldown_ms": 500,
                             "pushback_ttl": 4},
    }


def keylocator_abuse_doc() -> dict:
    consumers = [f"c{i}" for i in range(6)]
    return {
        "name": "golden-keylocator-abuse", "duration_ms": 2500, "seed": 106,
        "defaults": {"payload_size_bytes": 256, "interest_lifetime_ms": 600},
        "nodes": ([{"id": "v", "role": "producer", "prefix": "/victim"},
                   {"id": "e", "role": "producer", "prefix": "/evil",
                    "abuse": {"target_producer": "v", "count": 24, "collection": "video"}},
                   {"id": "rc", "role": "router"}, {"id": "re", "role": "router"},
                   {"id": "rv", "role": "router"}]
                  + [{"id": c, "role": "consumer",
                      "collection": {"producer": "e", "collection": "video", "window": 4,
                                     "start_ms": 150 * i}}
                     for i, c in enumerate(consumers)]),
        "links": ([_link("rc", "re"), _link("rc", "rv"), _link("re", "e"), _link("rv", "v")]
                  + [_link(c, "rc") for c in consumers]),
        "fib": {"rc": [{"prefix": "/evil", "next_hops": ["re"]},
                       {"prefix": "/victim", "next_hops": ["rv"]}],
                "re": [{"prefix": "/evil", "next_hops": ["e"]}],
                "rv": [{"prefix": "/victim", "next_hops": ["v"]}]},
    }


def chained_retries_doc() -> dict:
    return {
        "name": "golden-chained-retries", "duration_ms": 3000, "seed": 109,
        "defaults": {"interest_lifetime_ms": 300},
        "nodes": [
            {"id": "p", "role": "producer", "prefix": "/victim",
             "collections": [{"name": "file", "fragments": 16, "window": 4}]},
            {"id": "ra", "role": "router"}, {"id": "rb", "role": "router"},
            {"id": "cx", "role": "compromised-router", "poison_mode": "fake",
             "target_prefix": "/victim"},
            {"id": "c", "role": "consumer",
             "collection": {"producer": "p", "collection": "file", "mode": "combined",
                            "window": 4, "start_ms": 500}},
            {"id": "d", "role": "consumer",
             "collection": {"producer": "p", "collection": "file", "mode": "d-scid",
                            "window": 2, "start_ms": 700}},
            {"id": "e", "role": "consumer",
             "collection": {"producer": "p", "collection": "file", "mode": "combined",
                            "window": 3, "start_ms": 1400}},
            {"id": "z", "role": "zombie"},
        ],
        "links": [_link("c", "ra"), _link("d", "ra"), _link("e", "ra"), _link("z", "ra"), _link("ra", "rb"),
                  _link("rb", "cx"), _link("rb", "p")],
        "fib": {"ra": [{"prefix": "/victim", "next_hops": ["rb"]}],
                "rb": [{"prefix": "/victim", "next_hops": ["cx", "p"]}]},
        "attacks": [{"kind": "poison-anticipate", "zombies": ["z"],
                     "target_prefix": "/victim", "content_names": [f"/victim/file/{i}" for i in (1, 2, 5, 9)],
                     "start_ms": 0, "stop_ms": 400, "jitter_ms": 50}],
        "poisoning_defense": {"enforce_dscid": True, "enforce_sscid": True,
                              "routers": ["ra", "rb"]},
    }


def hmac_partition_doc() -> dict:
    leaves = ["r1", "r2", "r3"]
    requesters = [f"q{i}" for i in range(4)]

    def names(i: int) -> list[str]:
        return [f"/shop/hot/g{i % 2}-{k}" if k % 6 == 5 else f"/shop/s{(i * 7 + k * 5) % 48}"
                for k in range(24)]

    nodes = [
        {"id": "p", "role": "producer", "prefix": "/shop",
         "static_names": [f"s{i}" for i in range(48)],
         "collections": [{"name": "file", "fragments": 30, "window": 4}]},
        {"id": "r0", "role": "router"},
        *({"id": r, "role": "router"} for r in leaves),
        {"id": "cx", "role": "compromised-router", "poison_mode": "corrupted",
         "target_prefix": "/shop/hot", "impersonate": "p"},
    ]
    nodes += [{"id": q, "role": "consumer",
               "requests": {"names": names(i), "rate_per_s": 30, "start_ms": 0,
                            "stop_ms": 2500, "retries": 1, "mode": "d-scid",
                            "trusted_producer": "p"}}
              for i, q in enumerate(requesters)]
    nodes += [{"id": "m", "role": "consumer",
               "requests": {"names": ["/shop/missing/a", "/shop/missing/b", "/shop/missing/c"],
                            "rate_per_s": 8, "start_ms": 0, "stop_ms": 2500, "retries": 2,
                            "lifetime_ms": 300}},
              {"id": "k0", "role": "consumer",
               "collection": {"producer": "p", "collection": "file", "mode": "combined",
                              "window": 4, "start_ms": 300}}]
    edge = requesters + ["m", "k0"]
    return {
        "name": "golden-hmac-partition", "duration_ms": 3000, "seed": 111,
        "defaults": {"cs_capacity": 64},
        "nodes": nodes,
        "links": ([_link("r0", "p"), _link("r0", "cx")] + [_link(r, "r0") for r in leaves]
                  + [_link(c, leaves[i % 3]) for i, c in enumerate(edge)]),
        "fib": {"r0": [{"prefix": "/shop", "next_hops": ["p"]},
                       {"prefix": "/shop/hot", "next_hops": ["cx"]}],
                **{r: [{"prefix": "/shop", "next_hops": ["r0"]}] for r in leaves}},
        "poisoning_defense": {
            "enforce_dscid": True,
            "enforce_sscid": True,
            "verification": {"mode": "disjoint-hmac", "v": 4, "group": ["r0", *leaves],
                             "scan_interval_ms": 250},
            "neighbor_feedback": {"enabled": True},
            "consumer_feedback": {"enabled": True},
        },
    }


def neighbor_warnings_doc() -> dict:
    ring = [f"r{i}" for i in range(5)]
    return {
        "name": "golden-neighbor-warnings", "duration_ms": 8000, "seed": 1000,
        "metrics_tick_ms": 100,
        "nodes": ([{"id": r, "role": "router"} for r in ring]
                  + [{"id": "p", "role": "producer", "prefix": "/victim"}]),
        "links": [_link(ring[i], ring[(i + 1) % 5]) for i in range(5)],
        "preseed_cache": [{"routers": ring, "producer": "p", "name": "/victim/x",
                           "corrupt": True}],
        "poisoning_defense": {
            "verification": {"mode": "independent", "v": 5, "scan_interval_ms": 1000},
            "neighbor_feedback": {"enabled": True, "p": 1.0},
        },
    }


DOCS = {
    "broadcast": broadcast_doc,
    "chained_retries": chained_retries_doc,
    "hmac_partition": hmac_partition_doc,
    "keylocator_abuse": keylocator_abuse_doc,
    "neighbor_warnings": neighbor_warnings_doc,
    "pushback": pushback_doc,
    "chain_flood": chain_flood_doc,
    "keydigest_flood": keydigest_flood_doc,
    "exclude_flood": exclude_flood_doc,
    "dynamic_flood": dynamic_flood_doc,
    "poisoned_cs": poisoned_cs_doc,
}

GOLDEN = {
    "broadcast": {
        "golden-broadcast_base_rep0.csv":
            "fed9e391bbc1bbcfbcab318a18b78be8eb6c28f5c98dd43cbcd22d5ee10ca850",
        "golden-broadcast_summary.json":
            "97b046861b4fb4a1f9be5bf9335d8fae402add955a69f5d4bb6543cbb232fca5",
    },
    "pushback": {
        "golden-pushback_base_rep0.csv":
            "c1780eeb8ef9ec583418b09a389f8f387250d1d99119a743f126741f463c39e0",
        "golden-pushback_summary.json":
            "8e46b25ab5da09d59a394175f92af493de7da3484a0892eca832275134a3483a",
    },
    "chained_retries": {
        "golden-chained-retries_base_rep0.csv":
            "f641e620357aa868ba8d3f0eee0e50acb4e0aca30f23917a0a7281e31f66e9d5",
        "golden-chained-retries_summary.json":
            "fdf3b24b8070ab676eebae48bed01c012308f7432c0dfae81e98f80c8bf84473",
    },
    "hmac_partition": {
        "golden-hmac-partition_base_rep0.csv":
            "6e3458461fdf1409188b68895f5a3411c2ae555e8bec03f0b1c8ab5c66393262",
        "golden-hmac-partition_summary.json":
            "90d815b6afe3735660755efbfbfffbff0c59b2f6af2a9487a3223a4cf422f64e",
    },
    "keylocator_abuse": {
        "golden-keylocator-abuse_base_rep0.csv":
            "5d1ed85e033eb557586d2d15b51c6a78c29d8e8a1e5e606111ef25e8b7fe571d",
        "golden-keylocator-abuse_summary.json":
            "70732bb6875f63bdc6e3a5ca30d69047252d4c9c83ef9f54fc35a6f9028ac8fc",
    },
    "neighbor_warnings": {
        "golden-neighbor-warnings_base_rep0.csv":
            "2966ed5279b41f504f19bd38210708683cdbb266cba43631a4045149589904b1",
        "golden-neighbor-warnings_summary.json":
            "6d49db5cd646458d059d1c12b8a89196040f6d772b4d7b9cca4ebcf8f986584b",
    },
    "chain_flood": {
        "chain-flood_defended_rep0.csv":
            "212ee5bbb05a2544a121e2f01aef5cad3fad17552bc69b9ab8eb2515484fc3b4",
        "chain-flood_summary.json":
            "047aade90e10b74b20a943b0db035726ce15e23c809ef3b923e9aeab7a29c33f",
        "chain-flood_undefended_rep0.csv":
            "602f36a535fd8ede45065790688f737266064dfc0f2a8cdc55d489effcf5b409",
    },
    "keydigest_flood": {
        "golden-keydigest-flood_defended_rep0.csv":
            "32b8265f8d0ff4eebc68986a34505dc48fe4a144a6aa9fe328e20ff5a4dc72c8",
        "golden-keydigest-flood_summary.json":
            "fc8f4d71fdcdca44a8f7bbd26526b6db1c0a28e7e6787f525a92891f4a854e55",
        "golden-keydigest-flood_undefended_rep0.csv":
            "32b8265f8d0ff4eebc68986a34505dc48fe4a144a6aa9fe328e20ff5a4dc72c8",
    },
    "exclude_flood": {
        "golden-exclude-flood_defended_rep0.csv":
            "5a8069f14f20ea7ffcd1fe6abc6a5ea74802c932c5e2ced38d9da80c60bf1d78",
        "golden-exclude-flood_summary.json":
            "decf08278ae2e13f6193619677b12e3ec84ab0191bd52c9cf7d1d74b7aeea592",
        "golden-exclude-flood_undefended_rep0.csv":
            "5a8069f14f20ea7ffcd1fe6abc6a5ea74802c932c5e2ced38d9da80c60bf1d78",
    },
    "dynamic_flood": {
        "golden-dynamic-flood_base_rep0.csv":
            "5225f973b2b1e625dfa3820294e3c792e419eeafe1cd86096f5bb00fe064796f",
        "golden-dynamic-flood_summary.json":
            "85b4a2ed3cbf8104e7e66403a1a28651ce1ffc70eaa92478990e044309ccefdb",
    },
    "poisoned_cs": {
        "golden-poisoned-cs_base_rep0.csv":
            "477448310d685988ac7e1692fc771e6a4450d6bf8fefef4d87334c43563e84fd",
        "golden-poisoned-cs_summary.json":
            "46b18d5631d31720ab12752cc0e98ab7aa471758be402a26dd9b07dedc5e01d1",
    },
}


def output_digests(out_dir: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out_dir.iterdir())}


# Runs in which no signature is checked: a flood of dynamic names, and
# key fetches that never resolve.
NO_RSA_CHECK = {"dynamic_flood", "keylocator_abuse"}


@pytest.mark.parametrize("key", sorted(DOCS))
def test_golden_digests(key, tmp_path, monkeypatch):
    """The pinned bytes; and every key DER that reaches an RSA check is of
    the one form the verifier reads, `_spki_der`'s encoding of the key
    cryptography reads from it: RSA_BITS bits under RSA_EXPONENT."""
    checked = set()
    rsa_verify = crypto._rsa_verify

    def recorded(pkt, der):
        checked.add(der)
        return rsa_verify(pkt, der)

    monkeypatch.setattr(crypto, "_rsa_verify", recorded)
    run_experiment(load_scenario(DOCS[key]()), out_dir=tmp_path)
    assert output_digests(tmp_path) == GOLDEN[key]
    for der in checked:
        numbers = serialization.load_der_public_key(der).public_numbers()
        assert (numbers.n.bit_length(), numbers.e) == (crypto.RSA_BITS, crypto.RSA_EXPONENT)
        assert crypto._spki_der(numbers.n, numbers.e) == der
    assert bool(checked) == (key not in NO_RSA_CHECK)


def summary_from_csv(path: Path) -> dict:
    """A replicate's summary figures, recomputed from its CSV alone: each
    node's last row, and its largest pit_size for the PIT peak."""
    header, rows = load_csv(path)
    col = {name: i for i, name in enumerate(header)}
    rows_of: dict[str, list[list[str]]] = {}
    for row in rows:
        rows_of.setdefault(row[col["node"]], []).append(row)

    def nodes(role: str) -> list[str]:
        return [node for node, own in rows_of.items() if own[0][col["role"]] == role]

    def final(node: str, column: str) -> float:
        return float(rows_of[node][-1][col[column]])

    consumers, routers = nodes("consumer"), nodes("router")
    sent = sum(final(c, "interests_sent") for c in consumers)
    satisfied = sum(final(c, "requests_satisfied") for c in consumers)
    return {
        "honest_satisfaction_ratio": satisfied / sent if sent else 1.0,
        "poisoned_accepted": sum(final(c, "accepted_poisoned") for c in consumers),
        "poisoned_received": sum(final(c, "poisoned_received") for c in consumers),
        "pit_peak": {r: max(float(row[col["pit_size"]]) for row in rows_of[r]) for r in routers},
        "poisoned_cached": {r: final(r, "poisoned_cached") for r in routers},
        "producer_served": {p: final(p, "produced_served") for p in nodes("producer")},
    }


@pytest.mark.parametrize("key", sorted(DOCS))
def test_summary_recomputes_from_its_csv(key, tmp_path):
    run_experiment(load_scenario(DOCS[key]()), out_dir=tmp_path)
    (summary_path,) = tmp_path.glob("*_summary.json")
    for block in json.loads(summary_path.read_text())["arms"].values():
        for replicate in block["replicates"]:
            written = tmp_path / replicate.pop("csv")
            assert summary_from_csv(written) == replicate


def _run_every_arm(doc: dict) -> None:
    scenario = load_scenario(doc)
    for arm in scenario.arm_names() or [None]:
        run_simulation(scenario, scenario.seed, arm)


def _nonzero(counts) -> dict:
    return {key: count for key, count in counts.items() if count}


def shared_names_doc() -> dict:
    """Three honest consumers send the same names at the same instants
    through two defended routers, so interests collapse into pending
    entries, both under the watched /shop/gone (whose quota trips, and
    whose names nobody serves, so those entries expire) and outside it.
    Not pinned: it exists to drive the collapse path of the defense."""
    names = [f"/shop/s{k % 4}" if k % 3 else f"/shop/gone/g{k}" for k in range(24)]
    requests = {"names": names, "at_ms": [40 * k for k in range(24)], "retries": 1,
                "lifetime_ms": 300}
    return {
        "name": "shared-names", "duration_ms": 1500, "seed": 5,
        "defaults": {"cs_capacity": 2},
        "nodes": [
            {"id": "p", "role": "producer", "prefix": "/shop",
             "static_names": [f"s{i}" for i in range(4)]},
            {"id": "r1", "role": "router"},
            {"id": "r2", "role": "router"},
            *({"id": c, "role": "consumer", "requests": requests} for c in ("c1", "c2", "c3")),
        ],
        "links": [_link("r1", "p"), _link("r2", "r1"), _link("c1", "r2"), _link("c2", "r2"),
                  _link("c3", "r1")],
        "fib": {"r1": [{"prefix": "/shop", "next_hops": ["p"]}],
                "r2": [{"prefix": "/shop", "next_hops": ["r1"]}]},
        "flooding_defense": {"namespace_quotas": {"/shop/gone": 3}, "window_ms": 500},
    }


@pytest.mark.parametrize("key", ["chain_flood", "pushback", "shared_names"])
def test_defense_counts_match_the_live_pit(key, monkeypatch):
    """After every sweep, each pending count the flooding defense keeps is
    the count its router's live PIT entries give. In `shared_names`,
    interests collapse into entries of a watched namespace."""
    sweep = Router.pit_sweep
    checked = []
    collapsed = Counter()
    note_collapsed = FloodingDefense.note_collapsed

    def counted_note_collapsed(defense, entry, iface, now):
        collapsed[entry.namespace is not None] += 1
        note_collapsed(defense, entry, iface, now)

    def checked_sweep(router, now):
        sweep(router, now)
        defense = router.flooding
        if defense is None:
            return
        out, inn, ns, ns_in = Counter(), Counter(), Counter(), Counter()
        for entry in router.pit.entries():
            out.update(entry.outgoing)
            inn.update(entry.incoming)
            if entry.namespace is not None:
                ns[entry.namespace] += 1
                ns_in.update((entry.namespace, iface) for iface in entry.incoming)
        assert _nonzero(defense.pending_out) == out, (router.id, now)
        assert _nonzero(defense.pending_in) == inn, (router.id, now)
        assert _nonzero(defense.ns_pending) == ns, (router.id, now)
        assert _nonzero(defense.ns_pending_in) == ns_in, (router.id, now)
        checked.append(len(router.pit))

    monkeypatch.setattr(Router, "pit_sweep", checked_sweep)
    monkeypatch.setattr(FloodingDefense, "note_collapsed", counted_note_collapsed)
    _run_every_arm({**DOCS, "shared_names": shared_names_doc}[key]())
    assert any(checked)  # some sweep compared a non-empty PIT
    if key == "shared_names":
        assert collapsed[True] and collapsed[False]


# Gauges that nodes report but no CSV column carries yet.
UNCOLUMNED = {"producer_queue_us", "pending_requests", "fragments_ok"}


@pytest.mark.parametrize("key", sorted(DOCS))
def test_every_reported_stat_has_a_column(key, monkeypatch):
    """At every metrics tick, each key in a node's stats or gauges is a CSV
    column or one of the known uncolumned keys: no new stat is dropped
    from the CSV without notice."""
    sample = MetricsCollector.sample
    reported = set()

    def checked_sample(collector, now_us):
        for node in collector.net.nodes.values():
            assert list(node.stats) == COUNTER_COLUMNS, node.id  # the order `_row` copies
            reported.update(node.stats, node.gauges())
        sample(collector, now_us)

    monkeypatch.setattr(MetricsCollector, "sample", checked_sample)
    _run_every_arm(DOCS[key]())
    assert reported - set(COLUMNS) <= UNCOLUMNED


# Columns that no golden document makes non-zero. A run that reaches one
# removes it from here; a new counter that none reaches fails the test.
DEAD_COLUMNS = {
    "rej_egress-quota", "rej_ingress-limit", "drop_no_route", "drop_scid_s", "drop_scope",
    "verify_unresolvable", "warnings_suppressed", "warnings_bad_mac", "pushback_bad_mac",
    "received_fake", "received_hash_mismatch", "accepted_poisoned", "fragments_failed",
}


def test_dead_columns_are_the_known_ones():
    """Every arm of every golden document is run once; the CSV columns
    that stay zero in all of their rows are exactly `DEAD_COLUMNS`."""
    live = set()
    for make in DOCS.values():
        scenario = load_scenario(make())
        for arm in scenario.arm_names() or [None]:
            for row in run_simulation(scenario, scenario.seed, arm).collector.rows:
                live.update(column for column, value in zip(COLUMNS, row) if value != 0)
    assert set(COLUMNS) - live == DEAD_COLUMNS


COLLECTION_DOCS = sorted(
    key for key, make in DOCS.items() if any("collection" in node for node in make()["nodes"])
)


@pytest.mark.parametrize("key", COLLECTION_DOCS)
def test_collection_consumer_finishes_once(key, monkeypatch):
    """`_finish` runs when nothing is pending and every fragment has been
    issued, after which nothing issues or settles a fragment again: it
    writes the totals once, with no guard against a second call."""
    finish = CollectionConsumer._finish
    calls = Counter()

    def counted_finish(consumer):
        calls[consumer] += 1
        finish(consumer)

    monkeypatch.setattr(CollectionConsumer, "_finish", counted_finish)
    _run_every_arm(DOCS[key]())
    assert calls, "some consumer finished its fetch"
    assert max(calls.values()) == 1


def _collected() -> list:
    """What a `gc.collect()` finds unreachable, kept for inspection."""
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        return list(gc.garbage)
    finally:
        gc.garbage.clear()
        gc.set_debug(0)


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_no_event_makes_a_reference_cycle(key):
    """A finished run leaves no reference cycle. With the cyclic collector
    paused from build to drop, as it is inside `Network.run`, dropping the
    `Sim` frees its network, its collector and every node by reference
    counting alone, and a collection then finds nothing at all. A cycle
    made per event, or left by a finished run, would hold its memory for
    as long as the collector is paused, and through every later run of
    `run_experiment`."""
    scenario = load_scenario(DOCS[key]())
    for arm in scenario.arm_names() or [None]:
        gc.collect()  # what earlier tests left
        gc.disable()
        try:
            sim = build_sim(scenario, scenario.seed, arm).run()
            refs = [weakref.ref(obj) for obj in (sim.net, sim.collector, *sim.net.nodes.values())]
            del sim
            alive = [type(ref()).__name__ for ref in refs if ref() is not None]
            garbage = _collected()
        finally:
            gc.enable()
        assert not alive, arm
        assert not garbage, (arm, Counter(type(obj).__name__ for obj in garbage))

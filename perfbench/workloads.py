"""The benchmark's workloads: scenario documents plus their default seeds.

Each workload is an ordinary ndnshield scenario document, run the way
`ndnshield run <scenario>` runs it. The scenario seed is the benchmark's
`--seed`; every random choice in a run (keys, nonces, flood names, send
phases) derives from it, so one seed always yields the same inputs.

Print a workload's document with

    python3 perfbench/workloads.py <workload>

and feed it to `ndnshield run` to reproduce a benchmark run by hand.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHAIN_FLOOD = ROOT / "src" / "ndnshield" / "scenarios" / "chain_flood.json"

LINK = {"bandwidth_mbps": 100, "delay_ms": 1}


def _link(a: str, b: str) -> dict:
    return {"endpoints": [a, b], **LINK}


PIT_FLOOD_MS = 20000


def pit_flood() -> dict:
    """The committed chain_flood fixture, both arms, with its 60 s of
    simulated time cut to 20 s. The PIT fills within 2 s and the defended
    arm's quota and push-back act within the first 10 s window, so the cut
    keeps the behaviour and lets a timed invocation hold some ten runs."""
    doc = json.loads(CHAIN_FLOOD.read_text())
    doc["duration_ms"] = PIT_FLOOD_MS
    return doc


def dynamic_flood() -> dict:
    """The c05 tree: 8 zombies at 250/s each on /victim/live through 7
    routers with the default 256-entry CS and no defense, over 1.5 s. Signing
    is charged 250 us of simulated time (800 by default) so the producer keeps
    up with the 2000 interests/s and every data packet reaches every cache
    on its path: the PIT stays small and the CS evicts on every insert.
    Metrics are sampled every 10 ms, so that a timed run is cut into
    segments of some 20 ms of host time (see run.py)."""
    leaves = ["r2a", "r2b", "r2c", "r2d"]
    zombies = [f"z{i}" for i in range(8)]
    upstream = {"r1a": "r0", "r1b": "r0", "r2a": "r1a", "r2b": "r1a", "r2c": "r1b", "r2d": "r1b"}
    return {
        "name": "dynamic-flood",
        "duration_ms": 1500,
        "metrics_tick_ms": 10,
        "seed": 105,
        "defaults": {"sign_service_us": 250},
        "nodes": (
            [{"id": "p", "role": "producer", "prefix": "/victim", "dynamic_prefix": "live"},
             {"id": "r0", "role": "router"}]
            + [{"id": r, "role": "router"} for r in upstream]
            + [{"id": z, "role": "zombie"} for z in zombies]
        ),
        "links": (
            [_link("r0", "p")]
            + [_link(r, up) for r, up in upstream.items()]
            + [_link(z, leaves[i // 2]) for i, z in enumerate(zombies)]
        ),
        "fib": {
            "r0": [{"prefix": "/victim", "next_hops": ["p"]}],
            **{r: [{"prefix": "/victim", "next_hops": [up]}] for r, up in upstream.items()},
        },
        "attacks": [
            {"kind": "flood-dynamic", "zombies": zombies, "target_prefix": "/victim",
             "dynamic_under": "/victim/live", "rate_per_s": 250,
             "start_ms": 0, "stop_ms": 1500}
        ],
    }


CATALOG_ITEMS = 240
COLLECTION_FRAGMENTS = 300
NAMES_PER_CONSUMER = 60
CACHE_READS_MS = 10000


def _request_names(consumer: int) -> list[str]:
    """A consumer's request cycle: catalog names, with every 10th name under
    /shop/hot, the namespace the compromised router answers."""
    names = []
    for k in range(NAMES_PER_CONSUMER):
        if k % 10 == 9:
            names.append(f"/shop/hot/g{consumer % 4}-{k // 10}")
        else:
            names.append(f"/shop/s{(consumer * 17 + k * 7) % CATALOG_ITEMS}")
    return names


def cache_reads() -> dict:
    """A static catalog and a hash-chained collection read through one core
    and 4 leaf routers by 16 d-scid request consumers and 8 combined-mode
    collection consumers, with a corrupted-mode compromised router answering
    /shop/hot and every poisoning countermeasure on."""
    leaves = ["r1", "r2", "r3", "r4"]
    requesters = [f"q{i}" for i in range(16)]
    collectors = [f"k{i}" for i in range(8)]
    nodes = [
        {"id": "p", "role": "producer", "prefix": "/shop",
         "static_names": [f"s{i}" for i in range(CATALOG_ITEMS)],
         "collections": [{"name": "file", "fragments": COLLECTION_FRAGMENTS, "window": 4}]},
        {"id": "r0", "role": "router"},
        *({"id": r, "role": "router"} for r in leaves),
        {"id": "cx", "role": "compromised-router", "poison_mode": "corrupted",
         "target_prefix": "/shop/hot", "impersonate": "p"},
    ]
    nodes += [
        {"id": q, "role": "consumer",
         "requests": {"names": _request_names(i), "rate_per_s": 40, "start_ms": 0,
                      "stop_ms": CACHE_READS_MS, "retries": 0, "mode": "d-scid",
                      "trusted_producer": "p"}}
        for i, q in enumerate(requesters)
    ]
    nodes += [
        {"id": k, "role": "consumer",
         "collection": {"producer": "p", "collection": "file", "mode": "combined",
                        "window": 4, "start_ms": 500 + 1000 * i}}
        for i, k in enumerate(collectors)
    ]
    links = [_link("r0", "p"), _link("r0", "cx")] + [_link(r, "r0") for r in leaves]
    links += [_link(c, leaves[i % 4]) for i, c in enumerate(requesters + collectors)]
    return {
        "name": "cache-reads",
        "duration_ms": CACHE_READS_MS,
        "seed": 11,
        "defaults": {"cs_capacity": 1024},
        "nodes": nodes,
        "links": links,
        "fib": {
            "r0": [{"prefix": "/shop", "next_hops": ["p"]},
                   {"prefix": "/shop/hot", "next_hops": ["cx"]}],
            **{r: [{"prefix": "/shop", "next_hops": ["r0"]}] for r in leaves},
        },
        "poisoning_defense": {
            "enforce_dscid": True,
            "enforce_sscid": True,
            "verification": {"mode": "disjoint-hmac", "v": 5, "group": ["r0", *leaves]},
            "neighbor_feedback": {"enabled": True},
            "consumer_feedback": {"enabled": True},
        },
    }


WORKLOADS = {
    "pit_flood": pit_flood,
    "dynamic_flood": dynamic_flood,
    "cache_reads": cache_reads,
}


def document(workload: str) -> str:
    """The workload's scenario document as JSON text."""
    return json.dumps(WORKLOADS[workload](), indent=1)


def default_seed(workload: str) -> int:
    return WORKLOADS[workload]()["seed"]


if __name__ == "__main__":
    print(document(sys.argv[1]))

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

The cross-process test runs the CLI under two hash seeds and compares the
bytes, so no output depends on set or dict iteration over hashed keys.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ndnshield.experiment import run_experiment
from ndnshield.scenario import load_scenario

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "src" / "ndnshield" / "scenarios" / "chain_flood.json"
LINK = {"bandwidth_mbps": 100, "delay_ms": 1}


def _link(a: str, b: str) -> dict:
    return {"endpoints": [a, b], **LINK}


def chain_flood_doc() -> dict:
    doc = json.loads(FIXTURE.read_text())
    doc["duration_ms"] = 5000
    return doc


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


DOCS = {
    "chain_flood": chain_flood_doc,
    "dynamic_flood": dynamic_flood_doc,
    "poisoned_cs": poisoned_cs_doc,
}

GOLDEN = {
    "chain_flood": {
        "chain-flood_defended_rep0.csv":
            "212ee5bbb05a2544a121e2f01aef5cad3fad17552bc69b9ab8eb2515484fc3b4",
        "chain-flood_summary.json":
            "047aade90e10b74b20a943b0db035726ce15e23c809ef3b923e9aeab7a29c33f",
        "chain-flood_undefended_rep0.csv":
            "602f36a535fd8ede45065790688f737266064dfc0f2a8cdc55d489effcf5b409",
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


@pytest.mark.parametrize("key", sorted(DOCS))
def test_golden_digests(key, tmp_path):
    run_experiment(load_scenario(DOCS[key]()), out_dir=tmp_path)
    assert output_digests(tmp_path) == GOLDEN[key]


def test_cli_bytes_independent_of_hash_seed(tmp_path):
    scenario = tmp_path / "chain_flood_5s.json"
    scenario.write_text(json.dumps(chain_flood_doc()))
    digests = []
    for hash_seed in ("1", "2"):
        out = tmp_path / f"out{hash_seed}"
        env = {**os.environ, "PYTHONHASHSEED": hash_seed,
               "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                           os.environ.get("PYTHONPATH")]))}
        env.pop("NDNSHIELD_OUT", None)
        subprocess.run([sys.executable, "-m", "ndnshield.cli", "run", str(scenario),
                        "--out", str(out)], env=env, check=True, capture_output=True)
        digests.append(output_digests(out))
    assert digests[0] == digests[1]
    assert len(digests[0]) == 3  # both arms' CSVs and the summary

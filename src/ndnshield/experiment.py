"""Experiment execution: seeded replication, persistence, crypto benchmark."""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Optional

from .crypto import KeyPair, sha256, sign_packet, signing_image, verify_bytes
from .metrics import aggregate_replicates, summarize_run
from .packets import Name, canonical_serialize
from .rand import MAX_SEED, Rng
from .scenario import Scenario, Sim, build_sim, load_scenario


def run_simulation(scenario: Scenario, seed: int, arm: Optional[str] = None) -> Sim:
    """Build and run one replicate; the returned Sim exposes the network,
    every node object, and the in-memory metrics rows."""
    return build_sim(scenario, seed, arm).run()


def run_experiment(
    scenario: Scenario,
    replicates: int = 1,
    out_dir: str | Path = "out",
    base_seed: Optional[int] = None,
) -> dict:
    """Run every arm of a scenario `replicates` times (seed = base + index),
    write one metrics CSV per (arm, replicate) and a summary.json with
    means and 95% confidence intervals across replicates."""
    seed0 = scenario.seed if base_seed is None else base_seed
    if replicates < 1 or not 0 <= seed0 <= MAX_SEED - replicates + 1:
        raise ValueError(f"need replicates >= 1, seeds in 0..{MAX_SEED}; got {replicates} from {seed0}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    arms = scenario.arm_names() or [None]
    summary: dict = {"scenario": scenario.name, "base_seed": seed0, "arms": {}}
    for arm in arms:
        arm_label = arm or "base"
        per_rep = []
        for index in range(replicates):
            sim = run_simulation(scenario, seed0 + index, arm)
            csv_path = out / f"{scenario.name}_{arm_label}_rep{index}.csv"
            sim.collector.write_csv(csv_path)
            rep_summary = summarize_run(sim.collector)
            rep_summary["csv"] = csv_path.name
            per_rep.append(rep_summary)
            # The network outlives `sim` until the cyclic collector runs: its
            # nodes refer back to it.
            del sim
        summary["arms"][arm_label] = {
            "replicates": per_rep,
            "aggregate": aggregate_replicates(per_rep),
        }
    with open(out / f"{scenario.name}_summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
    return summary


def load_scenario_file(path: str | Path) -> Scenario:
    with open(path) as fh:
        return load_scenario(fh.read())


def bench_crypto(packet_size: int = 1500, duration_s: float = 0.5) -> dict:
    """Throughput of content-hash checking versus signature verification
    over the same serialized packet image.

    Hash-named content lets a router validate bytes with one SHA-256 pass;
    signature checking pays an RSA-1024 verify even at the smallest public
    exponent. The returned ratio is what makes hash verification viable at
    line rate where signature verification is not.

    The RSA figure times `verify_bytes`, which on every call reads the
    DER key (re-encoding it to check it is of the one form the model
    builds), hashes the image and runs the RSA check, `pow(s, 3, n)`
    compared with the expected PKCS#1 v1.5 encoding, all in Python, as a
    verifier meeting the packet and key for the first time must. The
    in-run `verify_signature` keeps the keys read and each packet's
    verdict per key, so it runs the RSA check once per (packet, key);
    none of that touches `verify_bytes`, so this ratio is unaffected.
    """
    key = KeyPair.generate(Rng(20130614, "bench"))
    payload = b"\xa5" * packet_size
    pkt = sign_packet(Name.parse("/bench/item"), payload, key)
    image = canonical_serialize(pkt, include_hash_component=False)
    signed_image = signing_image(pkt)

    def throughput(fn) -> tuple[float, float]:
        # Warm up, then time batches until the budget elapses.
        for _ in range(50):
            fn()
        best_ops = 0.0
        elapsed_total = 0.0
        batch = 200
        while elapsed_total < duration_s:
            t0 = time.perf_counter()
            for _ in range(batch):
                fn()
            dt = time.perf_counter() - t0
            elapsed_total += dt
            best_ops = max(best_ops, batch / dt)
        return best_ops, best_ops * packet_size * 8 / 1e6

    expected = sha256(image)
    hash_ops, hash_mbps = throughput(lambda: sha256(image) == expected)
    sig = pkt.signature
    rsa_ops, rsa_mbps = throughput(lambda: verify_bytes(key.public_der, sig, signed_image))
    return {
        "packet_size_bytes": packet_size,
        "hash_verify_ops_per_s": hash_ops,
        "hash_verify_mbps": hash_mbps,
        "rsa1024_verify_ops_per_s": rsa_ops,
        "rsa1024_verify_mbps": rsa_mbps,
        "throughput_ratio": hash_mbps / rsa_mbps,
    }

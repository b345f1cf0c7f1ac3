"""Experiment runner: replication, persistence, end-to-end latency math."""

from __future__ import annotations

import gc
import json
import math
import weakref

import pytest

from ndnshield import experiment
from ndnshield.experiment import run_experiment
from ndnshield.packets import wire_size
from ndnshield.scenario import build_sim, load_scenario


def clean_doc(arms=None):
    doc = {
        "name": "clean", "duration_ms": 2000, "seed": 11,
        "nodes": [
            {"id": "p", "role": "producer", "prefix": "/v", "static_names": ["a", "b"]},
            {"id": "r1", "role": "router"}, {"id": "r2", "role": "router"},
            {"id": "c", "role": "consumer",
             "requests": {"names": ["/v/a", "/v/b"], "rate_per_s": 20,
                          "start_ms": 0, "stop_ms": 1500, "retries": 0}},
        ],
        "links": [
            {"endpoints": ["c", "r2"], "bandwidth_mbps": 100, "delay_ms": 1},
            {"endpoints": ["r2", "r1"], "bandwidth_mbps": 100, "delay_ms": 1},
            {"endpoints": ["r1", "p"], "bandwidth_mbps": 100, "delay_ms": 1},
        ],
        "fib": {"r2": [{"prefix": "/v", "next_hops": ["r1"]}],
                "r1": [{"prefix": "/v", "next_hops": ["p"]}]},
    }
    if arms:
        doc["arms"] = arms
    return doc


def test_clean_scenario_full_satisfaction(tmp_path):
    summary = run_experiment(load_scenario(clean_doc()), replicates=1, out_dir=tmp_path)
    agg = summary["arms"]["base"]["aggregate"]
    assert agg["honest_satisfaction_ratio"]["mean"] == 1.0


def test_replicates_distinct_but_reproducible(tmp_path):
    doc = clean_doc()
    # An off-grid request rate makes per-tick counts depend on the seeded
    # phase, so distinct seeds leave distinct metrics traces.
    doc["nodes"][3]["requests"]["rate_per_s"] = 17
    scenario = load_scenario(doc)
    run_experiment(scenario, replicates=2, out_dir=tmp_path / "a")
    run_experiment(scenario, replicates=2, out_dir=tmp_path / "b")
    rep0a = (tmp_path / "a" / "clean_base_rep0.csv").read_bytes()
    rep1a = (tmp_path / "a" / "clean_base_rep1.csv").read_bytes()
    assert rep0a != rep1a  # different seeds, distinct traces
    assert rep0a == (tmp_path / "b" / "clean_base_rep0.csv").read_bytes()
    assert rep1a == (tmp_path / "b" / "clean_base_rep1.csv").read_bytes()


def test_paired_arm_summary(tmp_path):
    doc = clean_doc(arms={"fast": {"duration_ms": 1000}, "slow": {}})
    summary = run_experiment(load_scenario(doc), replicates=1, out_dir=tmp_path)
    assert set(summary["arms"]) == {"fast", "slow"}
    written = json.loads((tmp_path / "clean_summary.json").read_text())
    assert set(written["arms"]) == {"fast", "slow"}


def test_one_interest_latency_hand_computed():
    # One interest over two routers: delivery time equals per-hop
    # serialization + propagation for the interest, the producer's service
    # time, then the same per-hop costs for the data on the way back. All
    # terms are computed here from the scenario's own link parameters.
    doc = clean_doc()
    doc["nodes"][3] = {
        "id": "c",
        "role": "consumer",
        "requests": {"names": ["/v/a"], "at_ms": [0], "retries": 0},
    }
    sim = build_sim(load_scenario(doc), 11)
    consumer = sim.node("c")
    producer = sim.node("p")

    arrivals = []
    orig = consumer.on_packet

    def spy(iface, pkt, now):
        arrivals.append(now)
        return orig(iface, pkt, now)

    consumer.on_packet = spy
    sim.run()
    assert consumer.stats["received_valid"] == 1

    from ndnshield.packets import Interest, parse_name

    data_pkt = producer.serve(Interest(parse_name("/v/a"), 1), 0)[0]
    interest_size = wire_size(
        Interest(parse_name("/v/a"), nonce=0, lifetime_ms=4000)
    )
    bandwidth, prop_us, hops, service_us = 100e6, 1000, 3, 10
    ser_i = math.ceil(interest_size * 8 * 1e6 / bandwidth)
    ser_d = math.ceil(wire_size(data_pkt) * 8 * 1e6 / bandwidth)
    expected = hops * (ser_i + prop_us) + service_us + hops * (ser_d + prop_us)
    assert arrivals[0] == expected


@pytest.mark.parametrize("replicates, seed", [(0, 1), (2, 2 ** 64 - 1), (1, -1)])
def test_run_experiment_refuses_no_replicates_or_a_seed_out_of_range(replicates, seed, tmp_path):
    """No replicates made `aggregate_replicates` raise `IndexError`, and a
    seed outside 0..2**64-1 an `OverflowError` in `Rng`, both after the
    output directory was made."""
    with pytest.raises(ValueError, match=f"got {replicates} from {seed}$"):
        run_experiment(load_scenario(clean_doc()), replicates=replicates, out_dir=tmp_path / "o",
                       base_seed=seed)
    assert not (tmp_path / "o").exists()


def test_each_finished_run_is_freed_before_the_next_is_built(tmp_path, monkeypatch):
    """With the cyclic collector paused throughout, every (arm, replicate)
    run's network is freed by reference counting before the next run is
    built, so one process holds one network at a time."""
    built = []

    def checked_build_sim(*args):
        assert all(ref() is None for ref in built), f"run {len(built) - 1} is alive"
        sim = build_sim(*args)
        built.append(weakref.ref(sim.net))
        return sim

    monkeypatch.setattr(experiment, "build_sim", checked_build_sim)
    scenario = load_scenario(clean_doc(arms={"fast": {"duration_ms": 1000}, "slow": {}}))
    gc.collect()
    gc.disable()
    try:
        run_experiment(scenario, replicates=3, out_dir=tmp_path)
    finally:
        gc.enable()
    assert len(built) == 6 and all(ref() is None for ref in built)

"""Acceptance suite: one test per criterion, at its stated tolerance.

Each test builds its scenario, runs it through the real engine, and
asserts the criterion's numbers; the final test re-runs every scenario
with the same seed and requires byte-identical metrics CSVs. Runs are
cached so the determinism check replays exactly what the criteria ran.
"""

from __future__ import annotations

from importlib import resources

import numpy as np

from ndnshield.experiment import bench_crypto
from ndnshield.crypto import ls32, sha256
from ndnshield.poisoning import coverage_probability, disjoint_residue
from ndnshield.rand import Rng
from ndnshield.scenario import Scenario, build_sim, load_scenario

# ---------------------------------------------------------------------------
# Cached scenario runs (the determinism criterion replays all of them)
# ---------------------------------------------------------------------------

_RUNS: dict[str, dict] = {}


def run_scenario(key: str, doc: dict, seed: int) -> "Sim":
    if key not in _RUNS:
        sim = build_sim(load_scenario(doc), seed).run()
        violations = sim.net.flow_balance_violations()
        assert not violations, f"flow balance violated: {violations}"
        _RUNS[key] = {
            "doc": doc,
            "seed": seed,
            "sim": sim,
            "csv": sim.collector.csv_bytes(),
        }
    return _RUNS[key]["sim"]


def report(line: str) -> None:
    print(f"\n[acceptance] {line}")


def ratio_over(col, node: str, t0: int, t1: int) -> float:
    sent = dict(col.series(node, "interests_sent"))
    sat = dict(col.series(node, "requests_satisfied"))
    delta_sent = sent[t1] - sent.get(t0, 0)
    if delta_sent == 0:
        return 1.0
    return (sat[t1] - sat.get(t0, 0)) / delta_sent


def chain_fixture() -> Scenario:
    text = resources.files("ndnshield.scenarios").joinpath("chain_flood.json").read_text()
    return load_scenario(text)


# ---------------------------------------------------------------------------
# 1. Interest collapsing
# ---------------------------------------------------------------------------


def test_c01_interest_collapsing_exact():
    doc = {
        "name": "c01-star", "duration_ms": 1500, "seed": 101,
        "nodes": (
            [{"id": "p", "role": "producer", "prefix": "/victim", "static_names": ["page"]},
             {"id": "r", "role": "router"}]
            + [{"id": f"c{i:02d}", "role": "consumer",
                "requests": {"names": ["/victim/page"], "at_ms": [10 * i], "retries": 0}}
               for i in range(20)]
        ),
        "links": ([{"endpoints": ["r", "p"], "bandwidth_mbps": 100, "delay_ms": 200}]
                  + [{"endpoints": [f"c{i:02d}", "r"], "bandwidth_mbps": 100, "delay_ms": 1}
                     for i in range(20)]),
        "fib": {"r": [{"prefix": "/victim", "next_hops": ["p"]}]},
    }
    sim = run_scenario("c01", doc, 101)
    upstream = sim.node("p").stats["interests_received"]
    delivered = sum(sim.node(f"c{i:02d}").stats["received_valid"] for i in range(20))
    assert upstream == 1  # tolerance 0
    assert delivered == 20
    assert sim.node("r").stats["interests_collapsed"] == 19
    report(f"C1 collapsing: upstream={upstream} (=1), deliveries={delivered} (=20)")


# ---------------------------------------------------------------------------
# 2. Reflection bound with overhear suppression
# ---------------------------------------------------------------------------


def test_c02_reflection_bound_exact():
    doc = {
        "name": "c02-reflect", "duration_ms": 2000, "seed": 102,
        "nodes": [
            {"id": "p", "role": "producer", "prefix": "/victim", "static_names": ["page"]},
            {"id": "v", "role": "consumer",
             "requests": {"names": ["/victim/page"], "at_ms": [10], "retries": 0,
                          "send_on_all_interfaces": True}},
            {"id": "a1", "role": "router"}, {"id": "a2", "role": "router"},
            {"id": "b1", "role": "router"}, {"id": "b2", "role": "router"},
        ],
        "links": [
            {"endpoints": ["v", "a1", "a2"], "bandwidth_mbps": 100, "delay_ms": 1,
             "kind": "broadcast"},
            {"endpoints": ["v", "b1", "b2"], "bandwidth_mbps": 100, "delay_ms": 1,
             "kind": "broadcast"},
            {"endpoints": ["a1", "p"], "bandwidth_mbps": 100, "delay_ms": 1},
            {"endpoints": ["a2", "p"], "bandwidth_mbps": 100, "delay_ms": 5},
            {"endpoints": ["b1", "p"], "bandwidth_mbps": 100, "delay_ms": 1},
            {"endpoints": ["b2", "p"], "bandwidth_mbps": 100, "delay_ms": 5},
        ],
        "fib": {r: [{"prefix": "/victim", "next_hops": ["p"]}]
                for r in ("a1", "a2", "b1", "b2")},
    }
    sim = run_scenario("c02", doc, 102)
    victim = sim.node("v")
    # Only the routers send data onto a segment, and each frame reaches v.
    data_out = sim.net.audit_data_out
    per_iface = {0: data_out[("a1", 0)] + data_out[("a2", 0)],
                 1: data_out[("b1", 0)] + data_out[("b2", 0)]}
    assert victim.stats["copies_received"] <= len(victim.ifaces)
    assert per_iface == {0: 1, 1: 1}  # exactly one copy per broadcast segment
    report(f"C2 reflection: copies per segment {per_iface} (exactly 1 each), "
           f"total {victim.stats['copies_received']} <= {len(victim.ifaces)} interfaces")


# ---------------------------------------------------------------------------
# 3. Type-1 flood absorbed by caches
# ---------------------------------------------------------------------------


def test_c03_static_flood_absorbed():
    zombies = [f"z{i}" for i in range(10)]
    doc = {
        "name": "c03-absorb", "duration_ms": 12000, "seed": 103,
        "nodes": ([{"id": "p", "role": "producer", "prefix": "/victim",
                    "static_names": [f"s{i}" for i in range(50)]},
                   {"id": "r1", "role": "router"}, {"id": "r2", "role": "router"}]
                  + [{"id": z, "role": "zombie"} for z in zombies]),
        "links": ([{"endpoints": ["r2", "r1"], "bandwidth_mbps": 100, "delay_ms": 1},
                   {"endpoints": ["r1", "p"], "bandwidth_mbps": 100, "delay_ms": 1}]
                  + [{"endpoints": [z, "r2"], "bandwidth_mbps": 100, "delay_ms": 1}
                     for z in zombies]),
        "fib": {"r2": [{"prefix": "/victim", "next_hops": ["r1"]}],
                "r1": [{"prefix": "/victim", "next_hops": ["p"]}]},
        "attacks": [{"kind": "flood-static", "zombies": zombies, "target_prefix": "/victim",
                     "rate_per_s": 100, "start_ms": 0, "stop_ms": 12000,
                     "name_pool": [f"/victim/s{i}" for i in range(50)]}],
    }
    sim = run_scenario("c03", doc, 103)
    recv = dict(sim.collector.series("p", "interests_received"))
    late_rate = (recv[12000] - recv[2000]) / 10.0
    aggregate = 10 * 100.0
    assert late_rate < 0.01 * aggregate
    report(f"C3 absorption: producer rate after 2 s = {late_rate:.2f}/s "
           f"< 1% of {aggregate:.0f}/s attack")


# ---------------------------------------------------------------------------
# 4. Type-3 PIT exhaustion: Little's law, quota bound, satisfaction contrast
# ---------------------------------------------------------------------------


def _c04_doc() -> dict:
    return {
        "name": "c04-pitflood", "duration_ms": 60000, "seed": 104,
        "defaults": {"pit_capacity": 600},
        "nodes": [
            {"id": "p", "role": "producer", "prefix": "/victim", "dynamic_prefix": "live"},
            {"id": "r1", "role": "router"}, {"id": "r2", "role": "router"},
            {"id": "h", "role": "consumer",
             "requests": {"unique_under": "/victim/live", "rate_per_s": 10,
                          "start_ms": 0, "stop_ms": 60000, "retries": 0}},
            {"id": "z", "role": "zombie"},
        ],
        "links": [
            {"endpoints": ["z", "r2"], "bandwidth_mbps": 100, "delay_ms": 1},
            {"endpoints": ["r2", "r1"], "bandwidth_mbps": 100, "delay_ms": 1},
            {"endpoints": ["h", "r1"], "bandwidth_mbps": 100, "delay_ms": 1},
            {"endpoints": ["r1", "p"], "bandwidth_mbps": 100, "delay_ms": 1},
        ],
        "fib": {"r2": [{"prefix": "/victim", "next_hops": ["r1"]}],
                "r1": [{"prefix": "/victim", "next_hops": ["p"]}]},
        "attacks": [{"kind": "flood-unsat-nonce", "zombies": ["z"], "target_prefix": "/victim",
                     "rate_per_s": 500, "start_ms": 0, "stop_ms": 60000}],
        "flooding_defense": {"namespace_quotas": {"/victim": 500}},
        "arms": {
            "defended": {},
            "undefended": {"flooding_defense": None},
            "little": {"flooding_defense": None, "duration_ms": 20000,
                       "defaults": {"pit_capacity": 0},
                       "attacks": [{"kind": "flood-unsat-nonce", "zombies": ["z"],
                                    "target_prefix": "/victim", "rate_per_s": 500,
                                    "start_ms": 0, "stop_ms": 20000}]},
        },
    }


def test_c04_pit_exhaustion_littles_law_and_quota():
    scenario = load_scenario(_c04_doc())
    rate, lifetime_s = 500.0, 4.0
    expected = rate * lifetime_s

    little = run_scenario("c04-little", scenario.arm_doc("little"), 104)
    occupancy = np.mean(
        [v for t, v in little.collector.series("r1", "pit_size") if 8000 <= t <= 20000]
    )
    assert abs(occupancy - expected) <= 0.10 * expected  # Little's-law check, +-10%

    defended = run_scenario("c04-defended", scenario.arm_doc("defended"), 104)
    max_pit = defended.collector.max_over("r1", "pit_size")
    defended_ratio = defended.node("h").gauges()["satisfaction_ratio"]
    assert max_pit <= 500  # namespace quota bounds occupancy
    assert defended_ratio >= 0.9

    undefended = run_scenario("c04-undefended", scenario.arm_doc("undefended"), 104)
    undefended_ratio = undefended.node("h").gauges()["satisfaction_ratio"]
    assert undefended_ratio <= 0.5
    report(f"C4 exhaustion: occupancy {occupancy:.0f} vs rL={expected:.0f} (+-10%); "
           f"defended max PIT {max_pit:.0f} <= 500, honest {defended_ratio:.3f} >= 0.9 "
           f"vs undefended {undefended_ratio:.3f} <= 0.5")


# ---------------------------------------------------------------------------
# 5. PIT pressure gradient toward the producer
# ---------------------------------------------------------------------------


def test_c05_pit_gradient_strictly_ordered():
    leafs = ["r2a", "r2b", "r2c", "r2d"]
    zombies = [f"z{i}" for i in range(8)]
    doc = {
        "name": "c05-gradient", "duration_ms": 12000, "seed": 105,
        "nodes": ([{"id": "p", "role": "producer", "prefix": "/victim",
                    "dynamic_prefix": "live"},
                   {"id": "r0", "role": "router"}, {"id": "r1a", "role": "router"},
                   {"id": "r1b", "role": "router"}]
                  + [{"id": r, "role": "router"} for r in leafs]
                  + [{"id": z, "role": "zombie"} for z in zombies]),
        "links": ([{"endpoints": ["r0", "p"], "bandwidth_mbps": 100, "delay_ms": 1},
                   {"endpoints": ["r1a", "r0"], "bandwidth_mbps": 100, "delay_ms": 1},
                   {"endpoints": ["r1b", "r0"], "bandwidth_mbps": 100, "delay_ms": 1},
                   {"endpoints": ["r2a", "r1a"], "bandwidth_mbps": 100, "delay_ms": 1},
                   {"endpoints": ["r2b", "r1a"], "bandwidth_mbps": 100, "delay_ms": 1},
                   {"endpoints": ["r2c", "r1b"], "bandwidth_mbps": 100, "delay_ms": 1},
                   {"endpoints": ["r2d", "r1b"], "bandwidth_mbps": 100, "delay_ms": 1}]
                  + [{"endpoints": [zombies[i], leafs[i // 2]],
                      "bandwidth_mbps": 100, "delay_ms": 1} for i in range(8)]),
        "fib": {"r0": [{"prefix": "/victim", "next_hops": ["p"]}],
                "r1a": [{"prefix": "/victim", "next_hops": ["r0"]}],
                "r1b": [{"prefix": "/victim", "next_hops": ["r0"]}],
                **{r: [{"prefix": "/victim",
                        "next_hops": ["r1a" if r in ("r2a", "r2b") else "r1b"]}]
                   for r in leafs}},
        "attacks": [{"kind": "flood-dynamic", "zombies": zombies, "target_prefix": "/victim",
                     "dynamic_under": "/victim/live", "rate_per_s": 250,
                     "start_ms": 0, "stop_ms": 12000}],
    }
    sim = run_scenario("c05", doc, 105)

    def mean_occ(router):
        return np.mean(
            [v for t, v in sim.collector.series(router, "pit_size") if 6000 <= t <= 12000]
        )

    root = mean_occ("r0")
    mids = [mean_occ("r1a"), mean_occ("r1b")]
    leaves = [mean_occ(r) for r in leafs]
    assert root > max(mids) > min(mids) > max(leaves) or (
        root > max(mids) and min(mids) > max(leaves)
    )
    report(f"C5 gradient: root {root:.0f} > mid {max(mids):.0f} > leaf {max(leaves):.0f} "
           "(time-averaged PIT, strictly ordered by hop distance)")


# ---------------------------------------------------------------------------
# 6. Key-locator abuse bounded by the fake key-name pool
# ---------------------------------------------------------------------------


def test_c06_keylocator_abuse_bound():
    consumers = [f"c{i:02d}" for i in range(50)]
    doc = {
        "name": "c06-keyabuse", "duration_ms": 12000, "seed": 106,
        "defaults": {"payload_size_bytes": 512},
        "nodes": ([{"id": "v", "role": "producer", "prefix": "/victim"},
                   {"id": "e", "role": "producer", "prefix": "/evil",
                    "abuse": {"target_producer": "v", "count": 300, "collection": "video"}},
                   {"id": "rc", "role": "router"}, {"id": "re", "role": "router"},
                   {"id": "rv", "role": "router"}]
                  + [{"id": c, "role": "consumer",
                      "collection": {"producer": "e", "collection": "video", "window": 4,
                                     "start_ms": 20 * i}}
                     for i, c in enumerate(consumers)]),
        "links": ([{"endpoints": ["rc", "re"], "bandwidth_mbps": 1000, "delay_ms": 1},
                   {"endpoints": ["rc", "rv"], "bandwidth_mbps": 1000, "delay_ms": 1},
                   {"endpoints": ["re", "e"], "bandwidth_mbps": 1000, "delay_ms": 1},
                   {"endpoints": ["rv", "v"], "bandwidth_mbps": 1000, "delay_ms": 1}]
                  + [{"endpoints": [c, "rc"], "bandwidth_mbps": 1000, "delay_ms": 1}
                     for c in consumers]),
        "fib": {"rc": [{"prefix": "/evil", "next_hops": ["re"]},
                       {"prefix": "/victim", "next_hops": ["rv"]}],
                "re": [{"prefix": "/evil", "next_hops": ["e"]}],
                "rv": [{"prefix": "/victim", "next_hops": ["v"]}]},
    }
    sim = run_scenario("c06", doc, 106)
    max_pit = sim.collector.max_over("rv", "pit_size")
    key_interests = sum(sim.node(c).stats["key_interests_sent"] for c in consumers)
    assert key_interests == 50 * 300  # every consumer chased every fake key
    assert 0 < max_pit <= 300  # the pool size is a hard bound, regardless of consumers
    report(f"C6 key-locator abuse: victim PIT peak {max_pit:.0f} <= 300 "
           f"while consumers issued {key_interests} key interests")


# ---------------------------------------------------------------------------
# 7. Push-back reach on the canonical chain
# ---------------------------------------------------------------------------


def test_c07_pushback_reach_and_isolation():
    scenario = chain_fixture()
    sim = run_scenario("c07-defended", scenario.arm_doc("defended"), 107)
    col = sim.collector

    # Push-back must traverse r1 -> r2 -> r3 within two cooldowns of the
    # first quota hit (plus one maintenance sweep for the first emission).
    quota_hits = col.series("r1", "rej_namespace-quota")
    first_hit = next(t for t, v in quota_hits if v > 0)
    reach = col.series("r3", "pushback_received")
    first_reach = next(t for t, v in reach if v > 0)
    cooldown_ms = 1000
    assert first_reach <= first_hit + 2 * cooldown_ms
    assert sim.node("r3").flooding.rate_caps()  # a cap landed at the source-adjacent router

    # After convergence: attack admitted at the victim-adjacent router is
    # under 10% of the attack rate while the co-located honest consumer is
    # fully served.
    admitted = dict(col.series("r1", "interests_admitted_attack"))
    attack_rate_at_r1 = (admitted[60000] - admitted[30000]) / 30.0
    honest = ratio_over(col, "h", 30000, 60000)
    assert attack_rate_at_r1 < 0.10 * 500
    assert honest >= 0.9
    report(f"C7 push-back: reach {first_reach - first_hit} ms after first quota hit; "
           f"converged attack {attack_rate_at_r1:.2f}/s < 50/s, honest {honest:.3f} >= 0.9")


# ---------------------------------------------------------------------------
# 8. D-SCID blocks fake content; corrupted passes routers, never consumers
# ---------------------------------------------------------------------------


def _c08_doc(mode: str) -> dict:
    return {
        "name": f"c08-{mode}", "duration_ms": 8000, "seed": 108,
        "nodes": [
            {"id": "p", "role": "producer", "prefix": "/victim",
             "static_names": [f"s{i}" for i in range(20)]},
            {"id": "r1", "role": "router"},
            {"id": "cx", "role": "compromised-router", "poison_mode": mode,
             "target_prefix": "/victim", "impersonate": "p"},
            {"id": "c", "role": "consumer",
             "requests": {"names": [f"/victim/s{i}" for i in range(20)], "rate_per_s": 20,
                          "start_ms": 0, "stop_ms": 5000, "retries": 0,
                          "mode": "d-scid", "trusted_producer": "p"}},
        ],
        "links": [
            {"endpoints": ["c", "r1"], "bandwidth_mbps": 100, "delay_ms": 1},
            {"endpoints": ["r1", "cx"], "bandwidth_mbps": 100, "delay_ms": 1},
            {"endpoints": ["cx", "p"], "bandwidth_mbps": 100, "delay_ms": 1},
        ],
        "fib": {"r1": [{"prefix": "/victim", "next_hops": ["cx"]}],
                "cx": [{"prefix": "/victim", "next_hops": ["p"]}]},
        "poisoning_defense": {"enforce_dscid": True, "enforce_sscid": True},
    }


def test_c08_dscid_fake_and_corrupted_arms():
    fake = run_scenario("c08-fake", _c08_doc("fake"), 108)
    r1, consumer = fake.node("r1"), fake.node("c")
    assert r1.stats["poisoned_cached"] == 0  # exact: zero fakes cached anywhere
    assert r1.stats["poisoned_forwarded"] == 0
    assert consumer.stats["poisoned_received"] == 0
    assert r1.stats["drop_scid_d"] > 0  # the defense actively rejected them

    corrupted = run_scenario("c08-corrupted", _c08_doc("corrupted"), 108)
    r1c, consumer_c = corrupted.node("r1"), corrupted.node("c")
    assert r1c.stats["poisoned_forwarded"] > 0  # corrupted content still traverses
    assert consumer_c.stats["received_corrupted"] > 0
    assert consumer_c.stats["accepted_poisoned"] == 0  # consumer verification holds
    report(f"C8 D-SCID: fake cached/delivered 0/0 (exact, {r1.stats['drop_scid_d']} rejects); "
           f"corrupted traversed {r1c.stats['poisoned_forwarded']} times, accepted 0")


# ---------------------------------------------------------------------------
# 9. S-SCID chained fetch survives cache poisoning
# ---------------------------------------------------------------------------


def test_c09_sscid_chained_fetch_under_anticipation():
    doc = {
        "name": "c09-sscid", "duration_ms": 20000, "seed": 109,
        "nodes": [
            {"id": "p", "role": "producer", "prefix": "/victim",
             "collections": [{"name": "file", "fragments": 50, "window": 4}]},
            {"id": "ra", "role": "router"}, {"id": "rb", "role": "router"},
            {"id": "cx", "role": "compromised-router", "poison_mode": "fake",
             "target_prefix": "/victim"},
            {"id": "c", "role": "consumer",
             "collection": {"producer": "p", "collection": "file", "mode": "combined",
                            "window": 4, "start_ms": 500}},
            {"id": "z", "role": "zombie"},
        ],
        "links": [
            {"endpoints": ["c", "ra"], "bandwidth_mbps": 100, "delay_ms": 1},
            {"endpoints": ["z", "ra"], "bandwidth_mbps": 100, "delay_ms": 1},
            {"endpoints": ["ra", "rb"], "bandwidth_mbps": 100, "delay_ms": 1},
            {"endpoints": ["rb", "cx"], "bandwidth_mbps": 100, "delay_ms": 1},
            {"endpoints": ["rb", "p"], "bandwidth_mbps": 100, "delay_ms": 1},
        ],
        "fib": {"ra": [{"prefix": "/victim", "next_hops": ["rb"]}],
                "rb": [{"prefix": "/victim", "next_hops": ["cx", "p"]}]},
        "attacks": [{"kind": "poison-anticipate", "zombies": ["z"],
                     "target_prefix": "/victim", "content_names": ["/victim/file/1"],
                     "start_ms": 0, "stop_ms": 100, "jitter_ms": 50}],
        "poisoning_defense": {"enforce_dscid": True, "enforce_sscid": True,
                              "routers": ["ra", "rb"]},
    }
    sim = run_scenario("c09", doc, 109)
    consumer = sim.node("c")
    assert sim.node("rb").stats["poisoned_cached"] >= 1  # the attack really landed
    assert consumer.stats["fragments_completed"] == 50
    assert consumer.stats["fragments_failed"] == 0
    assert consumer.stats["poisoned_received"] == 0  # exact, CO_2..CO_50 and head alike
    report(f"C9 S-SCID chain: 50/50 fragments correct, 0 poisoned deliveries "
           f"(caches held {sim.node('rb').stats['poisoned_cached']} poisoned copies); "
           f"{consumer.stats['retries']} retries while strategy re-ranked paths")


# ---------------------------------------------------------------------------
# 10. Coverage formula versus Monte-Carlo
# ---------------------------------------------------------------------------


def test_c10_coverage_formula_monte_carlo():
    rng = Rng(110, "c10")
    trials = 100_000
    cases = [
        ("independent", 3, [2.0, 3.0, 4.0], lambda vi: 1.0 / vi),
        ("disjoint-hmac", 4, [8.0, 8.0, 8.0, 8.0], lambda vi: 4.0 / vi),
    ]
    lines = []
    for mode, n_routers, v, per_router in cases:
        probs = [per_router(vi) for vi in v]
        covered = sum(
            1 for _ in range(trials) if any(rng.random() < p for p in probs)
        )
        empirical = covered / trials
        formula = coverage_probability(mode, n_routers, v)
        assert abs(empirical - formula) <= 0.01
        lines.append(f"{mode}: |{empirical:.4f} - {formula:.4f}| <= 0.01")
    report("C10 coverage: " + "; ".join(lines))


# ---------------------------------------------------------------------------
# 11. HMAC partitioning defeats residue-targeted packets
# ---------------------------------------------------------------------------


def test_c11_hmac_partition_defense():
    from scipy.stats import chisquare

    n = 4
    target = 2
    group_key = Rng(111, "groupkey").bytes(32)
    rng = Rng(111, "craft")
    crafted = []
    while len(crafted) < 10_000:
        h = sha256(rng.bytes(24))
        if ls32(h) % n == target:
            crafted.append(h)

    plain_hits = sum(
        1 for h in crafted if disjoint_residue("disjoint-plain", h, b"", n) == target
    )
    assert plain_hits == len(crafted)  # 100% land on the targeted router

    counts = [0] * n
    for h in crafted:
        counts[disjoint_residue("disjoint-hmac", h, group_key, n)] += 1
    shares = [c / len(crafted) for c in counts]
    for share in shares:
        assert abs(share - 1.0 / n) <= 0.05
    stat, p_value = chisquare(counts)
    assert p_value > 0.01
    report(f"C11 partition: plain 100% on router {target}; keyed shares "
           f"{[f'{s:.3f}' for s in shares]} (1/n +- 0.05), chi-square p={p_value:.3f} > 0.01")


# ---------------------------------------------------------------------------
# 12. Neighbor warnings purge corrupted caches faster
# ---------------------------------------------------------------------------


def _c12_doc(feedback_on: bool) -> dict:
    ring = [f"r{i}" for i in range(5)]
    return {
        "name": f"c12-ring-{'on' if feedback_on else 'off'}",
        "duration_ms": 40000, "seed": 112, "metrics_tick_ms": 100,
        "nodes": ([{"id": r, "role": "router"} for r in ring]
                  + [{"id": "p", "role": "producer", "prefix": "/victim"}]),
        "links": [{"endpoints": [ring[i], ring[(i + 1) % 5]],
                   "bandwidth_mbps": 100, "delay_ms": 1} for i in range(5)],
        "preseed_cache": [{"routers": ring, "producer": "p", "name": "/victim/x",
                           "corrupt": True}],
        "poisoning_defense": {
            "verification": {"mode": "independent", "v": 5, "scan_interval_ms": 1000},
            "neighbor_feedback": {"enabled": feedback_on, "p": 1.0},
        },
    }


def _purge_and_detect_ticks(sim) -> tuple[int, int]:
    ring = [f"r{i}" for i in range(5)]
    cs = {r: dict(sim.collector.series(r, "cs_size")) for r in ring}
    inv = {r: dict(sim.collector.series(r, "verify_invalid")) for r in ring}
    ticks = sorted(cs[ring[0]])
    detect = next(t for t in ticks if any(inv[r][t] > 0 for r in ring))
    purge = next(t for t in ticks if all(cs[r][t] == 0 for r in ring))
    return detect, purge


def test_c12_neighbor_feedback_speeds_purge():
    on_times, off_times = [], []
    detect_gap = None
    for rep in range(20):
        sim_on = build_sim(load_scenario(_c12_doc(True)), 1000 + rep).run()
        detect, purge = _purge_and_detect_ticks(sim_on)
        if rep == 0:
            _RUNS["c12-on"] = {"doc": _c12_doc(True), "seed": 1000, "sim": sim_on,
                               "csv": sim_on.collector.csv_bytes()}
        # Warning rounds are milliseconds; one metrics tick bounds two rounds.
        assert purge - detect <= 100
        on_times.append(purge)
        sim_off = build_sim(load_scenario(_c12_doc(False)), 1000 + rep).run()
        _, purge_off = _purge_and_detect_ticks(sim_off)
        if rep == 0:
            _RUNS["c12-off"] = {"doc": _c12_doc(False), "seed": 1000, "sim": sim_off,
                                "csv": sim_off.collector.csv_bytes()}
        off_times.append(purge_off)
    mean_on, mean_off = np.mean(on_times), np.mean(off_times)
    assert mean_off >= 2.0 * mean_on
    report(f"C12 warnings: purge with feedback {mean_on:.0f} ms vs without "
           f"{mean_off:.0f} ms (factor {mean_off / mean_on:.1f} >= 2) over 20 replicates")


# ---------------------------------------------------------------------------
# 13. Crypto benchmark property
# ---------------------------------------------------------------------------


def test_c13_crypto_benchmark_ratio():
    result = bench_crypto(packet_size=1500, duration_s=0.4)
    assert result["throughput_ratio"] >= 5.0
    report(f"C13 bench: SHA-256 {result['hash_verify_mbps']:.0f} Mbps vs "
           f"RSA-1024 verify {result['rsa1024_verify_mbps']:.0f} Mbps "
           f"(ratio {result['throughput_ratio']:.1f}x >= 5x)")


# ---------------------------------------------------------------------------
# 14. Determinism: byte-identical metrics on rerun (must run last)
# ---------------------------------------------------------------------------


def test_c14_determinism_byte_identical_reruns():
    assert _RUNS, "earlier criteria populate the run registry"
    checked = 0
    for key in sorted(_RUNS):
        record = _RUNS[key]
        rerun = build_sim(load_scenario(record["doc"]), record["seed"]).run()
        assert rerun.collector.csv_bytes() == record["csv"], f"{key} diverged on rerun"
        checked += 1
    report(f"C14 determinism: {checked} scenarios rerun byte-identically")

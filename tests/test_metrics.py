"""Metrics CSV contract and summary aggregation."""

from __future__ import annotations

import csv
import inspect
import math
import re

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ndnshield import flooding, router
from ndnshield.metrics import COLUMNS, COUNTER_COLUMNS, aggregate_replicates, load_csv
from ndnshield.scenario import build_sim, load_scenario


def small_doc(**overrides):
    doc = {
        "name": "m", "duration_ms": 500, "metrics_tick_ms": 100, "seed": 2,
        "nodes": [
            {"id": "p", "role": "producer", "prefix": "/v", "static_names": ["a"]},
            {"id": "r", "role": "router"},
            {"id": "c", "role": "consumer",
             "requests": {"names": ["/v/a"], "at_ms": [10, 110, 210], "retries": 0}},
        ],
        "links": [
            {"endpoints": ["c", "r"], "bandwidth_mbps": 100, "delay_ms": 1},
            {"endpoints": ["r", "p"], "bandwidth_mbps": 100, "delay_ms": 1},
        ],
        "fib": {"r": [{"prefix": "/v", "next_hops": ["p"]}]},
    }
    doc.update(overrides)
    return doc


def run_small(tmp_path):
    sim = build_sim(load_scenario(small_doc()), 2).run()
    path = tmp_path / "m.csv"
    sim.collector.write_csv(path)
    return sim, path


def test_csv_header_and_fixed_columns(tmp_path):
    _, path = run_small(tmp_path)
    header, rows = load_csv(path)
    assert header == COLUMNS
    assert rows, "at least one sample row"
    for row in rows:
        assert len(row) == len(COLUMNS)


def test_csv_no_nans_and_ratio_bounds(tmp_path):
    _, path = run_small(tmp_path)
    header, rows = load_csv(path)
    ratio_idx = header.index("satisfaction_ratio")
    for row in rows:
        for idx, cell in enumerate(row):
            if idx >= 3:
                value = float(cell)
                assert not math.isnan(value)
        assert 0.0 <= float(row[ratio_idx]) <= 1.0


def test_counters_monotone_within_run(tmp_path):
    _, path = run_small(tmp_path)
    header, rows = load_csv(path)
    gauge_names = {"pit_size", "pit_attack_size", "cs_size", "satisfaction_ratio"}
    counter_idx = [i for i, c in enumerate(header) if i >= 3 and c not in gauge_names]
    last: dict[str, list[float]] = {}
    for row in rows:
        node = row[1]
        values = [float(row[i]) for i in counter_idx]
        if node in last:
            assert all(v >= prev for v, prev in zip(values, last[node]))
        last[node] = values


def test_csv_is_crlf_rfc4180(tmp_path):
    _, path = run_small(tmp_path)
    raw = path.read_bytes()
    assert b"\r\n" in raw


def test_aggregate_replicates_ci():
    reps = [{"honest_satisfaction_ratio": 0.9}, {"honest_satisfaction_ratio": 1.0}]
    agg = aggregate_replicates(reps)
    assert agg["replicates"] == 2
    block = agg["honest_satisfaction_ratio"]
    assert block["mean"] == 0.95
    assert block["ci95"][0] < 0.95 < block["ci95"][1]


# Sizes where numpy's pairwise sum changes shape: in sequence below 8, eight
# accumulators up to 128, split in halves at multiples of 8 above.
_SUM_BOUNDARIES = [1, 2, 7, 8, 9, 15, 16, 17, 127, 128, 129, 135, 136, 137, 255, 256, 257, 300]
_REPLICATE_VALUE = st.one_of(
    st.integers(min_value=-(10**20), max_value=10**20),
    st.floats(min_value=-1e150, max_value=1e150, allow_nan=False),
)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(st.one_of(st.sampled_from(_SUM_BOUNDARIES), st.integers(1, 300)).flatmap(
    lambda n: st.lists(_REPLICATE_VALUE, min_size=n, max_size=n)))
@example([-0.0])  # numpy's sum of negative zeros is +0.0
@example([-0.0] * 200)
def test_aggregate_replicates_equals_numpy_bit_for_bit(values):
    """summary.json's figures are what numpy's mean and std(ddof=1) gave
    when the package computed them with numpy, to the last bit."""
    import numpy as np

    array = np.array(values, dtype=float)
    mean = float(array.mean())
    half = 1.96 * float(array.std(ddof=1)) / math.sqrt(len(values)) if len(values) > 1 else 0.0
    block = aggregate_replicates([{"x": v} for v in values])["x"]
    got = [block["mean"], *block["ci95"]]
    assert [v.hex() for v in got] == [v.hex() for v in (mean, mean - half, mean + half)]


def test_every_drop_and_reject_counter_has_a_column():
    """A counter the router increments but the CSV lacks would vanish from
    every output, so each reject reason and drop counter needs a column."""
    reasons = [v for k, v in vars(flooding).items() if k.startswith("REJ_")]
    assert len(reasons) == 5
    drops = set(re.findall(r'"(drop_\w+)"', inspect.getsource(router)))
    assert {"drop_scid_s", "drop_scid_d", "drop_unsolicited"} <= drops
    for counter in sorted(drops) + [f"rej_{reason}" for reason in reasons]:
        assert counter in COUNTER_COLUMNS, counter

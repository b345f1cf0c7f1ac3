"""Per-tick observables, CSV persistence, and cross-replicate summaries.

The column set is fixed: every row carries every counter, zero-filled
where a role does not produce it, so downstream scripts never deal with
ragged schemas or NaNs. Counters are cumulative within a run; *_size
columns and satisfaction_ratio are instantaneous gauges.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

COUNTER_COLUMNS = [
    # router pipeline
    "interests_received",
    "interests_forwarded",
    "interests_collapsed",
    "interests_satisfied",
    "interests_expired",
    "interests_admitted_attack",
    "rej_egress-quota",
    "rej_ingress-limit",
    "rej_namespace-quota",
    "rej_throttled",
    "rej_rate-cap",
    "drop_pit_full",
    "drop_no_route",
    "drop_duplicate_nonce",
    "drop_unsolicited",
    "drop_scid_s",
    "drop_scid_d",
    "drop_scope",
    "cs_hits",
    "cs_misses",
    "data_received",
    "data_forwarded",
    "poisoned_cached",
    "poisoned_forwarded",
    "overheard_suppressions",
    # verification / cooperation
    "verifications",
    "verify_invalid",
    "verify_unresolvable",
    "warnings_sent",
    "warnings_received",
    "warnings_suppressed",
    "warnings_bad_mac",
    "feedback_received",
    "pushback_sent",
    "pushback_received",
    "pushback_bad_mac",
    # consumer side
    "interests_sent",
    "requests_satisfied",
    "requests_failed",
    "retries",
    "received_valid",
    "received_corrupted",
    "received_fake",
    "received_unverifiable",
    "received_hash_mismatch",
    "poisoned_received",
    "accepted_poisoned",
    "copies_received",
    "fragments_completed",
    "fragments_failed",
    "feedback_sent",
    "key_interests_sent",
    "key_fetch_timeouts",
    # producer side
    "produced_served",
    "producer_busy_us",
    "interests_ignored",
    "poison_injected",
]

GAUGE_COLUMNS = ["pit_size", "pit_attack_size", "cs_size", "satisfaction_ratio"]

COLUMNS = ["time_ms", "node", "role"] + GAUGE_COLUMNS + COUNTER_COLUMNS


_NODE = COLUMNS.index("node")
_ROLE = COLUMNS.index("role")
_RATIO = COLUMNS.index("satisfaction_ratio")
_INDEX = {col: i for i, col in enumerate(COLUMNS) if i > _ROLE and i != _RATIO}  # integer columns
_ZERO_ROW = [0] * len(COLUMNS)


def _row(time_ms: int, node: str, role: str, values: dict) -> tuple:
    """One CSV row in COLUMNS order, as written: integers, except the
    satisfaction ratio, kept as its 6-decimal string. A column the node
    has no value for is 0 (the ratio 1.0); a value with no column is
    left out."""
    row = _ZERO_ROW.copy()
    row[0], row[_NODE], row[_ROLE] = time_ms, node, role
    index = _INDEX
    for key, value in values.items():
        i = index.get(key)
        if i is not None:
            row[i] = int(value)
    row[_RATIO] = f"{values.get('satisfaction_ratio', 1.0):.6f}"
    return tuple(row)


class MetricsCollector:
    """Samples every node's counters and gauges on a fixed tick."""

    def __init__(self, net, tick_ms: int):
        self.net = net
        self.tick_ms = tick_ms
        self.rows: list[tuple] = []  # see _row
        self._last_sample_us = -1

    def install(self) -> None:
        self.net.every(self.tick_ms * 1000, self.sample)

    def sample(self, now_us: int) -> None:
        if now_us == self._last_sample_us:
            return  # the closing sample coincides with a regular tick
        self._last_sample_us = now_us
        time_ms = now_us // 1000
        for node_id in sorted(self.net.nodes):
            node = self.net.nodes[node_id]
            values: dict[str, float] = dict(node.stats)
            values.update(node.gauges())
            self.rows.append(_row(time_ms, node_id, node.role(), values))

    # -- persistence ---------------------------------------------------------

    def csv_bytes(self) -> bytes:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\r\n")
        writer.writerow(COLUMNS)
        writer.writerows(self.rows)
        return out.getvalue().encode()

    def write_csv(self, path) -> None:
        with open(path, "wb") as fh:
            fh.write(self.csv_bytes())

    # -- convenient views ------------------------------------------------------

    def series(self, node: str, column: str) -> list[tuple[int, float]]:
        idx = COLUMNS.index(column)
        return [(row[0], float(row[idx])) for row in self.rows if row[_NODE] == node]

    def final(self, node: str, column: str) -> float:
        series = self.series(node, column)
        return series[-1][1] if series else 0.0

    def max_over(self, node: str, column: str) -> float:
        return max(v for _, v in self.series(node, column))


def load_csv(path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, list(reader)


def summarize_run(collector: MetricsCollector) -> dict:
    """Headline numbers for one replicate, recomputable from its CSV."""
    by_role: dict[str, list[str]] = {}
    for row in collector.rows:
        nodes = by_role.setdefault(row[_ROLE], [])
        if row[_NODE] not in nodes:
            nodes.append(row[_NODE])
    consumers = by_role.get("consumer", [])
    sent = sum(collector.final(c, "interests_sent") for c in consumers)
    satisfied = sum(collector.final(c, "requests_satisfied") for c in consumers)
    summary = {
        "honest_satisfaction_ratio": (satisfied / sent) if sent else 1.0,
        "poisoned_accepted": sum(collector.final(c, "accepted_poisoned") for c in consumers),
        "poisoned_received": sum(collector.final(c, "poisoned_received") for c in consumers),
        "pit_peak": {
            r: collector.max_over(r, "pit_size") for r in by_role.get("router", [])
        },
        "poisoned_cached": {
            r: collector.final(r, "poisoned_cached") for r in by_role.get("router", [])
        },
        "producer_served": {
            p: collector.final(p, "produced_served") for p in by_role.get("producer", [])
        },
    }
    return summary


def aggregate_replicates(per_replicate: list[dict]) -> dict:
    """Means and normal-approximation 95% confidence intervals across
    replicates for every scalar metric in the per-replicate summaries."""
    out: dict = {"replicates": len(per_replicate)}
    scalars = [k for k, v in per_replicate[0].items() if isinstance(v, (int, float))]
    for key in scalars:
        values = np.array([rep[key] for rep in per_replicate], dtype=float)
        mean = float(values.mean())
        if len(values) > 1:
            half = 1.96 * float(values.std(ddof=1)) / math.sqrt(len(values))
        else:
            half = 0.0
        out[key] = {"mean": mean, "ci95": [mean - half, mean + half]}
    return out

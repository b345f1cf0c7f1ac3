"""Per-tick observables, CSV persistence, and cross-replicate summaries.

The column set is fixed: every row carries every counter, zero-filled
where a role does not produce it, so downstream scripts never deal with
ragged schemas or NaNs. Counters are cumulative within a run; *_size
columns and satisfaction_ratio are instantaneous gauges.

`COUNTER_COLUMNS` declares every counter there is: each node's `stats`
is a dict of exactly these keys, in this order, so a row copies its
values and a write to any other key raises `KeyError` where it is made.
Three gauges that nodes report, `pending_requests`, `producer_queue_us`
and `fragments_ok`, have no column yet.
"""

from __future__ import annotations

import csv
import io
import math

from .packets import MS

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
    "drop_scope",  # set by nothing; dropping the column moves CSV bytes, so it waits for a repin
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
_PIT_SIZE = COLUMNS.index("pit_size")


def _row(time_ms: int, node: str, role: str, gauges: dict, stats: dict) -> tuple:
    """One CSV row in COLUMNS order, as written: a gauge the node does not
    report is 0, the satisfaction ratio 1.0, kept as its 6-decimal string;
    the counters follow as `stats` holds them, in COUNTER_COLUMNS order."""
    get = gauges.get
    return (
        time_ms, node, role,
        get("pit_size", 0), get("pit_attack_size", 0), get("cs_size", 0),
        f"{get('satisfaction_ratio', 1.0):.6f}",
        *stats.values(),
    )


class MetricsCollector:
    """Samples every node's counters and gauges on a fixed tick."""

    def __init__(self, net, tick_ms: int):
        self.net = net
        self.tick_ms = tick_ms
        self.rows: list[tuple] = []  # see _row
        self._last_sample_us = -1

    def install(self) -> None:
        self.net.every(self.tick_ms * MS, self.sample)

    def sample(self, now_us: int) -> None:
        if now_us == self._last_sample_us:
            return  # the closing sample coincides with a regular tick
        self._last_sample_us = now_us
        time_ms = now_us // MS
        for node_id in sorted(self.net.nodes):
            node = self.net.nodes[node_id]
            self.rows.append(_row(time_ms, node_id, node.role(), node.gauges(), node.stats))

    # -- persistence ---------------------------------------------------------

    def _write(self, out) -> None:
        """The header and every row, CRLF-terminated, to a text file
        opened with `newline=""`."""
        writer = csv.writer(out, lineterminator="\r\n")
        writer.writerow(COLUMNS)
        writer.writerows(self.rows)

    def csv_bytes(self) -> bytes:
        out = io.StringIO(newline="")
        self._write(out)
        return out.getvalue().encode("utf-8")

    def write_csv(self, path) -> None:
        """Stream the CSV to `path`, with the bytes `csv_bytes` returns."""
        with open(path, "w", encoding="utf-8", newline="") as fh:
            self._write(fh)

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
    """Headline numbers for one replicate, recomputable from its CSV. One
    pass over the rows finds each node's last row and each router's PIT
    peak; nodes keep the order of their first row."""
    last: dict[str, list] = {}
    pit_peak: dict[str, float] = {}
    for row in collector.rows:
        node = row[_NODE]
        last[node] = row
        if row[_ROLE] == "router":
            pit = float(row[_PIT_SIZE])
            pit_peak[node] = max(pit_peak.get(node, pit), pit)

    def final(role: str, column: str) -> dict[str, float]:
        idx = COLUMNS.index(column)
        return {node: float(row[idx]) for node, row in last.items() if row[_ROLE] == role}

    sent = sum(final("consumer", "interests_sent").values())
    satisfied = sum(final("consumer", "requests_satisfied").values())
    return {
        "honest_satisfaction_ratio": (satisfied / sent) if sent else 1.0,
        "poisoned_accepted": sum(final("consumer", "accepted_poisoned").values()),
        "poisoned_received": sum(final("consumer", "poisoned_received").values()),
        "pit_peak": pit_peak,
        "poisoned_cached": final("router", "poisoned_cached"),
        "producer_served": final("producer", "produced_served"),
    }


def _in_order(values) -> float:
    """Left-to-right float sum from -0.0, the additive identity."""
    total = -0.0
    for value in values:
        total += value
    return total


def _pairwise_sum(values: list[float]) -> float:
    """Numpy's pairwise float64 sum, in its order: in sequence below 8
    values; up to 128, eight strided accumulators combined as a tree, then
    the tail in sequence; above 128, the two halves summed apart, split at
    a multiple of 8."""
    n = len(values)
    if n < 8:
        return _in_order(values)
    if n <= 128:
        stop = n - n % 8
        r = [_in_order(values[j:stop:8]) for j in range(8)]
        tree = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        return _in_order([tree, *values[stop:]])
    half = n // 2 - n // 2 % 8
    return _pairwise_sum(values[:half]) + _pairwise_sum(values[half:])


def _numpy_sum(values: list[float]) -> float:
    """`numpy.add.reduce` over a float64 array of `values`, bit for bit: the
    reduction adds the pairwise sum to its identity, +0.0."""
    return 0.0 + _pairwise_sum(values)


def aggregate_replicates(per_replicate: list[dict]) -> dict:
    """Means and normal-approximation 95% confidence intervals across
    replicates for every scalar metric in the per-replicate summaries.
    Every figure equals, bit for bit, what numpy's `mean` and
    `std(ddof=1)` give on the same values."""
    n = len(per_replicate)
    out: dict = {"replicates": n}
    scalars = [k for k, v in per_replicate[0].items() if isinstance(v, (int, float))]
    for key in scalars:
        values = [float(rep[key]) for rep in per_replicate]
        mean = _numpy_sum(values) / n
        if n > 1:
            variance = _numpy_sum([(v - mean) * (v - mean) for v in values]) / (n - 1)
            half = 1.96 * math.sqrt(variance) / math.sqrt(n)
        else:
            half = 0.0
        out[key] = {"mean": mean, "ci95": [mean - half, mean + half]}
    return out

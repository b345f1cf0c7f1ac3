"""Per-layer metrics of the traced run, derived from its spans and counts.

Every `*_s` metric is self time: the span's duration minus the time its
child spans cover. Counts and ratios come from span calls, span outcomes
(evictions, hits, rejections), the scheduler call count, and the
counters the simulator already keeps on its nodes ("facts").

The README maps each metric to the end-to-end metric and workload it
should move.
"""

from __future__ import annotations


def _calls(span):
    return lambda d: d["spans"].get(span, {}).get("calls", 0)


def _self_s(*spans):
    return lambda d: sum(d["spans"].get(s, {}).get("self_s", 0.0) for s in spans)


def _fact(key):
    return lambda d: d["facts"].get(key, 0)


def _ratio(numerator, denominator):
    def value(d):
        den = denominator(d)
        return numerator(d) / den if den else 0.0

    return value


def _outcomes(span):
    return lambda d: d["outcomes"].get(span, 0)


# (name, unit, better, value from {"spans", "outcomes", "counts", "facts"}).
PER_LAYER = (
    ("scenario.load_s", "s", "lower", _self_s("scenario.load")),
    ("scenario.build_s", "s", "lower", _self_s("scenario.build")),
    ("crypto.keygen.calls", "count", "lower", _calls("crypto.keygen")),
    ("crypto.keygen_s", "s", "lower", _self_s("crypto.keygen")),
    ("crypto.sign.calls", "count", "lower", _calls("crypto.sign")),
    ("crypto.sign_s", "s", "lower", _self_s("crypto.sign")),
    ("crypto.verify.calls", "count", "lower", _calls("crypto.verify")),
    ("crypto.verify_s", "s", "lower", _self_s("crypto.verify")),
    ("crypto.content_hash.calls", "count", "lower", _calls("crypto.content_hash")),
    ("crypto.content_hash_s", "s", "lower", _self_s("crypto.content_hash")),
    ("packets.wire_size.calls", "count", "lower", _calls("packets.wire_size")),
    ("packets.wire_size_s", "s", "lower", _self_s("packets.wire_size")),
    ("packets.serialize.calls", "count", "lower", _calls("packets.serialize")),
    ("packets.serialize_s", "s", "lower", _self_s("packets.serialize")),
    ("packets.match_s", "s", "lower", _self_s("packets.match")),
    ("simnet.events", "count", "lower", lambda d: d["counts"].get("simnet.events", 0)),
    ("simnet.sends", "count", "lower", _calls("simnet.send")),
    ("simnet.self_s", "s", "lower", _self_s("simnet.run", "simnet.send")),
    ("router.on_interest.calls", "count", "lower", _calls("router.on_interest")),
    ("router.on_interest_s", "s", "lower", _self_s("router.on_interest")),
    ("router.on_data.calls", "count", "lower", _calls("router.on_data")),
    ("router.on_data_s", "s", "lower", _self_s("router.on_data")),
    ("router.fib.lpm_s", "s", "lower", _self_s("router.fib.lpm")),
    ("router.pit_sweep.calls", "count", "lower", _calls("router.pit_sweep")),
    ("router.pit_sweep_s", "s", "lower", _self_s("router.pit_sweep")),
    ("router.pit.peak", "count", "lower", _fact("pit_peak")),
    ("router.cs.insert.calls", "count", "lower", _calls("router.cs.insert")),
    ("router.cs.insert_s", "s", "lower", _self_s("router.cs.insert")),
    ("router.cs.evictions", "count", "lower", _outcomes("router.cs.insert")),
    ("router.cs.lookup.calls", "count", "lower", _calls("router.cs.lookup")),
    ("router.cs.lookup_s", "s", "lower", _self_s("router.cs.lookup")),
    ("router.cs.hit_ratio", "ratio", "higher",
     _ratio(_outcomes("router.cs.lookup"), _calls("router.cs.lookup"))),
    ("flooding.admit.calls", "count", "lower", _calls("flooding.admit")),
    ("flooding.admit_s", "s", "lower", _self_s("flooding.admit")),
    ("flooding.reject_ratio", "ratio", "higher",
     _ratio(_outcomes("flooding.admit"), _calls("flooding.admit"))),
    ("flooding.pushback_s", "s", "lower", _self_s("flooding.pushback")),
    ("poisoning.scid_check.calls", "count", "lower", _calls("poisoning.scid_check")),
    ("poisoning.scid_check_s", "s", "lower", _self_s("poisoning.scid_check")),
    ("poisoning.maintenance_s", "s", "lower", _self_s("poisoning.maintenance")),
    ("poisoning.verifications", "count", "lower", _fact("verifications")),
    ("poisoning.detect_ratio", "ratio", "higher",
     _ratio(_fact("verify_invalid"), _fact("verifications"))),
    ("nodes.producer.serve.calls", "count", "lower", _calls("nodes.producer.serve")),
    ("nodes.producer.serve_s", "s", "lower", _self_s("nodes.producer.serve")),
    ("nodes.consumer.on_packet_s", "s", "lower", _self_s("nodes.consumer.on_packet")),
    ("nodes.consumer.satisfied_ratio", "ratio", "higher",
     _ratio(_fact("consumer_satisfied"), _fact("consumer_sent"))),
    ("attacks.gen_flood_interest.calls", "count", "lower", _calls("attacks.gen_flood_interest")),
    ("attacks.gen_flood_interest_s", "s", "lower", _self_s("attacks.gen_flood_interest")),
    ("metrics.sample.calls", "count", "lower", _calls("metrics.sample")),
    ("metrics.sample_s", "s", "lower", _self_s("metrics.sample")),
    ("metrics.csv_s", "s", "lower", _self_s("metrics.csv")),
    ("metrics.summarize_s", "s", "lower", _self_s("metrics.summarize")),
    ("experiment.run_s", "s", "lower", _self_s("experiment.run")),
)

# Reported beside PER_LAYER by run.py, which holds both runs it compares.
OVERHEAD = ("trace.overhead_ratio", "ratio", "lower")


def derive(data: dict) -> dict[str, float]:
    return {name: value(data) for name, _unit, _better, value in PER_LAYER}

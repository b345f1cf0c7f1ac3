"""One benchmark run of one workload, in the interpreter it was started in.

    python3 perfbench/worker.py <workload> <seed> <out_dir> [--spans FILE] [--reference]

It imports ndnshield from the checkout's `src/` (with `--reference`, from
the frozen copy in `perfbench/reference/`), runs every arm of the
workload through `run_experiment` (what `ndnshield run` calls), and prints
one JSON line: the SHA-256 of each arm's CSV, any flow-balance
violations, the set-up and simulation times, and either the run's
segments (untraced) or, with `--spans`, the per-layer metrics of a traced
run, whose spans go to FILE.
"""

import time

T0 = time.perf_counter()
START = (time.perf_counter_ns(), time.process_time_ns())

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE / "reference" if "--reference" in sys.argv[1:] else HERE.parent / "src"
sys.path.insert(0, str(SRC))

import ndnshield.experiment as experiment  # noqa: E402
from ndnshield import scenario  # noqa: E402

IMPORT_S = time.perf_counter() - T0
IMPORTED = (time.perf_counter_ns(), time.process_time_ns())

import layers  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _node_facts(sim, facts: Counter) -> None:
    for node in sim.net.nodes.values():
        role = node.role()
        if role == "router":
            facts["verifications"] += node.stats["verifications"]
            facts["verify_invalid"] += node.stats["verify_invalid"]
            peak = int(sim.collector.max_over(node.id, "pit_size"))
            facts["pit_peak"] = max(facts["pit_peak"], peak)
        elif role == "consumer":
            facts["consumer_sent"] += node.stats["interests_sent"]
            facts["consumer_satisfied"] += node.stats["requests_satisfied"]


def run(workload: str, seed: int, out_dir: Path, spans: Path | None) -> dict:
    if not Path(experiment.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"ndnshield was imported from {experiment.__file__}, not {SRC}")
    os.environ.pop("NDNSHIELD_OUT", None)  # it would override out_dir
    document = workloads.document(workload)
    if spans is None:
        tracer = tracing.Clock()
    else:
        tracer = tracing.Tracer(tracing.TRACED, tracing.COUNTED)
    tracer.install()

    facts: Counter = Counter()
    violations: list = []
    sim_seconds = 0.0
    traced_run = scenario.Sim.run

    def observed_run(sim):
        # Outside the Sim.run span: checks and counts for the report only.
        nonlocal sim_seconds
        traced_run(sim)
        violations.extend([sim.arm, *v] for v in sim.net.flow_balance_violations())
        sim_seconds += sim.duration_ms / 1000
        if spans is not None:
            _node_facts(sim, facts)
        return sim

    scenario.Sim.run = observed_run
    try:
        loaded = scenario.load_scenario(document)
        summary = experiment.run_experiment(loaded, out_dir=out_dir, base_seed=seed)
    finally:
        scenario.Sim.run = traced_run
        tracer.uninstall()

    digests, accepted_poisoned = {}, 0
    for arm, block in summary["arms"].items():
        replicate = block["replicates"][0]
        digests[arm] = hashlib.sha256((out_dir / replicate["csv"]).read_bytes()).hexdigest()
        accepted_poisoned += replicate["poisoned_accepted"]
    result = {
        "csv_sha256": digests,
        "flow_violations": violations,
        "accepted_poisoned": accepted_poisoned,
        "sim_seconds": sim_seconds,
    }
    if spans is None:
        # The package import is set-up, as it is for `ndnshield run`.
        segments = [["setup", (IMPORTED[0] - START[0]) / 1e9, (IMPORTED[1] - START[1]) / 1e9]]
        segments += tracer.segments(IMPORTED, (time.perf_counter_ns(), time.process_time_ns()))
        result["segments"] = segments
        result["setup_s"] = sum(wall for kind, wall, _ in segments if kind == "setup")
        result["sim_speed"] = sim_seconds / sum(wall for kind, wall, _ in segments if kind == "sim")
    else:
        timed = tracer.per_name()
        result["setup_s"] = IMPORT_S + timed["scenario.load"]["total_s"] + timed["scenario.build"]["total_s"]
        result["sim_speed"] = sim_seconds / timed["scenario.run"]["total_s"]
        result["layers"] = layers.derive(
            {"spans": timed, "outcomes": tracer.outcomes, "counts": tracer.counts, "facts": facts}
        )
        tracer.write(spans)
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("seed", type=int)
    parser.add_argument("out_dir", type=Path)
    parser.add_argument("--spans", type=Path, default=None)
    parser.add_argument("--reference", action="store_true", help="run the frozen copy")
    args = parser.parse_args()
    args.out_dir.mkdir(parents=True, exist_ok=True)
    print(json.dumps(run(args.workload, args.seed, args.out_dir, args.spans)))


if __name__ == "__main__":
    main()

"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload pit_flood --seed 7 --seconds 42 --trace 0

Each run of the workload is a fresh interpreter (`worker.py`), because a
user of `ndnshield run` pays the imports, key generation and every
process-lifetime memo on each invocation. Runs repeat, one at a time, for
`--seconds`, with a minimum count; no run starts that is not expected to
end in time.

--trace 0 alternates runs of the program (`src/`) with runs of the same
workload and seed on a frozen copy of the package (`reference/`). Each
run is cut into segments that are the same work in every run: the package
import, each arm's load and build, the simulation between consecutive
metrics ticks, the output. A segment's time is its fastest over the runs
of its side, and a side's time sums those, so that what other tenants of a
shared host add to a run is left out. A time metric is the program's time
over the reference's, times the reference's time in `reference.json`, so
that what a busy host adds to both sides cancels (see README.md).

--trace 1 alternates one untraced run with two traced runs of the program
and reports the per-layer metrics of the traced runs, plus
`trace.overhead_ratio` (traced over untraced wall time, medians over the
runs).

Every run is checked. A run fails if its worker raises, if a flow-balance
violation occurs, if a consumer accepts poisoned content, or if an arm's
CSV SHA-256 differs from the digest pinned for that (workload, seed) in
pins.json; at a seed without pins, from the first run of this invocation.
Runs of the reference copy need only agree with each other. Runs use
PYTHONHASHSEED 1, 2, 3, ... (untraced: one per pair), so agreement also
shows that output does not depend on string hashing. Traced runs must
give the untraced digests and identical per-layer counts. Any failure is
printed and makes the exit code 1. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "ndnshield"
PINS = HERE / "pins.json"
# The reference copy's times per workload (sums of segment minima at the
# default seed, measured once): the scale that program-over-reference
# ratios are reported in.
QUIET_REFERENCE = json.loads((HERE / "reference.json").read_text())

# (name, unit) of the end-to-end metrics, in report order.
END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("sim_speed", "sim_s/s"),
    ("peak_rss_mb", "MB"),
)
MIN_TIMED_RUNS = 4  # two program runs, two reference runs
TRACE_PATTERN = (False, True, True)  # untraced, traced, traced
WORKER_TIMEOUT_S = 150


@dataclass
class Run:
    index: int
    traced: bool
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    result: dict | None
    stderr: str
    failures: list[str] = field(default_factory=list)
    reference: bool = False

    @property
    def segments(self) -> list[list]:
        """The worker's [kind, wall_s, cpu_s] segments, preceded by what the
        worker could not time itself: interpreter start-up before its
        first clock reading and exit after its last."""
        inner = self.result["segments"]
        outside_wall = self.wall_s - sum(wall for _, wall, _ in inner)
        outside_cpu = self.cpu_s - sum(cpu for _, _, cpu in inner)
        return [["other", outside_wall, outside_cpu], *inner]


def spawn(workload: str, seed: int, index: int, traced: bool, out: Path,
          reference: bool = False, hash_seed: int | None = None) -> Run:
    """Run the worker once; wall, CPU and peak RSS come from the parent."""
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(out / "csv")]
    if traced:
        cmd += ["--spans", str(out / "spans.json")]
    if reference:
        cmd.append("--reference")
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed or index + 1))
    env.pop("NDNSHIELD_OUT", None)
    with open(out / "worker.out", "w+") as stdout, open(out / "worker.err", "w+") as stderr:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=stdout, stderr=stderr, env=env, cwd=ROOT)
        timer = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        stdout.seek(0)
        stderr.seek(0)
        lines = stdout.read().splitlines()
        err = stderr.read()
    result = None
    if proc.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass  # judged as a failed run below
    return Run(
        index=index,
        traced=traced,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024,
        exit_code=proc.returncode,
        result=result,
        stderr=err,
        reference=reference,
    )


def judge(workload: str, runs: list[Run], pinned: dict | None) -> None:
    """Record in each run why it failed, if it did. Runs of the reference
    copy are held to their own first run's digests, not to the pins."""
    program = [r for r in runs if not r.reference]
    _judge_side(workload, program, pinned)
    _judge_side(f"{workload} (reference)", [r for r in runs if r.reference], None)
    traced = [r for r in program if r.traced and r.result is not None]
    for run in traced[1:]:
        for name, unit, _better, _value in layers.PER_LAYER:
            if unit != "s" and run.result["layers"][name] != traced[0].result["layers"][name]:
                run.failures.append(
                    f"{name} = {run.result['layers'][name]}, "
                    f"first traced run had {traced[0].result['layers'][name]}"
                )


def _judge_side(workload: str, runs: list[Run], pinned: dict | None) -> None:
    reference = pinned
    for run in runs:
        res = run.result
        if res is None:
            tail = run.stderr.strip().splitlines()[-3:]
            run.failures.append(f"worker exited {run.exit_code}: {' | '.join(tail)}")
            continue
        if res["flow_violations"]:
            run.failures.append(f"flow balance violated: {res['flow_violations'][:3]}")
        if res["accepted_poisoned"]:
            run.failures.append(f"consumers accepted {res['accepted_poisoned']} poisoned packets")
        if reference is None:
            reference = res["csv_sha256"]
        for arm in sorted(set(reference) | set(res["csv_sha256"])):
            got, want = res["csv_sha256"].get(arm), reference.get(arm)
            if got != want:
                run.failures.append(f"{workload}/{arm}: CSV sha256 {got} != {want}")
    untraced = [r for r in runs if not r.traced and r.result is not None]
    layout = [kind for kind, _, _ in untraced[0].segments] if untraced else None
    for run in untraced[1:]:
        if [kind for kind, _, _ in run.segments] != layout:
            run.failures.append("segments differ from the first untraced run's")


def fastest(runs: list[Run]) -> dict[str, float]:
    """Wall, CPU, set-up and simulation seconds of one side's runs: the sum
    over segments of each segment's fastest time."""
    columns = list(zip(*(r.segments for r in runs)))  # one tuple of runs per segment
    kinds = [column[0][0] for column in columns]
    wall = [min(seg[1] for seg in column) for column in columns]
    cpu = [min(seg[2] for seg in column) for column in columns]
    return {
        "wall_s": sum(wall),
        "cpu_s": sum(cpu),
        "setup_s": sum(w for k, w in zip(kinds, wall) if k == "setup"),
        "sim_s": sum(w for k, w in zip(kinds, wall) if k == "sim"),
    }


def end_to_end(runs: list[Run], quiet: dict[str, float]) -> dict[str, float]:
    """The end-to-end metrics of the passing untraced runs: each time is the
    program's over the reference's, in the reference's `quiet` times; peak
    RSS is the program's median."""
    ok = [r for r in runs if not r.traced and not r.failures]
    program = [r for r in ok if not r.reference]
    reference = [r for r in ok if r.reference]
    if not program or not reference:
        return {}
    mine, theirs = fastest(program), fastest(reference)
    scaled = {name: mine[name] / theirs[name] * quiet[name] for name in mine}
    return {
        "wall_s": scaled["wall_s"],
        "cpu_s": scaled["cpu_s"],
        "setup_s": scaled["setup_s"],
        "sim_speed": program[0].result["sim_seconds"] / scaled["sim_s"],
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in program),
    }


def raw_medians(runs: list[Run]) -> dict[str, float]:
    """Medians of the program's whole-run figures, for the report: what one
    run took on the host as it was."""
    ok = [r for r in runs if not r.traced and not r.failures and not r.reference]
    if not ok:
        return {}
    return {
        "wall_s": statistics.median(r.wall_s for r in ok),
        "cpu_s": statistics.median(r.cpu_s for r in ok),
        "setup_s": statistics.median(r.result["setup_s"] for r in ok),
        "sim_speed": statistics.median(r.result["sim_speed"] for r in ok),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in ok),
    }


def per_layer(runs: list[Run]) -> tuple[dict[str, float], dict[str, str]]:
    """Medians of the traced runs' times; counts and ratios of the first
    traced run (judge() has checked that they repeat)."""
    traced = [r for r in runs if r.traced and not r.failures]
    untraced = [r for r in runs if not r.traced and not r.failures and not r.reference]
    if not traced or not untraced:
        return {}, {}
    values, units = {}, {}
    for name, unit, _better, _value in layers.PER_LAYER:
        samples = [r.result["layers"][name] for r in traced]
        values[name] = statistics.median(samples) if unit == "s" else samples[0]
        units[name] = unit
    name, unit, _better = layers.OVERHEAD
    values[name] = statistics.median(r.wall_s for r in traced) / statistics.median(
        r.wall_s for r in untraced
    )
    units[name] = unit
    return values, units


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=None, help="scenario seed (default: the workload's)")
    parser.add_argument("--seconds", type=float, default=42)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"no ndnshield sources at {PACKAGE}; run from a checkout", file=sys.stderr)
        return 2
    seed = workloads.default_seed(args.workload) if args.seed is None else args.seed
    pinned = json.loads(PINS.read_text()).get(args.workload, {}).get(str(seed))
    out = ROOT / ".perfbench" / args.workload
    out.mkdir(parents=True, exist_ok=True)
    compileall.compile_dir(PACKAGE, quiet=2)  # no run pays bytecode compilation
    compileall.compile_dir(HERE / "reference", quiet=2)
    compileall.compile_dir(HERE, maxlevels=0, quiet=2)

    runs: list[Run] = []
    started = time.perf_counter()
    minimum = len(TRACE_PATTERN) if args.trace else MIN_TIMED_RUNS
    while True:
        # Untraced runs come in pairs, one on each side, in the order
        # program-reference, reference-program, ...; both runs of a pair get
        # the same hash seed. An invocation ends only between pairs.
        pair, second = divmod(len(runs), 2)
        if len(runs) >= minimum and (args.trace or not second):
            expected = statistics.median(r.wall_s for r in runs) * (1 if args.trace else 2)
            if time.perf_counter() - started + expected > args.seconds:
                break
        traced = bool(args.trace) and TRACE_PATTERN[len(runs) % len(TRACE_PATTERN)]
        if args.trace:
            runs.append(spawn(args.workload, seed, len(runs), traced, out))
        else:
            reference = bool(second) != bool(pair % 2)
            runs.append(spawn(args.workload, seed, len(runs), False, out, reference, pair + 1))
    judge(args.workload, runs, pinned)

    failed = [r for r in runs if r.failures]
    print(f"{args.workload} seed {seed}: {len(runs)} runs, {len(failed)} failed")
    for run in failed:
        kind = "reference" if run.reference else "traced" if run.traced else "untraced"
        for reason in run.failures:
            print(f"  FAIL run {run.index} ({kind}): {reason}")
    reference = next((r.result["csv_sha256"] for r in runs if r.result and not r.reference), {})
    for arm, digest in sorted(reference.items()):
        if pinned is None:
            status = "no pin at this seed"
        else:
            status = "matches pin" if pinned.get(arm) == digest else "DIFFERS FROM PIN"
        print(f"  csv {args.workload}/{arm} seed {seed} sha256 {digest} ({status})")
    print(f"  failed_ratio {len(failed)}/{len(runs)} = {len(failed) / len(runs):.3f}")

    metrics = {}
    if args.trace:
        values, units = per_layer(runs)
        for name, value in values.items():
            print(f"  {name:34s} {value:>16.6g} {units[name]}")
            metrics[name] = {"value": value, "unit": units[name]}
    else:
        values = end_to_end(runs, QUIET_REFERENCE[args.workload])
        raw = raw_medians(runs)
        passed = sum(1 for r in runs if not r.failures and not r.reference)
        for side in (False, True):
            group = [r for r in runs if r.reference == side and not r.failures]
            if group:
                sums = " ".join(f"{k} {v:.4f}" for k, v in fastest(group).items())
                print(f"  {'reference' if side else 'program'} fastest segments: {sums} "
                      f"({len(group)} runs)")
        for name, unit in END_TO_END:
            if name in values:
                print(f"  {name:12s} {values[name]:12.4f} {unit:8s} "
                      f"(program's median whole run {raw[name]:.4f}, {passed} runs)")
                metrics[name] = {"value": values[name], "unit": unit}
    print(json.dumps({
        "correct": not failed,
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

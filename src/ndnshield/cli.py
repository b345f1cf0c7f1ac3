"""Command-line entry point.

    ndnshield run <scenario.json> [--seed N] [--replicates K] [--out DIR]
    ndnshield validate <scenario.json>
    ndnshield suite [pytest args...]
    ndnshield bench-crypto [--size BYTES]

The output directory can also be set with the NDNSHIELD_OUT environment
variable, which overrides --out. `run` and `validate` report a document's
violations at their `$.` paths (exit 1); an unreadable file exits 2.
"""

from __future__ import annotations

import argparse
import math
import os
import subprocess
import sys
from pathlib import Path

from .experiment import bench_crypto, load_scenario_file, run_experiment
from .rand import MAX_SEED
from .scenario import ScenarioError


def _integer(low: int, high: float = math.inf):
    """An argparse type: an integer from `low` to `high`, else a usage error."""

    def parse(text: str) -> int:
        if text.removeprefix("-").isdigit() and low <= int(text) <= high:
            return int(text)
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer in {low}..{high}")

    return parse


def _load(path: str):
    """(scenario, 0), or (None, exit status) once the reason is printed."""
    try:
        return load_scenario_file(path), 0
    except ScenarioError as exc:
        print(f"{path}: INVALID", *(f"  {violation}" for violation in exc.violations), sep="\n")
        return None, 1
    except (OSError, UnicodeDecodeError) as exc:
        print(f"{path}: cannot read ({getattr(exc, 'strerror', None) or exc})", file=sys.stderr)
        return None, 2


def _cmd_run(args) -> int:
    scenario, out = args.loaded, Path(os.environ.get("NDNSHIELD_OUT", args.out))
    summary = run_experiment(scenario, replicates=args.replicates, out_dir=out, base_seed=args.seed)
    for arm, block in summary["arms"].items():
        agg = block["aggregate"]
        ratio = agg.get("honest_satisfaction_ratio", {}).get("mean")
        print(f"{scenario.name} [{arm}] replicates={agg['replicates']}", end="")
        if ratio is not None:
            print(f" honest_satisfaction_ratio={ratio:.4f}", end="")
        print()
    print(f"metrics written under {out.resolve()}")
    return 0


def _cmd_validate(args) -> int:
    scenario = args.loaded
    nodes = len(scenario.doc["nodes"])
    arms = ", ".join(scenario.arm_names()) or "-"
    print(f"{args.scenario}: OK ({nodes} nodes, duration {scenario.duration_ms} ms, arms: {arms})")
    return 0


def _cmd_suite(args) -> int:
    """Run the acceptance test module with pytest (requires the source tree)."""
    here = Path(__file__).resolve()
    for parent in here.parents:
        candidate = parent / "tests" / "test_acceptance.py"
        if candidate.exists():
            cmd = [sys.executable, "-m", "pytest", str(candidate), "-v"] + args.pytest_args
            return subprocess.call(cmd, cwd=str(parent))
    print("tests/test_acceptance.py not found; run from a source checkout", file=sys.stderr)
    return 2


def _cmd_bench_crypto(args) -> int:
    result = bench_crypto(packet_size=args.size)
    print(f"packet size:            {result['packet_size_bytes']} bytes")
    print(
        f"content-hash verify:    {result['hash_verify_mbps']:10.1f} Mbps"
        f"  ({result['hash_verify_ops_per_s']:10.0f} pkt/s)"
    )
    print(
        f"RSA-1024(e=3) verify:   {result['rsa1024_verify_mbps']:10.1f} Mbps"
        f"  ({result['rsa1024_verify_ops_per_s']:10.0f} pkt/s)"
    )
    print(f"throughput ratio:       {result['throughput_ratio']:10.1f}x")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="ndnshield", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario and write metrics CSVs")
    p_run.add_argument("scenario")
    p_run.add_argument("--seed", type=_integer(0, MAX_SEED), default=None,
                       help="override the scenario seed")
    p_run.add_argument("--replicates", type=_integer(1), default=1)
    p_run.add_argument("--out", default="out", help="output directory")
    p_run.set_defaults(fn=_cmd_run)

    p_val = sub.add_parser("validate", help="schema-check a scenario file")
    p_val.add_argument("scenario")
    p_val.set_defaults(fn=_cmd_validate)

    p_suite = sub.add_parser("suite", help="run the acceptance suite")
    p_suite.set_defaults(fn=_cmd_suite)

    p_bench = sub.add_parser("bench-crypto", help="hash vs signature verification throughput")
    p_bench.add_argument("--size", type=_integer(1), default=1500)
    p_bench.set_defaults(fn=_cmd_bench_crypto)

    # Everything after `suite` goes straight to pytest.
    args, extras = parser.parse_known_args(argv)
    if args.command == "suite":
        args.pytest_args = extras
    elif extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    if args.command in ("run", "validate"):  # both read and report a document alike
        args.loaded, status = _load(args.scenario)
        if args.loaded is None:
            return status
    if args.command == "run":  # the last replicate's seed, from --seed or the document
        seed = args.loaded.seed if args.seed is None else args.seed
        if seed + args.replicates - 1 > MAX_SEED:
            p_run.error(f"argument --replicates: seeds {seed}..{seed + args.replicates - 1} "
                        f"are not all in 0..{MAX_SEED}")
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())

"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import importlib
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from ndnshield.scenario import load_scenario  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_document_is_a_valid_scenario(workload):
    scenario = load_scenario(workloads.document(workload))
    assert scenario.seed == workloads.default_seed(workload)


def _bindings() -> dict:
    """Every attribute of every ndnshield module and class, by identity."""
    seen = {}
    for name, module in sorted(sys.modules.items()):
        if name == "ndnshield" or name.startswith("ndnshield."):
            for attr, value in vars(module).items():
                seen[(name, attr)] = value
                if isinstance(value, type) and value.__module__ == name:
                    for cattr, cvalue in vars(value).items():
                        seen[(name, attr, cattr)] = cvalue
    return seen


def test_tracer_restores_every_binding():
    importlib.import_module("ndnshield.experiment")
    before = _bindings()
    tracer = tracing.Tracer(tracing.TRACED, tracing.COUNTED).install()
    during = _bindings()
    changed = {key for key in before if during[key] is not before[key]}
    # Name-imported functions are replaced in every module that binds them.
    assert {("ndnshield.simnet", "wire_size"), ("ndnshield.packets", "wire_size"),
            ("ndnshield.nodes", "sign_packet"), ("ndnshield.scenario", "sign_packet"),
            ("ndnshield.attacks", "sign_packet"), ("ndnshield.crypto", "sign_packet"),
            ("ndnshield.router", "compute_content_hash")} <= changed
    tracer.uninstall()
    after = _bindings()
    assert [key for key in before if after[key] is not before[key]] == []


def test_self_time_subtracts_child_spans(tmp_path):
    tracer = tracing.Tracer()
    tracer.names = ["a", "b"]
    for name, start, end, parent in ((0, 0, 100, -1), (1, 10, 40, 0), (0, 50, 70, 0)):
        tracer.name.append(name)
        tracer.start.append(start)
        tracer.end.append(end)
        tracer.parent.append(parent)
    per_name = tracer.per_name()
    assert per_name["a"] == {"calls": 2, "self_s": 70e-9, "total_s": 100e-9}
    assert per_name["b"] == {"calls": 1, "self_s": 30e-9, "total_s": 30e-9}
    tracer.write(tmp_path / "spans.json")
    assert json.loads((tmp_path / "spans.json").read_text()) == {
        "names": ["a", "b"], "name": [0, 1, 0], "start_ns": [0, 10, 50],
        "end_ns": [100, 40, 70], "parent": [-1, 0, 0],
    }


def test_metric_names_and_caps_match_benchmark_json():
    end_to_end = [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]]
    assert end_to_end == list(run.END_TO_END)
    per_layer = [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]]
    assert per_layer == [row[:3] for row in layers.PER_LAYER] + [layers.OVERHEAD]
    names = [name for name, *_ in end_to_end + per_layer]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(set(names)) == len(names)
    assert 1 <= len(end_to_end) <= 16 and 1 <= len(per_layer) <= 128
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def _shortened(build):
    def short():
        doc = build()
        doc["duration_ms"] = min(doc["duration_ms"], 1500)
        return doc

    return short


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_run_reports_every_metric(workload, tmp_path, monkeypatch):
    monkeypatch.setitem(workloads.WORKLOADS, workload, _shortened(workloads.WORKLOADS[workload]))
    seed = workloads.default_seed(workload)
    runs = []
    for index, traced in enumerate((False, True, True)):
        spans = tmp_path / "spans.json" if traced else None
        result = worker.run(workload, seed, tmp_path / "csv", spans)
        if index == 0:
            wall = sum(w for _, w, _ in result["segments"]) + 0.5
        runs.append(run.Run(index, traced, wall * (1 + traced), wall, 50.0, 0, result, ""))
    # The reference side runs in its own interpreter; here it repeats run 0.
    runs.append(run.Run(3, False, wall, wall, 50.0, 0, runs[0].result, "", reference=True))
    run.judge(workload, runs, pinned=None)
    assert [r.failures for r in runs] == [[], [], [], []]
    quiet = run.QUIET_REFERENCE[workload]
    values = run.end_to_end(runs, quiet)
    assert set(values) == {name for name, _ in run.END_TO_END}
    assert values["wall_s"] == pytest.approx(quiet["wall_s"])
    values, units = run.per_layer(runs)
    assert set(values) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert values["trace.overhead_ratio"] == 2.0
    spans = json.loads((tmp_path / "spans.json").read_text())
    assert len(spans["start_ns"]) == len(spans["parent"]) > 0


def test_clock_segments_follow_the_cuts():
    clock = tracing.Clock()
    ns = 10**9
    clock.marks = [
        ("scenario.load", True, 1 * ns, 1 * ns), ("scenario.load", False, 2 * ns, 2 * ns),
        ("scenario.run", True, 3 * ns, 3 * ns),
        ("metrics.sample", True, 5 * ns, 4 * ns), ("metrics.sample", False, 6 * ns, 5 * ns),
        ("scenario.run", False, 8 * ns, 7 * ns),
    ]
    assert clock.segments((0, 0), (10 * ns, 9 * ns)) == [
        ["other", 1, 1], ["setup", 1, 1], ["other", 1, 1], ["sim", 2, 1],
        ["sim", 1, 1], ["sim", 2, 2], ["other", 2, 2],
    ]


def _fake(index, wall, segments, reference=False):
    result = {"segments": segments, "sim_seconds": 6.0, "setup_s": 0, "sim_speed": 0}
    return run.Run(index, False, wall, wall, 40.0 + index, 0, result, "", reference=reference)


def test_fastest_sums_each_segments_fastest_time():
    runs = [
        _fake(0, 10.0, [["setup", 1.0, 1.0], ["sim", 3.0, 3.0], ["sim", 5.0, 5.0]]),
        _fake(1, 12.0, [["setup", 2.0, 2.0], ["sim", 2.0, 2.0], ["sim", 7.0, 7.0]]),
        _fake(2, 20.0, [["setup", 1.5, 1.5], ["sim", 9.0, 9.0], ["sim", 9.0, 9.0]]),
    ]
    # outside segments: 1, 1, 0.5; setup 1; sims 2 and 5.
    assert run.fastest(runs) == pytest.approx(
        {"wall_s": 0.5 + 1 + 2 + 5, "cpu_s": 0.5 + 1 + 2 + 5, "setup_s": 1.0, "sim_s": 7.0}
    )


def test_end_to_end_scales_program_over_reference():
    program = [_fake(0, 8.0, [["setup", 1.0, 1.0], ["sim", 6.0, 6.0]]),
               _fake(2, 9.0, [["setup", 2.0, 2.0], ["sim", 6.0, 6.0]])]
    reference = [_fake(1, 4.0, [["setup", 0.5, 0.5], ["sim", 3.0, 3.0]], reference=True)]
    quiet = {"wall_s": 2.0, "cpu_s": 2.0, "setup_s": 0.25, "sim_s": 1.5}
    values = run.end_to_end(program + reference, quiet)
    # The program takes twice as long as the reference in every respect.
    assert values["wall_s"] == pytest.approx(4.0)
    assert values["cpu_s"] == pytest.approx(4.0)
    assert values["setup_s"] == pytest.approx(0.5)
    assert values["sim_speed"] == pytest.approx(6.0 / 3.0)
    assert values["peak_rss_mb"] == 41.0  # the program's runs only
    assert run.end_to_end(program, quiet) == {}


def test_judge_flags_digest_mismatch_and_flow_violation():
    ok = {"csv_sha256": {"base": "aa"}, "flow_violations": [], "accepted_poisoned": 0,
          "segments": []}
    runs = [
        run.Run(0, False, 1, 1, 1, 0, ok, ""),
        run.Run(1, False, 1, 1, 1, 0, dict(ok, flow_violations=[[None, "r1", 0, 3, 2]]), ""),
        run.Run(2, False, 1, 1, 1, 1, None, "Traceback\nValueError: boom"),
    ]
    runs.append(run.Run(3, False, 1, 1, 1, 0, dict(ok, csv_sha256={"base": "cc"}), "",
                        reference=True))
    run.judge("w", runs, pinned={"base": "bb"})
    assert runs[3].failures == []  # the reference copy is not held to the pins
    assert "w/base: CSV sha256 aa != bb" in runs[0].failures
    assert any("flow balance" in f for f in runs[1].failures)
    assert runs[2].failures == ["worker exited 1: Traceback | ValueError: boom"]


def test_judge_flags_runs_cut_differently():
    segments = [["setup", 0.1, 0.1], ["sim", 0.2, 0.2]]
    ok = {"csv_sha256": {"base": "aa"}, "flow_violations": [], "accepted_poisoned": 0,
          "segments": segments}
    runs = [
        run.Run(0, False, 1, 1, 1, 0, ok, ""),
        run.Run(1, False, 1, 1, 1, 0, dict(ok, segments=segments[:1]), ""),
    ]
    run.judge("w", runs, pinned=None)
    assert runs[0].failures == []
    assert runs[1].failures == ["segments differ from the first untraced run's"]


def test_worker_runs_the_reference_copy(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "dynamic_flood", "105", str(tmp_path),
         "--reference"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["flow_violations"] == [] and result["segments"]


def test_reference_times_cover_every_workload():
    assert set(run.QUIET_REFERENCE) == set(workloads.WORKLOADS)
    for times in run.QUIET_REFERENCE.values():
        assert set(times) == {"wall_s", "cpu_s", "setup_s", "sim_s"}
        assert all(value > 0 for value in times.values())


def test_run_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pit_flood", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

"""Command-line surface."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from helpers import FIXTURE, _in_fresh_interpreter
from ndnshield.cli import main


def small_scenario(tmp_path) -> Path:
    doc = {
        "name": "cli-small", "duration_ms": 300, "seed": 3,
        "nodes": [
            {"id": "p", "role": "producer", "prefix": "/v", "static_names": ["a"]},
            {"id": "r", "role": "router"},
            {"id": "c", "role": "consumer",
             "requests": {"names": ["/v/a"], "at_ms": [5], "retries": 0}},
        ],
        "links": [
            {"endpoints": ["c", "r"], "bandwidth_mbps": 100, "delay_ms": 1},
            {"endpoints": ["r", "p"], "bandwidth_mbps": 100, "delay_ms": 1},
        ],
        "fib": {"r": [{"prefix": "/v", "next_hops": ["p"]}]},
    }
    path = tmp_path / "small.json"
    path.write_text(json.dumps(doc))
    return path


def test_validate_ok(capsys):
    assert main(["validate", str(FIXTURE)]) == 0
    out = capsys.readouterr().out
    assert "OK" in out and "6 nodes" in out


def test_validate_reports_violations(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"name": "x", "duration_ms": 10, "nodes": [], "links": [],
                               "mystery": 1}))
    assert main(["validate", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "INVALID" in out and "mystery" in out


def test_run_writes_outputs(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("NDNSHIELD_OUT", raising=False)
    scenario = small_scenario(tmp_path)
    out_dir = tmp_path / "out"
    assert main(["run", str(scenario), "--out", str(out_dir), "--replicates", "2"]) == 0
    files = sorted(p.name for p in out_dir.iterdir())
    assert files == ["cli-small_base_rep0.csv", "cli-small_base_rep1.csv",
                     "cli-small_summary.json"]
    summary = json.loads((out_dir / "cli-small_summary.json").read_text())
    assert summary["arms"]["base"]["aggregate"]["honest_satisfaction_ratio"]["mean"] == 1.0


def test_run_env_override(tmp_path, capsys, monkeypatch):
    scenario = small_scenario(tmp_path)
    env_dir = tmp_path / "env-out"
    monkeypatch.setenv("NDNSHIELD_OUT", str(env_dir))
    assert main(["run", str(scenario), "--out", str(tmp_path / "ignored")]) == 0
    assert env_dir.exists() and any(env_dir.iterdir())
    assert not (tmp_path / "ignored").exists()
    assert f"metrics written under {env_dir.resolve()}" in capsys.readouterr().out


def test_bench_crypto_runs(capsys):
    assert main(["bench-crypto", "--size", "600"]) == 0
    out = capsys.readouterr().out
    assert "content-hash verify" in out
    assert "RSA-1024(e=3) verify" in out
    assert "ratio" in out


def _loaded_after_import(package: str, *argv: str) -> str:
    """The modules of `package` loaded in a fresh interpreter once it has
    imported the CLI and, given `argv`, run `ndnshield` with it."""
    show = f"sorted(m for m in sys.modules if m.split('.')[0] == {package!r})"
    return _in_fresh_interpreter(*argv, show=show).splitlines()[-1]


@pytest.mark.parametrize("package, after", [
    ("numpy", "run"),  # a test dependency, a third of the start-up it would cost
    ("cryptography", "run"),  # a test oracle: the package signs through libcrypto
    ("dataclasses", "run"),  # the types declare their fields to `schema.Record`,
    ("inspect", "run"),  # which generates no code: two thirds of the import
    ("ctypes", "import"),  # key generation loads it on first use
])
def test_never_loaded(package, after, tmp_path):
    """Neither the import of the CLI nor, after "run", a run that generates
    keys, signs and verifies loads `package`."""
    run = ["run", str(small_scenario(tmp_path)), "--out", str(tmp_path / "out")]
    assert _loaded_after_import(package, *(run if after == "run" else [])) == "[]"


SEEDS = "is not an integer in 0..18446744073709551615"


@pytest.mark.parametrize("argv, error", [
    (["run", str(FIXTURE), "--seed", "-1"], f"argument --seed: '-1' {SEEDS}"),
    (["run", str(FIXTURE), "--seed", str(2 ** 64)], f"argument --seed: '{2 ** 64}' {SEEDS}"),
    (["run", str(FIXTURE), "--replicates", "0"], "--replicates: '0' is not an integer in 1..inf"),
    (["bench-crypto", "--size", "0"], "argument --size: '0' is not an integer in 1..inf"),
    (["run", str(FIXTURE), "--seed", str(2 ** 64 - 1), "--replicates", "2"],
     f"--replicates: seeds {2 ** 64 - 1}..{2 ** 64} are not all in 0..{2 ** 64 - 1}"),
    (["run", str(FIXTURE), "--replicates", str(2 ** 64)],  # the document's seed is 7
     f"--replicates: seeds 7..{2 ** 64 + 6} are not all in 0..{2 ** 64 - 1}"),
], ids=["negative-seed", "huge-seed", "no-replicates", "empty-packet", "last-seed-of-option",
        "last-seed-of-document"])
def test_option_out_of_range_is_a_usage_error(argv, error, capsys):
    """Each crashed inside the run (`OverflowError` in `Rng`, `IndexError`
    aggregating no replicates, `ZeroDivisionError` timing empty packets,
    `ValueError` on a last replicate's seed past 2**64-1)."""
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    assert error in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "validate"])
def test_run_and_validate_report_a_bad_document_alike(command, tmp_path, capsys):
    """Violations at their `$.` paths and exit 1; an unreadable file exits
    2. `run` printed a `ScenarioError` traceback for the first, and both
    commands a `FileNotFoundError` one for the second."""
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"name": "x", "duration_ms": 0, "nodes": [], "links": []}))
    out = ["--out", str(tmp_path / "out")] if command == "run" else []
    assert main([command, str(bad), *out]) == 1
    assert capsys.readouterr().out == f"{bad}: INVALID\n  $.duration_ms: must be positive\n"
    missing = tmp_path / "missing.json"
    assert main([command, str(missing), *out]) == 2
    assert capsys.readouterr().err == f"{missing}: cannot read (No such file or directory)\n"
    assert not (tmp_path / "out").exists()
